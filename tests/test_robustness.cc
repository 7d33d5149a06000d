// Fault containment & resource governance (docs/robustness.md):
// execution budgets (statement_timeout_ms / max_plan_steps) with clean
// rollback, the
// per-trigger circuit breaker (auto-quarantine, DETACHED half-open
// backoff probes, SHOW TRIGGER STATUS), the unified fault-point registry,
// and WAL-poison read-only degraded mode (SHOW HEALTH).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/trigger/async_executor.h"
#include "src/trigger/database.h"
#include "src/wal/fault_fs.h"

namespace pgt {
namespace {

/// Every test disarms the global registry on both ends: faults armed by a
/// failing test must never leak into the next one.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  static void Exec(Database& db, const std::string& q) {
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  static int64_t Count(Database& db, const std::string& q) {
    auto r = db.Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? r.value().rows[0][0].int_value() : -1;
  }
};

// --- Execution budgets -------------------------------------------------------

EngineOptions StepBudget(int64_t steps) {
  EngineOptions o;
  o.max_plan_steps = steps;
  return o;
}

/// A statement whose work is quadratic in the seeded node count — big
/// enough to blow a small step budget deterministically, small enough to
/// finish instantly when the budget check itself is under test.
constexpr char kHeavy[] = "MATCH (a:N), (b:N) RETURN COUNT(*) AS c";

void SeedNodes(Database& db, int n) {
  ASSERT_TRUE(
      db.Execute("UNWIND RANGE(1, " + std::to_string(n) + ") AS i "
                 "CREATE (:N {i: i})")
          .ok());
}

TEST_F(RobustnessTest, StepBudgetAbortsStatement) {
  Database db(StepBudget(500));
  SeedNodes(db, 100);  // 100 x 100 candidate pairs >> 500 steps
  auto r = db.Execute(kHeavy);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(r.status().message().find("max_plan_steps"), std::string::npos)
      << r.status();
  // The budget is per statement: the next (cheap) statement succeeds.
  EXPECT_EQ(Count(db, "MATCH (n:N) RETURN COUNT(*) AS c"), 100);
}

TEST_F(RobustnessTest, TimeoutAbortsLongStatement) {
  EngineOptions o;
  o.statement_timeout_ms = 50;
  Database db(o);
  SeedNodes(db, 150);
  // 150^3 = 3.4M candidate triples: far past 50ms on any machine, yet
  // bounded if cancellation were broken.
  auto r = db.Execute("MATCH (a:N), (b:N), (c:N) RETURN COUNT(*) AS c");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(r.status().message().find("statement_timeout_ms"),
            std::string::npos)
      << r.status();
}

TEST_F(RobustnessTest, BudgetAbortRollsBackCleanly) {
  Database db(StepBudget(500));
  SeedNodes(db, 100);
  // The write statement blows its budget mid-flight: nothing of it (or
  // of any trigger it would have fired) may survive.
  Exec(db, "CREATE TRIGGER T AFTER CREATE ON 'X' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  auto r = db.Execute("MATCH (a:N), (b:N) CREATE (:X {u: a.i})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(Count(db, "MATCH (x:X) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count(db, "MATCH (n:N) RETURN COUNT(*) AS c"), 100);
}

TEST_F(RobustnessTest, BudgetAbortNamesTheTrigger) {
  Database db(StepBudget(2000));
  SeedNodes(db, 100);
  // The top-level statement is cheap; the trigger's action is the hog.
  Exec(db, "CREATE TRIGGER Hog AFTER CREATE ON 'X' FOR EACH NODE "
           "BEGIN MATCH (a:N), (b:N) CREATE (:Pair) END");
  auto r = db.Execute("CREATE (:X)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_NE(r.status().message().find("trigger 'Hog'"), std::string::npos)
      << r.status();
  EXPECT_EQ(Count(db, "MATCH (x:X) RETURN COUNT(*) AS c"), 0);
}

TEST_F(RobustnessTest, CascadesSpendTheStatementsBudget) {
  // Two triggers, each individually affordable; together they exceed the
  // budget — proof that BEFORE/AFTER cascades inherit rather than re-arm.
  Database solo(StepBudget(4000));
  SeedNodes(solo, 50);
  Exec(solo, "CREATE TRIGGER A AFTER CREATE ON 'X' FOR EACH NODE "
             "BEGIN MATCH (a:N), (b:N) WITH COUNT(*) AS c CREATE (:La) END");
  ASSERT_TRUE(solo.Execute("CREATE (:X)").ok());

  Database both(StepBudget(4000));
  SeedNodes(both, 50);
  Exec(both, "CREATE TRIGGER A AFTER CREATE ON 'X' FOR EACH NODE "
             "BEGIN MATCH (a:N), (b:N) WITH COUNT(*) AS c CREATE (:La) END");
  Exec(both, "CREATE TRIGGER B AFTER CREATE ON 'X' FOR EACH NODE "
             "BEGIN MATCH (a:N), (b:N) WITH COUNT(*) AS c CREATE (:Lb) END");
  auto r = both.Execute("CREATE (:X)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
}

TEST_F(RobustnessTest, RepeatedBudgetAbortsLeakNothing) {
  // Leak regression (run under ASan in CI): aborting mid-firing over and
  // over must not leak pooled frames/envs or corrupt engine state.
  Database db(StepBudget(2000));
  SeedNodes(db, 100);
  Exec(db, "CREATE TRIGGER Hog AFTER CREATE ON 'X' FOR EACH NODE "
           "BEGIN MATCH (a:N), (b:N) CREATE (:Pair) END");
  for (int i = 0; i < 50; ++i) {
    auto r = db.Execute("CREATE (:X)");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kBudgetExceeded);
  }
  EXPECT_EQ(Count(db, "MATCH (x:X) RETURN COUNT(*) AS c"), 0);
  // The engine is still fully live once the hog is gone.
  Exec(db, "DROP TRIGGER Hog");
  Exec(db, "CREATE (:X)");
  EXPECT_EQ(Count(db, "MATCH (x:X) RETURN COUNT(*) AS c"), 1);
}

// --- Circuit breaker ---------------------------------------------------------

EngineOptions Breaker(int threshold) {
  EngineOptions o;
  o.quarantine_threshold = threshold;
  return o;
}

constexpr uint64_t kBackoffBase = TriggerCatalog::kQuarantineBackoffBase;

TEST_F(RobustnessTest, StatementTriggerQuarantinedAfterThreshold) {
  Database db(Breaker(3));
  Exec(db, "CREATE TRIGGER Flaky AFTER CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  // Fail the trigger's next three firings through the chaos hook.
  FaultRegistry::Global().Arm("engine.activation", [] {
    FaultRegistry::FaultSpec s;
    s.trigger_count = 3;
    s.message = "injected activation failure";
    return s;
  }());

  for (int i = 0; i < 3; ++i) {
    auto r = db.Execute("CREATE (:P)");
    ASSERT_FALSE(r.ok()) << "firing " << i;
  }
  // Threshold reached: the trigger is quarantined (disabled), so the next
  // commit sails through even though the statement still creates :P nodes.
  const TriggerHealth* h = db.catalog().Health("Flaky");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->quarantined);
  EXPECT_EQ(h->consecutive_failures, 3u);
  EXPECT_NE(h->reason.find("injected activation failure"), std::string::npos);
  EXPECT_FALSE(db.catalog().Find("Flaky")->enabled);

  Exec(db, "CREATE (:P)");
  EXPECT_EQ(Count(db, "MATCH (p:P) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 0);

  // SHOW TRIGGER STATUS surfaces the quarantine with its reason.
  auto status = db.Execute("SHOW TRIGGER STATUS");
  ASSERT_TRUE(status.ok()) << status.status();
  ASSERT_EQ(status->rows.size(), 1u);
  size_t name_col = 0, quar_col = 0, reason_col = 0;
  for (size_t c = 0; c < status->columns.size(); ++c) {
    if (status->columns[c] == "name") name_col = c;
    if (status->columns[c] == "quarantined") quar_col = c;
    if (status->columns[c] == "reason") reason_col = c;
  }
  EXPECT_EQ(status->rows[0][name_col].string_value(), "Flaky");
  EXPECT_TRUE(status->rows[0][quar_col].bool_value());
  EXPECT_NE(std::string(status->rows[0][reason_col].string_value())
                .find("injected activation failure"),
            std::string::npos);

  // Manual ENABLE is the only way back for a statement-time trigger, and
  // it resets the breaker to a fresh start.
  Exec(db, "ALTER TRIGGER Flaky ENABLE");
  Exec(db, "CREATE (:P)");
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.catalog().Health("Flaky"), nullptr);
}

TEST_F(RobustnessTest, DetachedTriggerRecoversViaBackoffProbe) {
  Database db(Breaker(/*threshold=*/2));
  Exec(db, "CREATE TRIGGER D DETACHED CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  FaultRegistry::Global().Arm("engine.activation", [] {
    FaultRegistry::FaultSpec s;
    s.trigger_count = 2;
    s.message = "injected detached failure";
    return s;
  }());

  // DETACHED failures are contained: the activating commits succeed.
  Exec(db, "CREATE (:P)");
  Exec(db, "CREATE (:P)");
  const TriggerHealth* h = db.catalog().Health("D");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->quarantined);
  EXPECT_EQ(h->backoff, kBackoffBase);

  // The fault has passed. The first kBackoffBase opportunities are
  // skipped, the next runs as the half-open probe and succeeds.
  for (uint64_t i = 0; i < kBackoffBase; ++i) Exec(db, "CREATE (:P)");
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
  Exec(db, "CREATE (:P)");  // probe
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  h = db.catalog().Health("D");
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->quarantined);
  EXPECT_EQ(h->probes, 1u);
  EXPECT_EQ(h->skipped, kBackoffBase);

  Exec(db, "CREATE (:P)");  // back to normal service
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 2);
}

TEST_F(RobustnessTest, FailedProbeDoublesTheBackoff) {
  Database db(Breaker(/*threshold=*/1));
  Exec(db, "CREATE TRIGGER D DETACHED CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  // Fail the first firing AND the first probe (hits 1 and 2).
  FaultRegistry::Global().Arm("engine.activation", [] {
    FaultRegistry::FaultSpec s;
    s.trigger_count = 2;
    return s;
  }());

  Exec(db, "CREATE (:P)");  // failure -> quarantined, backoff = base
  for (uint64_t i = 0; i < kBackoffBase; ++i) Exec(db, "CREATE (:P)");
  Exec(db, "CREATE (:P)");  // probe -> fails -> backoff doubles
  const TriggerHealth* h = db.catalog().Health("D");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->quarantined);
  EXPECT_EQ(h->backoff, 2 * kBackoffBase);
  EXPECT_EQ(h->quarantines, 2u);

  for (uint64_t i = 0; i < 2 * kBackoffBase; ++i) Exec(db, "CREATE (:P)");
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
  Exec(db, "CREATE (:P)");  // probe -> succeeds -> recovered
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  EXPECT_FALSE(db.catalog().Health("D")->quarantined);
}

TEST_F(RobustnessTest, ProbeBackoffStopsAtTheCap) {
  Database db(Breaker(/*threshold=*/1));
  Exec(db, "CREATE TRIGGER D DETACHED CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  // Every firing and every probe fails.
  FaultRegistry::Global().Arm("engine.activation", [] {
    FaultRegistry::FaultSpec s;
    s.trigger_count = 1000;
    return s;
  }());
  // The window doubles 4 -> 8 -> ... -> 256 (opportunity 259), then the
  // probe at opportunity 516 fails again and the window stays at the cap.
  for (int i = 0; i < 600; ++i) Exec(db, "CREATE (:P)");
  const TriggerHealth* h = db.catalog().Health("D");
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->quarantined);
  EXPECT_EQ(h->backoff, TriggerCatalog::kQuarantineBackoffCap);
  EXPECT_EQ(h->quarantines, 8u);
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
}

// --- Degraded read-only mode -------------------------------------------------

TEST_F(RobustnessTest, WalPoisonEntersReadOnlyDegradedMode) {
  wal::MemVfs vfs;
  wal::WalOptions wo;
  wo.dir = "/db";
  wo.vfs = &vfs;
  wo.fsync = true;
  wo.group_size = 1;
  auto opened = Database::Open(wo);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database& db = **opened;
  Exec(db, "CREATE (:P {i: 1})");

  // The next log append fails -> the WAL is poisoned.
  FaultRegistry::Global().ArmNthHit("wal.append", 1);
  auto failed = db.Execute("CREATE (:P {i: 2})");
  ASSERT_FALSE(failed.ok());
  ASSERT_TRUE(db.degraded());

  // Writes are refused fast, citing the poison cause...
  auto write = db.Execute("CREATE (:P {i: 3})");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(write.status().message().find("degraded"), std::string::npos);
  EXPECT_NE(write.status().message().find("wal append failed"),
            std::string::npos)
      << write.status();
  // ... and so is trigger/index DDL.
  EXPECT_FALSE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH "
                          "NODE BEGIN CREATE (:L) END")
                   .ok());
  EXPECT_FALSE(db.Execute("CREATE INDEX ON :P(i)").ok());

  // Reads still work; the refused commit never half-applied.
  EXPECT_EQ(Count(db, "MATCH (p:P) RETURN COUNT(*) AS c"), 1);

  // SHOW HEALTH reports the mode and the cause.
  auto health = db.Execute("SHOW HEALTH");
  ASSERT_TRUE(health.ok()) << health.status();
  ASSERT_EQ(health->rows.size(), 1u);
  size_t mode_col = 0, cause_col = 0;
  for (size_t c = 0; c < health->columns.size(); ++c) {
    if (health->columns[c] == "mode") mode_col = c;
    if (health->columns[c] == "wal_poison_cause") cause_col = c;
  }
  EXPECT_EQ(health->rows[0][mode_col].string_value(), "degraded-read-only");
  EXPECT_NE(std::string(health->rows[0][cause_col].string_value())
                .find("wal append failed"),
            std::string::npos);

  // Reopening recovers to the last durable state: the poisoned-away
  // commits were refused in memory too, so nothing diverges.
  FaultRegistry::Global().DisarmAll();
  ASSERT_FALSE(db.Close().ok());  // close flushes into the poisoned log
  auto reopened = Database::Open(wo);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_FALSE((*reopened)->degraded());
  EXPECT_EQ(Count(**reopened, "MATCH (p:P) RETURN COUNT(*) AS c"), 1);
  Exec(**reopened, "CREATE (:P {i: 9})");
  EXPECT_EQ(Count(**reopened, "MATCH (p:P) RETURN COUNT(*) AS c"), 2);
}

// A statement that fails *after* allocating ids rolls back and burns those
// ids forever (ids are dense and never reused) — but a rollback appends no
// WAL record, so the log's id sequence legitimately runs ahead of a fresh
// replay's. Recovery must re-burn the gap as tombstones, not refuse the
// open with a divergence error. Found by the chaos suite (seed 2).
TEST_F(RobustnessTest, RolledBackIdBurnsDoNotDesyncWalReplay) {
  wal::MemVfs vfs;
  wal::WalOptions wo;
  wo.dir = "/db";
  wo.vfs = &vfs;
  wo.fsync = true;
  wo.group_size = 1;
  auto opened = Database::Open(wo);
  ASSERT_TRUE(opened.ok()) << opened.status();
  Database& db = **opened;
  Exec(db, "CREATE (:P {i: 1})");
  Exec(db,
       "CREATE TRIGGER Boom AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:L) END");

  // The statement allocates one node id and one rel id, then its AFTER
  // trigger fails by injection -> full rollback, both ids burned unlogged.
  FaultRegistry::Global().ArmNthHit("engine.activation", 1);
  auto failed =
      db.Execute("MATCH (a:P {i: 1}) CREATE (a)-[:R]->(:P {i: 2})");
  ASSERT_FALSE(failed.ok());
  FaultRegistry::Global().DisarmAll();
  EXPECT_FALSE(db.degraded());

  // The next successful commit logs creates that start past the hole.
  Exec(db, "MATCH (a:P {i: 1}) CREATE (a)-[:R]->(:P {i: 4})");
  ASSERT_TRUE(db.Close().ok());

  auto reopened = Database::Open(wo);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  Database& rdb = **reopened;
  EXPECT_EQ(Count(rdb, "MATCH (p:P) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Count(rdb, "MATCH (:P)-[r:R]->(:P) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count(rdb, "MATCH (l:L) RETURN COUNT(*) AS c"), 1);
  // The recovered id space includes the burned holes: appending resumes
  // exactly where the log left off, so a further close/reopen also works.
  Exec(rdb, "CREATE (:P {i: 9})");
  ASSERT_TRUE(rdb.Close().ok());
  auto again = Database::Open(wo);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(Count(**again, "MATCH (p:P) RETURN COUNT(*) AS c"), 3);
}

TEST_F(RobustnessTest, HealthSurfacesViaShowAndProcedure) {
  Database db;
  auto show = db.Execute("SHOW HEALTH");
  ASSERT_TRUE(show.ok()) << show.status();
  auto call = db.Execute(
      "CALL pgt.health() YIELD mode, quarantined_count, armed_fault_points "
      "RETURN mode, quarantined_count, armed_fault_points");
  ASSERT_TRUE(call.ok()) << call.status();
  ASSERT_EQ(show->rows.size(), 1u);
  ASSERT_EQ(call->rows.size(), 1u);
  EXPECT_EQ(show->rows[0][0].string_value(), "ok");
  EXPECT_EQ(call->rows[0][0].string_value(), "ok");
  EXPECT_EQ(call->rows[0][1].int_value(), 0);
  EXPECT_EQ(call->rows[0][2].int_value(), 0);

  auto status = db.Execute("SHOW TRIGGER STATUS");
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_TRUE(status->rows.empty());  // no triggers installed
}

// Pins every introspection route: the SHOW phrases and the CALL pgt.*
// procedures, their exact columns, and their row counts on a fixed state
// (two triggers, one index, an async pool of one worker).
TEST_F(RobustnessTest, EveryIntrospectionRouteAnswersWithItsColumns) {
  EngineOptions o;
  o.async_pool_size = 1;
  Database db(o);
  Exec(db, "CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  Exec(db, "CREATE TRIGGER B DETACHED SET ON 'P'.'v' FOR EACH NODE "
           "WHEN NEW.v > 1 BEGIN CREATE (:Audit) END");
  Exec(db, "CREATE INDEX ON :P(v)");
  Exec(db, "CREATE (:P {v: 1})");
  db.DrainAsync();

  using Columns = std::vector<std::string>;
  const Columns analysis = {"name",  "enabled", "guarded", "monitor", "guard",
                            "writes", "wakes",  "pruned",  "verdict"};
  const Columns status = {"name",         "time",       "enabled",
                          "quarantined",  "failures",   "total_failures",
                          "probes",       "skipped",    "reason",
                          "since_micros", "ivm_mode",   "ivm_tuples",
                          "ivm_bytes",    "ivm_served", "ivm_fallbacks"};
  const Columns indexes = {"name", "kind", "unique", "entries"};
  const Columns async = {"workers",  "queue_depth", "in_flight",
                         "enqueued", "prefiltered", "deferred",
                         "applied",  "spilled",     "rejected"};
  const Columns health = {"mode",        "wal_poison_cause",
                          "quarantined_count",
                          "quarantined", "async_shed",
                          "async_worker_deaths",
                          "armed_fault_points",
                          "ivm_maintained", "ivm_bytes",
                          "ivm_degradations"};
  const Columns ivm_stats = {"trigger_plan_compiles",
                             "trigger_plan_recompiles",
                             "adhoc_plan_recompiles",
                             "states", "maintained", "tuples", "bytes",
                             "served", "fallbacks", "maintain_ops", "seeds",
                             "degradations", "resolutions"};

  struct ShowRoute {
    std::string text;
    Columns columns;
    size_t rows;
  };
  const std::vector<ShowRoute> shows = {
      {"SHOW TRIGGER ANALYSIS", analysis, 2},
      {"SHOW TRIGGER STATUS", status, 2},
      {"SHOW INDEXES", indexes, 1},
      {"SHOW INDEX", indexes, 1},
      {"SHOW ASYNC STATUS", async, 1},
      {"SHOW HEALTH", health, 1},
      {"show health", health, 1},
      {"SHOW TRIGGER STATUS;", status, 2},
  };
  for (const ShowRoute& s : shows) {
    auto r = db.Execute(s.text);
    ASSERT_TRUE(r.ok()) << s.text << " -> " << r.status();
    EXPECT_EQ(r->columns, s.columns) << s.text;
    EXPECT_EQ(r->rows.size(), s.rows) << s.text;
  }

  // Each procedure declares its columns, and yielding all of them returns
  // them in order.
  struct CallRoute {
    std::string name;
    Columns columns;
    size_t rows;
  };
  const std::vector<CallRoute> calls = {
      {"pgt.asyncStats", async, 1},
      {"pgt.health", health, 1},
      {"pgt.ivmStats", ivm_stats, 1},
      {"pgt.analyzeTriggers", {"line"}, 0},
  };
  for (const CallRoute& c : calls) {
    const cypher::ProcedureRegistry::Entry* e = db.procedures().Lookup(c.name);
    ASSERT_NE(e, nullptr) << c.name;
    EXPECT_EQ(e->outputs, c.columns) << c.name;
    std::string list;
    for (const std::string& col : c.columns) {
      if (!list.empty()) list += ", ";
      list += col;
    }
    const std::string q =
        "CALL " + c.name + "() YIELD " + list + " RETURN " + list;
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
    EXPECT_EQ(r->columns, c.columns) << q;
    if (c.rows > 0) EXPECT_EQ(r->rows.size(), c.rows) << q;
    // Standalone, the call returns that same table.
    auto alone = db.Execute("CALL " + c.name + "()");
    ASSERT_TRUE(alone.ok()) << c.name << " -> " << alone.status();
    EXPECT_EQ(alone->columns, r->columns) << c.name;
    ASSERT_EQ(alone->rows.size(), r->rows.size()) << c.name;
    for (size_t i = 0; i < r->rows.size(); ++i) {
      ASSERT_EQ(alone->rows[i].size(), r->rows[i].size()) << c.name;
      for (size_t j = 0; j < r->rows[i].size(); ++j) {
        EXPECT_EQ(alone->rows[i][j].ToString(), r->rows[i][j].ToString())
            << c.name << " row " << i << " column " << r->columns[j];
      }
    }
  }
  // Inside a larger query, a YIELD-less call still passes the row through.
  auto inner = db.Execute("CALL pgt.health() RETURN 1 AS one");
  ASSERT_TRUE(inner.ok()) << inner.status();
  EXPECT_EQ(inner->columns, Columns{"one"});
  EXPECT_EQ(inner->rows.size(), 1u);
  // One line per report line.
  auto lines = db.Execute("CALL pgt.analyzeTriggers() YIELD line RETURN line");
  ASSERT_TRUE(lines.ok()) << lines.status();
  const std::string report = db.AnalyzeTriggers().ToString();
  size_t expected_lines = 0;
  for (size_t start = 0; start < report.size(); ++expected_lines) {
    const size_t end = report.find('\n', start);
    start = end == std::string::npos ? report.size() : end + 1;
  }
  EXPECT_GT(expected_lines, 2u);
  EXPECT_EQ(lines->rows.size(), expected_lines);

  // The SHOW twin of a procedure answers the same row.
  auto show_async = db.Execute("SHOW ASYNC STATUS");
  auto call_async = db.Execute(
      "CALL pgt.asyncStats() YIELD workers, applied RETURN workers, applied");
  ASSERT_TRUE(show_async.ok() && call_async.ok());
  EXPECT_EQ(call_async->rows[0][0].int_value(), 1);
  EXPECT_EQ(show_async->rows[0][0].int_value(), 1);
  EXPECT_EQ(call_async->rows[0][1].int_value(),
            show_async->rows[0][6].int_value());

  // SHOW is refused inside a multi-statement transaction, and an unknown
  // SHOW phrase is an error.
  EXPECT_FALSE(db.ExecuteTx({"SHOW HEALTH"}).ok());
  EXPECT_FALSE(db.Execute("SHOW NOTHING").ok());
}

// --- Fault registry semantics ------------------------------------------------

TEST_F(RobustnessTest, RegistryNthHitAndCounters) {
  auto& reg = FaultRegistry::Global();
  reg.ArmNthHit("test.point", 3);
  EXPECT_TRUE(reg.Hit("test.point").ok());
  EXPECT_TRUE(reg.Hit("test.point").ok());
  EXPECT_FALSE(reg.Hit("test.point").ok());
  EXPECT_TRUE(reg.Hit("test.point").ok());  // one-shot
  EXPECT_EQ(reg.HitCount("test.point"), 4u);
  EXPECT_EQ(reg.FailureCount("test.point"), 1u);
  EXPECT_EQ(reg.ArmedPoints().size(), 1u);
  reg.DisarmAll();
  EXPECT_TRUE(reg.ArmedPoints().empty());
}

TEST_F(RobustnessTest, RegistryProbabilisticIsSeedDeterministic) {
  auto& reg = FaultRegistry::Global();
  auto run = [&](uint64_t seed) {
    reg.ArmProbabilistic("test.p", 0.3, seed);
    std::vector<bool> fails;
    for (int i = 0; i < 64; ++i) fails.push_back(!reg.Hit("test.p").ok());
    reg.Disarm("test.p");
    return fails;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST_F(RobustnessTest, RegistryUnitBudgetShortWrite) {
  auto& reg = FaultRegistry::Global();
  FaultRegistry::FaultSpec s;
  s.unit_budget = 10;
  reg.Arm("test.bytes", std::move(s));
  uint64_t accepted = 7;
  EXPECT_TRUE(reg.Hit("test.bytes", 7, &accepted).ok());
  EXPECT_EQ(accepted, 7u);  // untouched on success
  accepted = 99;
  EXPECT_FALSE(reg.Hit("test.bytes", 7, &accepted).ok());
  EXPECT_EQ(accepted, 3u);  // short write: 3 of 7 fit
  reg.DisarmAll();
}

// --- Async pool fault containment --------------------------------------------

EngineOptions AsyncPool(int workers) {
  EngineOptions o;
  o.async_pool_size = workers;
  o.async_queue_capacity = 4;
  return o;
}

TEST_F(RobustnessTest, DeadAsyncWorkerDoesNotStallTheApplyChain) {
  Database db(AsyncPool(2));
  Exec(db, "CREATE TRIGGER D DETACHED CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  // Kill both workers on their next claims. The claimed items must still
  // be published (unevaluated) so the FIFO drain never stalls, and the
  // pool must hand future commits back to the serial inline path.
  FaultRegistry::Global().Arm("async.worker", [] {
    FaultRegistry::FaultSpec s;
    s.trigger_count = 2;
    return s;
  }());

  for (int i = 0; i < 6; ++i) Exec(db, "CREATE (:P)");
  db.DrainAsync();
  FaultRegistry::Global().DisarmAll();
  EXPECT_EQ(db.async()->Stats().worker_deaths, 2u);

  // Every activation still ran exactly once, dead workers or not.
  for (int i = 0; i < 4; ++i) Exec(db, "CREATE (:P)");
  db.DrainAsync();
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 10);
}

TEST_F(RobustnessTest, InjectedEnqueueAndApplyFailuresShed) {
  Database db(AsyncPool(1));
  Exec(db, "CREATE TRIGGER D DETACHED CREATE ON 'P' FOR EACH NODE "
           "BEGIN CREATE (:Log) END");
  FaultRegistry::Global().ArmNthHit("async.enqueue", 1);
  Exec(db, "CREATE (:P)");  // shed at hand-off
  Exec(db, "CREATE (:P)");  // enqueued normally
  db.DrainAsync();
  FaultRegistry::Global().ArmNthHit("async.apply", 1);
  Exec(db, "CREATE (:P)");  // shed at apply
  db.DrainAsync();
  FaultRegistry::Global().DisarmAll();

  AsyncPoolStats s = db.async()->Stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  // The pool is healthy: subsequent activations flow normally.
  Exec(db, "CREATE (:P)");
  db.DrainAsync();
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN COUNT(*) AS c"), 2);
}

// --- Nesting limit ---------------------------------------------------------
// Statements nested beyond Parser::kMaxNestingDepth come back as
// InvalidArgument from every entry point instead of overflowing the stack
// (a 5,000-deep RETURN used to crash the process).

std::string DeepParens(int depth) {
  return std::string(static_cast<size_t>(depth), '(') + "1" +
         std::string(static_cast<size_t>(depth), ')');
}

TEST_F(RobustnessTest, DeeplyNestedStatementsFailCleanly) {
  Database db;
  for (const std::string& q :
       {"RETURN " + DeepParens(10000),
        "RETURN " + std::string(10000, '[') + "1" + std::string(10000, ']'),
        "CREATE TRIGGER Deep AFTER CREATE ON 'X' FOR EACH NODE WHEN " +
            DeepParens(10000) + " = 1 BEGIN CREATE (:Y) END"}) {
    auto r = db.Execute(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  }
  EXPECT_TRUE(db.catalog().All().empty());
  auto snap = db.OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(db.QueryAt(**snap, "RETURN " + DeepParens(10000)).status().code(),
            StatusCode::kInvalidArgument);
  // Nesting within the limit still runs end to end.
  auto ok = db.Execute("RETURN " + DeepParens(100) + " AS v");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->rows[0][0].int_value(), 1);
}

/// `depth` one-element lists nested around the integer 1.
Value NestedList(int depth) {
  Value v = Value::Int(1);
  for (int i = 0; i < depth; ++i) v = Value::MakeList({std::move(v)});
  return v;
}

TEST_F(RobustnessTest, ParametersNestedPastTheValueDepthCapAreRefused) {
  // Parameters obey the same kMaxValueDepth cap as stored values on every
  // entry point; evaluating an unbounded one used to overflow the stack.
  Database db;
  auto snap = db.OpenSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status();
  const std::string q = "RETURN toString($p) AS s";
  const Params at_cap{{"p", NestedList(kMaxValueDepth)}};
  const Params past_cap{{"p", NestedList(kMaxValueDepth + 1)}};

  EXPECT_TRUE(db.Execute(q, at_cap).ok());
  EXPECT_TRUE(db.ExecuteTx({q}, at_cap).ok());
  EXPECT_TRUE(db.QueryAt(**snap, q, at_cap).ok());

  for (const Status& st : {db.Execute(q, past_cap).status(),
                           db.ExecuteTx({q}, past_cap).status(),
                           db.QueryAt(**snap, q, past_cap).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
    EXPECT_NE(st.message().find("$p"), std::string::npos) << st;
  }
}

// --- Checked integer arithmetic ---------------------------------------------

/// One integer edge: the expression and either its result (rendered) or the
/// text its kTypeError must contain.
struct IntEdge {
  std::string expr;
  std::string value;  // empty: must fail
  std::string error;
};

const std::vector<IntEdge>& IntEdges() {
  static const std::vector<IntEdge> kEdges = {
      {"9223372036854775807 + 1", "", "integer overflow in '+'"},
      {"9223372036854775806 + 1", "9223372036854775807", ""},
      {"-9223372036854775807 - 2", "", "integer overflow in '-'"},
      {"-9223372036854775807 - 1", "-9223372036854775808", ""},
      {"9223372036854775807 * 3", "", "integer overflow in '*'"},
      {"4611686018427387904 * -2", "-9223372036854775808", ""},
      {"(-9223372036854775807 - 1) / -1", "", "integer overflow in '/'"},
      {"(-9223372036854775807 - 1) / 1", "-9223372036854775808", ""},
      {"(-9223372036854775807 - 1) % -1", "0", ""},
      {"7 % -1", "0", ""},
      {"-(-9223372036854775807 - 1)", "", "integer overflow in unary '-'"},
      {"-9223372036854775807", "-9223372036854775807", ""},
      {"abs(-9223372036854775807 - 1)", "", "abs: integer overflow"},
      {"abs(-9223372036854775807)", "9223372036854775807", ""},
      {"range(9223372036854775805, 9223372036854775807, 2)",
       "[9223372036854775805, 9223372036854775807]", ""},
      {"range(-9223372036854775807, -9223372036854775807 - 1, -1)",
       "[-9223372036854775807, -9223372036854775808]", ""},
      {"range(0, -9223372036854775807 - 1, -9223372036854775807 - 1)",
       "[0, -9223372036854775808]", ""},
      {"range(5, 1)", "[]", ""},
      {"range(0, 9223372036854775807)", "", "range: would produce more than"},
  };
  return kEdges;
}

// Signed overflow used to wrap (or, for INT64_MIN / -1 and % -1, kill the
// process with SIGFPE). Each edge answers exactly, or fails the statement
// with a kTypeError naming the operator: ad hoc, and inside a trigger WHEN
// and a trigger action, where the activating transaction rolls back.
TEST_F(RobustnessTest, IntegerOverflowIsATypeErrorEverywhere) {
  for (const IntEdge& e : IntEdges()) {
    SCOPED_TRACE(e.expr);
    Database db;
    auto r = db.Execute("RETURN " + e.expr + " AS v");
    if (!e.value.empty()) {
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->rows[0][0].ToString(), e.value);
      continue;
    }
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << r.status();
    EXPECT_NE(r.status().message().find(e.error), std::string::npos)
        << r.status();

    Exec(db, "CREATE TRIGGER W AFTER CREATE ON 'Probe' FOR EACH NODE "
             "WHEN " + e.expr + " IS NOT NULL BEGIN CREATE (:Fired) END");
    auto when = db.Execute("CREATE (:Probe)");
    ASSERT_FALSE(when.ok());
    EXPECT_EQ(when.status().code(), StatusCode::kTypeError) << when.status();
    EXPECT_NE(when.status().message().find(e.error), std::string::npos)
        << when.status();
    Exec(db, "DROP TRIGGER W");

    Exec(db, "CREATE TRIGGER A AFTER CREATE ON 'Probe' FOR EACH NODE "
             "BEGIN CREATE (:Fired {v: " + e.expr + "}) END");
    auto action = db.Execute("CREATE (:Probe)");
    ASSERT_FALSE(action.ok());
    EXPECT_EQ(action.status().code(), StatusCode::kTypeError)
        << action.status();
    EXPECT_EQ(Count(db, "MATCH (n) RETURN count(n) AS c"), 0);
  }
  // Whole statements that bind the minimum first.
  Database db;
  for (const char* q : {"WITH -9223372036854775807 - 1 AS m RETURN m / -1",
                        "WITH -9223372036854775807 - 1 AS m RETURN -m"}) {
    EXPECT_EQ(db.Execute(q).status().code(), StatusCode::kTypeError) << q;
  }
  auto mod = db.Execute("WITH -9223372036854775807 - 1 AS m RETURN m % -1 AS r");
  ASSERT_TRUE(mod.ok()) << mod.status();
  EXPECT_EQ(mod->rows[0][0].int_value(), 0);
}

}  // namespace
}  // namespace pgt
