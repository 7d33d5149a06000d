// Acceptance differential for off-writer ASYNC execution (docs/async.md):
// with the queue drained at every statement boundary (capacity 0), a
// pool-enabled database must produce byte-identical final graph
// state, per-trigger firing order, and per-trigger stats to the legacy
// on-writer serial drain — for any pool size. The only documented
// divergences are engine-global counters the prefilter path skips
// (committed_transactions / statements for no-fire detached runs), which
// this suite deliberately does not compare.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/trigger/database.h"

namespace pgt {
namespace {

// ---------------------------------------------------------------------------
// Workload

/// Detached triggers spanning both granularities, expression and pipeline
/// WHEN conditions, delete sources (ghost images), a two-level detached
/// cascade, a contained runtime error, and a plain AFTER trigger running
/// alongside. `global_when` adds a trigger whose WHEN reads global graph
/// state — exact only when the queue drains at every boundary.
void InstallTriggers(Database& db, bool global_when) {
  std::vector<std::string> ddls = {
      "CREATE TRIGGER T1guard DETACHED CREATE ON 'M' FOR EACH NODE "
      "WHEN NEW.p > 2 "
      "BEGIN CREATE (:Log {t: 'T1'}) END",
      "CREATE TRIGGER T2all DETACHED CREATE ON 'M' FOR ALL NODES "
      "BEGIN CREATE (:Log {t: 'T2'}) END",
      "CREATE TRIGGER T3set DETACHED SET ON 'M'.'p' FOR EACH NODE "
      "WHEN OLD.p <> NEW.p "
      "BEGIN CREATE (:Log {t: 'T3'}) END",
      "CREATE TRIGGER T4del DETACHED DELETE ON 'M' FOR EACH NODE "
      "WHEN OLD.p = 1 "
      "BEGIN CREATE (:Log {t: 'T4'}) END",
      "CREATE TRIGGER T5chain DETACHED CREATE ON 'Log' FOR ALL NODES "
      "BEGIN CREATE (:Chain) END",
      "CREATE TRIGGER T6chain DETACHED CREATE ON 'Chain' FOR EACH NODE "
      "BEGIN CREATE (:ChainDone) END",
      "CREATE TRIGGER T7after AFTER CREATE ON 'M' FOR EACH NODE "
      "BEGIN CREATE (:Aft) END",
      "CREATE TRIGGER T9err DETACHED CREATE ON 'E' FOR EACH NODE "
      "BEGIN MATCH (x:NoSuchLabel) CALL no.such.proc() YIELD v RETURN v END",
  };
  if (global_when) {
    ddls.push_back(
        "CREATE TRIGGER T8seed DETACHED CREATE ON 'Q' FOR EACH NODE "
        "WHEN MATCH (s:Seed) "
        "BEGIN CREATE (:Log {t: 'T8'}) END");
  }
  for (const std::string& ddl : ddls) {
    auto r = db.Execute(ddl);
    ASSERT_TRUE(r.ok()) << ddl << " -> " << r.status();
  }
}

void RunWorkload(Database& db, bool global_when) {
  std::vector<std::string> statements = {
      "CREATE (:M {p: 1})",
      "CREATE (:M {p: 3}), (:M {p: 5})",
      "MATCH (m:M) WHERE m.p = 3 SET m.p = 4",
      "MATCH (m:M) WHERE m.p = 1 DELETE m",
      "CREATE (:E {oops: 1})",
      "CREATE (:M {p: 10})",
  };
  if (global_when) {
    // Before the :Seed exists T8seed must not fire; afterwards it must.
    statements.insert(statements.begin() + 2, "CREATE (:Q {z: 1})");
    statements.insert(statements.begin() + 3, "CREATE (:Seed)");
    statements.insert(statements.begin() + 4, "CREATE (:Q {z: 2})");
  }
  for (const std::string& stmt : statements) {
    auto r = db.Execute(stmt);
    ASSERT_TRUE(r.ok()) << stmt << " -> " << r.status();
  }
}

// ---------------------------------------------------------------------------
// Signatures

int64_t Count(Database& db, const std::string& query) {
  auto r = db.Execute(query);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].int_value();
}

/// Everything the differential compares, canonically stringified: the
/// firing order (Log nodes in id order), final per-label node counts, and
/// the per-trigger counters plus detached_runs.
struct Signature {
  std::string firing_order;
  std::string counts;
  std::string stats;

  bool operator==(const Signature& o) const {
    return firing_order == o.firing_order && counts == o.counts &&
           stats == o.stats;
  }
};

Signature Capture(Database& db) {
  Signature sig;
  {
    std::ostringstream os;
    auto r = db.Execute("MATCH (l:Log) RETURN l.t");
    EXPECT_TRUE(r.ok()) << r.status();
    for (const auto& row : r->rows) os << row[0].string_value() << ",";
    sig.firing_order = os.str();
  }
  {
    std::ostringstream os;
    for (const char* label :
         {"M", "Log", "Chain", "ChainDone", "Aft", "E", "Q", "Seed"}) {
      os << label << "="
         << Count(db, std::string("MATCH (n:") + label + ") RETURN count(n)")
         << ";";
    }
    sig.counts = os.str();
  }
  {
    std::ostringstream os;
    for (const auto& [name, ts] : db.stats().per_trigger) {
      os << name << "{c=" << ts.considered << ",f=" << ts.fired
         << ",r=" << ts.action_rows << ",e=" << ts.errors << "};";
    }
    os << "detached_runs=" << db.stats().detached_runs;
    sig.stats = os.str();
  }
  return sig;
}

Signature RunMode(const EngineOptions& opts, bool global_when) {
  Database db(opts);
  InstallTriggers(db, global_when);
  RunWorkload(db, global_when);
  db.DrainAsync();
  return Capture(db);
}

EngineOptions PoolOptions(int workers, size_t capacity) {
  EngineOptions opts;
  opts.async_pool_size = workers;
  opts.async_queue_capacity = capacity;
  return opts;
}

// ---------------------------------------------------------------------------
// The differential

class AsyncDifferential : public ::testing::Test {
 protected:
  void SetUp() override {
    serial_ = RunMode(EngineOptions{}, /*global_when=*/true);
    // The workload actually exercised every path it claims to.
    EXPECT_NE(serial_.firing_order.find("T4"), std::string::npos);
    EXPECT_NE(serial_.firing_order.find("T8"), std::string::npos);
    EXPECT_NE(serial_.stats.find("T9err{c=1,f=1,r=1,e=1}"),
              std::string::npos)
        << serial_.stats;
  }

  Signature serial_;
};

TEST_F(AsyncDifferential, PoolOfOneBlockMatchesSerial) {
  EXPECT_EQ(RunMode(PoolOptions(1, 0), true),
            serial_);
}

TEST_F(AsyncDifferential, PoolOfFourBlockMatchesSerial) {
  EXPECT_EQ(RunMode(PoolOptions(4, 0), true),
            serial_);
}

TEST(AsyncDifferentialOverlapped, DeepQueueMatchesSerialModuloInterleaving) {
  // With a deep queue the pool runs behind the writer, so detached Log
  // nodes interleave differently with the writer's own nodes — but the
  // firing order among detached activations, the final state, and the
  // per-trigger stats are still identical as long as every WHEN depends
  // only on its transition environment (global_when=false drops T8seed,
  // whose evaluation-time-dependent verdict is inherent ASYNC semantics,
  // not a pool artifact — docs/async.md).
  Signature serial = RunMode(EngineOptions{}, /*global_when=*/false);
  Signature pooled =
      RunMode(PoolOptions(2, 1024), false);
  EXPECT_EQ(pooled, serial);
}

}  // namespace
}  // namespace pgt
