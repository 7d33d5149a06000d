// Unit tests for the off-writer ASYNC (DETACHED) execution pool
// (src/trigger/async_executor.*, docs/async.md): strict global FIFO apply
// order, snapshot-pinned WHEN pre-evaluation (prefilter vs deferred),
// blocking backpressure, the DrainAsync barrier, drain-on-close,
// the chain valve for self-sustaining detached cascades, and the
// SHOW ASYNC STATUS / CALL pgt.asyncStats() introspection surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/trigger/async_executor.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

// ---------------------------------------------------------------------------
// Helpers

EngineOptions PoolOptions(int workers, size_t capacity) {
  EngineOptions opts;
  opts.async_pool_size = workers;
  opts.async_queue_capacity = capacity;
  return opts;
}

int64_t Count(Database& db, const std::string& query) {
  auto r = db.Execute(query);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].int_value();
}

/// Log nodes come back in id order, i.e. exactly the order the detached
/// actions were applied.
std::vector<int64_t> IntLog(Database& db) {
  std::vector<int64_t> out;
  auto r = db.Execute("MATCH (l:Log) RETURN l.i");
  EXPECT_TRUE(r.ok()) << r.status();
  for (const auto& row : r->rows) out.push_back(row[0].int_value());
  return out;
}

/// One pgt.asyncStats() row as a name -> value map.
std::map<std::string, int64_t> AsyncStats(Database& db) {
  auto r = db.Execute(
      "CALL pgt.asyncStats() YIELD workers, queue_depth, in_flight, "
      "enqueued, prefiltered, deferred, applied, spilled, rejected "
      "RETURN workers, queue_depth, in_flight, enqueued, prefiltered, "
      "deferred, applied, spilled, rejected");
  EXPECT_TRUE(r.ok()) << r.status();
  std::map<std::string, int64_t> out;
  if (!r.ok() || r->rows.empty()) return out;
  for (size_t i = 0; i < r->columns.size(); ++i) {
    out[r->columns[i]] = r->rows[0][i].int_value();
  }
  return out;
}

void Install(Database& db, const std::string& ddl) {
  auto r = db.Execute(ddl);
  ASSERT_TRUE(r.ok()) << ddl << " -> " << r.status();
}

void Exec(Database& db, const std::string& stmt) {
  auto r = db.Execute(stmt);
  ASSERT_TRUE(r.ok()) << stmt << " -> " << r.status();
}

// ---------------------------------------------------------------------------
// Introspection surface

TEST(AsyncStatus, QueryableWithPoolDisabled) {
  Database db;  // default options: async_pool_size = 0
  auto r = db.Execute("SHOW ASYNC STATUS");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_EQ(r->columns.size(), 9u);
  EXPECT_EQ(r->columns[0], "workers");
  for (const Value& v : r->rows[0]) EXPECT_EQ(v.int_value(), 0);

  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["workers"], 0);
  EXPECT_EQ(stats["enqueued"], 0);
}

TEST(AsyncStatus, ReportsPoolShape) {
  Database db(PoolOptions(2, 64));
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["workers"], 2);
  EXPECT_EQ(stats["queue_depth"], 0);
  db.DrainAsync();
}

// ---------------------------------------------------------------------------
// FIFO apply order

TEST(AsyncPool, AppliesInCommitOrder) {
  Database db(PoolOptions(2, 0));
  Install(db,
          "CREATE TRIGGER Chrono DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  for (int i = 1; i <= 5; ++i) {
    Exec(db, "CREATE (:N {i: " + std::to_string(i) + "})");
  }
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{1, 2, 3, 4, 5}));
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["enqueued"], 5);
  EXPECT_EQ(stats["applied"], 5);
  EXPECT_EQ(stats["queue_depth"], 0);
  EXPECT_EQ(stats["rejected"], 0);
}

TEST(AsyncPool, BatchKeepsDeltaOrder) {
  Database db(PoolOptions(4, 0));
  Install(db,
          "CREATE TRIGGER Chrono DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  // One commit, three activations: they must apply in delta order even
  // with four workers racing over the queue.
  Exec(db, "CREATE (:N {i: 1}), (:N {i: 2}), (:N {i: 3})");
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Snapshot-pinned WHEN pre-evaluation

TEST(AsyncPool, StableEpochPrefiltersNoFireActivations) {
  Database db(PoolOptions(1, 0));
  Install(db,
          "CREATE TRIGGER Guard DETACHED CREATE ON 'N' FOR EACH NODE "
          "WHEN NEW.q > 100 "
          "BEGIN CREATE (:Log {i: NEW.q}) END");

  // capacity 0 drains at every statement boundary, so the pinned
  // epoch is still current when each verdict is applied: a false WHEN is
  // retired off-writer with no autonomous transaction at all.
  Exec(db, "CREATE (:N {q: 1})");
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["prefiltered"], 1);
  EXPECT_EQ(stats["deferred"], 0);
  EXPECT_EQ(Count(db, "MATCH (l:Log) RETURN count(l)"), 0);

  // A passing WHEN is never prefiltered — the action needs the full
  // on-writer autonomous transaction.
  Exec(db, "CREATE (:N {q: 200})");
  stats = AsyncStats(db);
  EXPECT_EQ(stats["prefiltered"], 1);
  EXPECT_EQ(stats["deferred"], 1);
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{200}));

  // The fired action's commit moved the epoch, but the next hand-off pins
  // a fresh snapshot, so its verdict is exact again.
  Exec(db, "CREATE (:N {q: 2})");
  stats = AsyncStats(db);
  EXPECT_EQ(stats["prefiltered"], 2);
  EXPECT_EQ(stats["deferred"], 1);

  // Per-trigger parity with the serial path: every activation considered,
  // only the passing one fired.
  const TriggerStats& ts = db.stats().per_trigger["Guard"];
  EXPECT_EQ(ts.considered, 3u);
  EXPECT_EQ(ts.fired, 1u);
  EXPECT_EQ(ts.errors, 0u);
  EXPECT_EQ(db.stats().detached_runs, 3u);
}

TEST(AsyncPool, DeleteSourcesAlwaysDefer) {
  // Deleted-item images resolve through transaction ghosts a snapshot
  // cannot carry, so delete-sourced activations skip pre-evaluation and
  // take the full on-writer run (which re-injects the ghosts).
  Database db(PoolOptions(1, 0));
  Install(db,
          "CREATE TRIGGER Tomb DETACHED DELETE ON 'N' FOR EACH NODE "
          "WHEN OLD.q = 1 "
          "BEGIN CREATE (:Log {i: OLD.q}) END");
  Exec(db, "CREATE (:N {q: 1})");
  Exec(db, "MATCH (n:N) DELETE n");
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["prefiltered"], 0);
  EXPECT_EQ(stats["deferred"], 1);
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{1}));
}

TEST(AsyncPool, OverlappedCommitsStayExact) {
  // With a deep queue the writer runs ahead of the pool; pre-evaluated
  // verdicts whose pinned epoch went stale must fall back to the full run.
  // Every activation is accounted for exactly once either way.
  Database db(PoolOptions(2, 1024));
  Install(db,
          "CREATE TRIGGER Guard DETACHED CREATE ON 'N' FOR EACH NODE "
          "WHEN NEW.q % 2 = 0 "
          "BEGIN CREATE (:Log {i: NEW.q}) END");
  for (int i = 1; i <= 20; ++i) {
    Exec(db, "CREATE (:N {q: " + std::to_string(i) + "})");
  }
  db.DrainAsync();
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["enqueued"], 20);
  EXPECT_EQ(stats["applied"], 20);
  EXPECT_EQ(stats["prefiltered"] + stats["deferred"], 20);
  EXPECT_EQ(stats["queue_depth"], 0);
  // The WHEN depends only on the transition environment, so the firing set
  // is the same no matter when each verdict was computed.
  EXPECT_EQ(IntLog(db),
            (std::vector<int64_t>{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}));
  EXPECT_EQ(db.stats().per_trigger["Guard"].fired, 10u);
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(AsyncPool, BoundaryBlocksUntilQueueIsWithinCapacity) {
  // Each statement returns only once the workers have drained the queue to
  // at most the capacity, so a read between statements never sees more.
  // Nothing is dropped and the writer never applies pool work itself.
  Database db(PoolOptions(1, 2));
  Install(db,
          "CREATE TRIGGER Chrono DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  for (int i = 1; i <= 6; ++i) {
    Exec(db, "CREATE (:N {i: " + std::to_string(i) + "})");
    EXPECT_LE(AsyncStats(db)["queue_depth"], 2);
  }
  db.DrainAsync();
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{1, 2, 3, 4, 5, 6}));
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["enqueued"], 6);
  EXPECT_EQ(stats["applied"], 6);
  EXPECT_EQ(stats["rejected"], 0);
  EXPECT_EQ(stats["spilled"], 0);
}

// ---------------------------------------------------------------------------
// Barriers and shutdown

TEST(AsyncPool, DrainAsyncIsABarrier) {
  Database db(PoolOptions(1, 1024));
  Install(db,
          "CREATE TRIGGER Chrono DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  for (int i = 1; i <= 10; ++i) {
    Exec(db, "CREATE (:N {i: " + std::to_string(i) + "})");
  }
  db.DrainAsync();
  ASSERT_NE(db.async(), nullptr);
  EXPECT_TRUE(db.async()->Idle());
  EXPECT_EQ(IntLog(db),
            (std::vector<int64_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["applied"], 10);
  EXPECT_EQ(stats["queue_depth"], 0);
}

TEST(AsyncPool, DdlQuiescesQueuedWork) {
  // DROP TRIGGER fences on the pool: activations of the dropped trigger
  // that are already queued still apply, before the drop takes effect.
  Database db(PoolOptions(1, 1024));
  Install(db,
          "CREATE TRIGGER Doomed DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  Exec(db, "CREATE (:N {i: 7})");
  Exec(db, "DROP TRIGGER Doomed");
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{7}));
  // And the trigger really is gone afterwards.
  Exec(db, "CREATE (:N {i: 8})");
  db.DrainAsync();
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{7}));
}

TEST(AsyncPool, CloseDrainsAndFallsBackToSerial) {
  Database db(PoolOptions(1, 1024));
  Install(db,
          "CREATE TRIGGER Chrono DETACHED CREATE ON 'N' FOR EACH NODE "
          "BEGIN CREATE (:Log {i: NEW.i}) END");
  for (int i = 1; i <= 4; ++i) {
    Exec(db, "CREATE (:N {i: " + std::to_string(i) + "})");
  }
  // Close() drains the queue and stops the workers.
  ASSERT_TRUE(db.Close().ok());
  EXPECT_EQ(db.stats().detached_runs, 4u);
  // A stopped pool no longer accepts hand-offs; detached execution falls
  // back to the legacy on-writer serial drain — losslessly.
  Exec(db, "CREATE (:N {i: 5})");
  EXPECT_EQ(IntLog(db), (std::vector<int64_t>{1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// Chain valve

TEST(AsyncPool, ChainValveCutsSelfSustainingCascade) {
  // A detached trigger on :A that creates another :A would re-activate
  // itself forever. The serial drain errors the activating committer; the
  // pool has no committer left to error to, so the valve drops the chain
  // at kMaxDetachedQueue applies and counts the drop.
  constexpr int64_t kLimit = PgTriggerEngine::kMaxDetachedQueue;
  Database db(PoolOptions(1, 0));
  Install(db,
          "CREATE TRIGGER Ouro DETACHED CREATE ON 'A' FOR EACH NODE "
          "BEGIN CREATE (:A) END");
  Exec(db, "CREATE (:A)");
  // Seed node + one node per allowed chain apply.
  EXPECT_EQ(Count(db, "MATCH (a:A) RETURN count(a)"), kLimit + 1);
  std::map<std::string, int64_t> stats = AsyncStats(db);
  EXPECT_EQ(stats["rejected"], 1);
  EXPECT_EQ(stats["applied"], kLimit);
  EXPECT_EQ(stats["enqueued"], kLimit + 1);
  // A fresh writer hand-off resets the valve: the next chain gets its own
  // full allowance.
  Exec(db, "CREATE (:A)");
  EXPECT_EQ(Count(db, "MATCH (a:A) RETURN count(a)"), 2 * (kLimit + 1));
  stats = AsyncStats(db);
  EXPECT_EQ(stats["rejected"], 2);
}

}  // namespace
}  // namespace pgt
