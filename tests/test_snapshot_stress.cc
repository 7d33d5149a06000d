// Multi-threaded snapshot reader stress: N reader threads run QueryAt
// against pinned snapshots while the single writer commits a mutation
// workload. Run under ASan/UBSan and TSan in CI (the TSan job exists for
// this suite: the reader hot path is lock-free by design and the sanitizer
// proves it race-free).
//
// Invariant checked by every reader on every snapshot: the writer only
// commits states where each Item node satisfies a + b == 100 (both
// properties are reassigned in one statement, i.e. one commit). A reader
// observing a mix of two commits — or a torn read — breaks the invariant.
//
// Reclamation is writer-only: readers' releases free nothing, and the
// writer frees what they held after its next publish. Freeing a version a
// live reader can still reach shows up as a use-after-free under ASan and
// a race under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/snapshot.h"
#include "src/trigger/database.h"
#include "tests/snapshot_checks.h"

namespace pgt {
namespace {

constexpr int kItems = 64;
constexpr int kWriterCommits = 120;
constexpr int kReaderThreads = 4;
constexpr int kChurnCommits = 20000;
constexpr int kDeleteChurnRounds = 3000;

class SnapshotStressTest : public ::testing::Test {
 protected:
  void Run(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }

  Database db_;
};

TEST_F(SnapshotStressTest, ConcurrentReadersWhileWriterCommits) {
  for (int i = 0; i < kItems; ++i) {
    Run("CREATE (:Item {k: " + std::to_string(i) + ", a: 100, b: 0})");
  }
  // Arm the substrate on the writer thread before any reader exists.
  ASSERT_TRUE(db_.OpenSnapshot().ok());

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::atomic<int> invariant_breaks{0};
  std::atomic<long> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaderThreads);
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      // Keep reading until the writer is done AND this reader performed a
      // minimum amount of work (on a loaded single-core host the writer
      // can otherwise finish before a reader gets scheduled at all).
      for (long my_reads = 0;
           !done.load(std::memory_order_acquire) || my_reads < 5;) {
        auto snap = db_.store().OpenSnapshot();
        if (snap == nullptr) {
          ++reader_errors;
          continue;
        }
        auto r = db_.QueryAt(
            *snap,
            "MATCH (i:Item) "
            "RETURN count(i) AS c, sum(i.a) AS sa, sum(i.b) AS sb");
        if (!r.ok()) {
          ++reader_errors;
          continue;
        }
        const auto& row = r.value().rows[0];
        const int64_t c = row[0].int_value();
        const int64_t total = row[1].int_value() + row[2].int_value();
        if (c != kItems || total != 100 * kItems) ++invariant_breaks;
        // Point reads through the same snapshot must agree with it too.
        auto one = db_.QueryAt(
            *snap, "MATCH (i:Item {k: 3}) RETURN i.a + i.b AS s");
        if (!one.ok() || one.value().rows.size() != 1 ||
            one.value().rows[0][0].int_value() != 100) {
          ++invariant_breaks;
        }
        ++my_reads;
        ++reads;
      }
    });
  }

  // Writer: rebalance a and b (one statement = one commit), with periodic
  // churn that creates and detach-deletes extra nodes and relationships so
  // creation, deletion, label-bucket, and adjacency publication are all
  // exercised under concurrency.
  for (int i = 0; i < kWriterCommits; ++i) {
    const int k = i % kItems;
    const int a = (i * 37) % 101;
    Run("MATCH (i:Item {k: " + std::to_string(k) + "}) SET i.a = " +
        std::to_string(a) + ", i.b = " + std::to_string(100 - a));
    if (i % 10 == 0) {
      Run("CREATE (:Scratch {round: " + std::to_string(i) + "})");
      Run("MATCH (s:Scratch), (i:Item {k: 1}) CREATE (s)-[:Touches]->(i)");
      Run("MATCH (s:Scratch) DETACH DELETE s");
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(invariant_breaks.load(), 0);
  EXPECT_GT(reads.load(), 0);

  // With every snapshot released, commit-time GC empties the sidecar.
  Run("MATCH (i:Item {k: 0}) SET i.a = 100, i.b = 0");
  EXPECT_EQ(db_.store().snapshots().SidecarVersions(), 0u);
}

TEST_F(SnapshotStressTest, ReadersPinningDistinctEpochsStayConsistent) {
  for (int i = 0; i < 8; ++i) {
    Run("CREATE (:Gen {v: 0})");
  }
  ASSERT_TRUE(db_.OpenSnapshot().ok());

  // Writer bumps a generation counter; readers grab snapshots at random
  // points and verify every node agrees on the generation within one
  // snapshot (all 8 are updated in a single commit).
  std::atomic<bool> done{false};
  std::atomic<int> breaks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      std::vector<std::shared_ptr<const GraphSnapshot>> held;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = db_.store().OpenSnapshot();
        if (snap == nullptr) continue;
        auto r = db_.QueryAt(
            *snap, "MATCH (g:Gen) RETURN min(g.v) AS lo, max(g.v) AS hi");
        if (!r.ok() || r.value().rows[0][0].int_value() !=
                           r.value().rows[0][1].int_value()) {
          ++breaks;
        }
        // Hold a few snapshots to force multi-epoch sidecar chains.
        if (held.size() < 4) held.push_back(std::move(snap));
      }
      for (auto& s : held) {
        auto r = db_.QueryAt(
            *s, "MATCH (g:Gen) RETURN min(g.v) AS lo, max(g.v) AS hi");
        if (!r.ok() || r.value().rows[0][0].int_value() !=
                           r.value().rows[0][1].int_value()) {
          ++breaks;
        }
      }
    });
  }
  for (int i = 1; i <= 60; ++i) {
    Run("MATCH (g:Gen) SET g.v = " + std::to_string(i));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(breaks.load(), 0);
}

// Regression: SnapshotManager::Open used to self-deadlock. It looked up the
// cached latest snapshot while holding its mutex; when that snapshot was
// stale and every other holder released it in the meantime, the lookup's
// temporary was the last reference, and its destructor's unpin re-locked
// the mutex. Readers here do nothing but open and release snapshots while
// the writer commits, which makes that interleaving routine; a hang fails
// the suite through its ctest TIMEOUT.
TEST_F(SnapshotStressTest, OpenReleaseChurnWhileWriterCommits) {
  Run("CREATE (:Tick {v: 0})");
  ASSERT_TRUE(db_.OpenSnapshot().ok());

  std::atomic<bool> done{false};
  std::atomic<long> opens{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      for (long mine = 0; !done.load(std::memory_order_acquire) || mine < 5;
           ++mine) {
        std::shared_ptr<const GraphSnapshot> snap = db_.store().OpenSnapshot();
        if (snap == nullptr) continue;
        opens.fetch_add(1, std::memory_order_relaxed);
        // Hold it briefly (a spin the compiler must keep), so releases
        // land while other readers are inside Open.
        for (int spin = 0; spin < 512; ++spin) {
          std::atomic_signal_fence(std::memory_order_seq_cst);
        }
      }
    });
  }
  for (int i = 1; i <= kChurnCommits; ++i) {
    Run("MATCH (t:Tick) SET t.v = " + std::to_string(i));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_GE(opens.load(), kReaderThreads * 5L);
  auto snap = db_.OpenSnapshot();
  ASSERT_TRUE(snap.ok());
  auto r = db_.QueryAt(**snap, "MATCH (t:Tick) RETURN t.v AS v");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].int_value(), kChurnCommits);
}

// Readers open, query and release snapshots in a loop while the writer
// commits updates plus create/delete churn; their releases only uncount
// pins. One writer commit after they stop frees every banked record and
// posting version, and the heads it leaves agree with the live store.
TEST_F(SnapshotStressTest, ReleasedPinsAreReclaimedByTheNextWriterCommit) {
  Run("CREATE INDEX ON :Item(a)");
  Run("CREATE RANGE INDEX ON :Churn(r)");
  for (int i = 0; i < kItems; ++i) {
    Run("CREATE (:Item {k: " + std::to_string(i) + ", a: 100, b: 0})");
  }
  ASSERT_TRUE(db_.OpenSnapshot().ok());

  std::atomic<bool> done{false};
  std::atomic<int> breaks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&] {
      for (long mine = 0; !done.load(std::memory_order_acquire) || mine < 5;
           ++mine) {
        std::shared_ptr<const GraphSnapshot> snap = db_.store().OpenSnapshot();
        if (snap == nullptr) {
          ++breaks;
          continue;
        }
        auto sums = db_.QueryAt(
            *snap, "MATCH (i:Item) RETURN count(i) AS c, sum(i.a + i.b) AS s");
        if (!sums.ok() || sums->rows[0][0].int_value() != kItems ||
            sums->rows[0][1].int_value() != 100 * kItems) {
          ++breaks;
        }
        // Index probes resolve posting chains at the pinned epoch.
        auto probe = db_.QueryAt(
            *snap, "MATCH (i:Item) WHERE i.a = 100 RETURN count(i) AS c");
        if (!probe.ok()) ++breaks;
        auto churn = db_.QueryAt(
            *snap, "MATCH (c:Churn) WHERE c.r >= 0 RETURN count(c) AS c");
        if (!churn.ok()) ++breaks;
      }
    });
  }
  for (int i = 0; i < kWriterCommits * 4; ++i) {
    const int a = (i * 37) % 101;
    Run("MATCH (i:Item {k: " + std::to_string(i % kItems) + "}) SET i.a = " +
        std::to_string(a) + ", i.b = " + std::to_string(100 - a));
    if (i % 4 == 0) {
      Run("CREATE (:Churn {r: " + std::to_string(i % 7) + "})");
      Run("MATCH (c:Churn), (i:Item {k: 2}) CREATE (c)-[:Touches]->(i)");
    }
    if (i % 12 == 0) Run("MATCH (c:Churn) WHERE c.r < 3 DETACH DELETE c");
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(breaks.load(), 0);

  const SnapshotManager& mgr = db_.store().snapshots();
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  Run("MATCH (i:Item {k: 0}) SET i.a = 100, i.b = 0");
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(mgr.IndexSidecarVersions(), 0u);

  ExpectHeadsMatchLive(db_, "after the readers");
}

// Deleted records stop holding memory: 2 readers pin and release snapshots
// while the writer creates and detach-deletes nodes and relationships, so
// dead heads are unlinked and freed while readers hold them. Each reader
// resolves every node id of its snapshot, runs a query, then reads the
// versions it resolved again: a snapshot keeps every version it resolved
// valid, so a head freed under a pin is a use-after-free under ASan (and a
// race under TSan). One pin is held across a delete for part of the churn.
TEST_F(SnapshotStressTest, DeleteChurnRetiresDeadVersions) {
  Run("CREATE (:Keeper {k: 7})");
  Run("CREATE (:Item {k: 0, a: 100, b: 0})");
  ASSERT_TRUE(db_.OpenSnapshot().ok());
  const NodeId keeper{0};

  std::atomic<bool> done{false};
  std::atomic<int> breaks{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<std::pair<const NodeVersion*, bool>> seen;
      for (long mine = 0; !done.load(std::memory_order_acquire) || mine < 5;
           ++mine) {
        std::shared_ptr<const GraphSnapshot> snap = db_.store().OpenSnapshot();
        if (snap == nullptr) {
          ++breaks;
          continue;
        }
        seen.clear();
        for (uint64_t id = 0; id < snap->NodeIdBound(); ++id) {
          const NodeVersion* v = snap->Node(NodeId{id});
          if (v != nullptr) seen.emplace_back(v, v->alive);
        }
        // Every pair commits whole: two endpoints with v = 1, a tie w = 2.
        auto pairs = db_.QueryAt(
            *snap, "MATCH (a:Churn)-[t:Tie]->(b:Churn) "
                   "RETURN count(t) AS c, sum(a.v + b.v + t.w) AS s");
        if (!pairs.ok() ||
            pairs->rows[0][1].int_value() != 4 * pairs->rows[0][0].int_value()) {
          ++breaks;
        }
        for (const auto& [v, alive] : seen) {
          if (v->alive != alive || (alive && v->props.empty())) ++breaks;
        }
      }
    });
  }
  std::shared_ptr<const GraphSnapshot> held;
  for (int i = 0; i < kDeleteChurnRounds; ++i) {
    Run("CREATE (:Churn {v: 1})-[:Tie {w: 2}]->(:Churn {v: 1})");
    if (i % 3 == 2) Run("MATCH (c:Churn) DETACH DELETE c");
    if (i == kDeleteChurnRounds / 4) {
      held = db_.store().OpenSnapshot();
      Run("MATCH (k:Keeper) DELETE k");
    }
    if (i == kDeleteChurnRounds / 2) {
      // The pin held across the delete still reads the node and its props
      // (no ASSERT here: the readers must be joined first).
      const NodeVersion* k = held->Node(keeper);
      EXPECT_TRUE(k != nullptr && k->alive);
      auto kept = db_.QueryAt(*held, "MATCH (k:Keeper) RETURN k.k AS k");
      EXPECT_TRUE(kept.ok() && kept->rows.size() == 1 &&
                  kept->rows[0][0].int_value() == 7)
          << (kept.ok() ? kept->ToTable() : kept.status().ToString());
      held.reset();
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(breaks.load(), 0);

  const SnapshotManager& mgr = db_.store().snapshots();
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  Run("MATCH (i:Item {k: 0}) SET i.a = 99, i.b = 1");
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(mgr.DeadVersions(), 0u);

  // Deleted ids read as absent at new pins, and their live tombstones are
  // empty; a dead relationship keeps only its type and endpoints.
  const GraphStore& store = db_.store();
  std::shared_ptr<const GraphSnapshot> now = db_.store().OpenSnapshot();
  size_t dead_nodes = 0;
  for (uint64_t id = 0; id < store.NodeIdBound(); ++id) {
    const NodeRecord* n = store.GetNode(NodeId{id});
    if (n->alive) continue;
    ++dead_nodes;
    EXPECT_EQ(now->Node(NodeId{id}), nullptr) << "node " << id;
    EXPECT_TRUE(n->labels.empty() && n->props.empty() &&
                n->out_rels.empty() && n->in_rels.empty())
        << "node " << id;
  }
  EXPECT_GT(dead_nodes, 0u);
  for (uint64_t id = 0; id < store.RelIdBound(); ++id) {
    const RelRecord* r = store.GetRel(RelId{id});
    if (r->alive) continue;
    EXPECT_FALSE(now->RelAlive(RelId{id}));
    EXPECT_TRUE(r->props.empty()) << "rel " << id;
  }
  now.reset();
  ExpectHeadsMatchLive(db_, "after the churn");
}

// The introspection counters are read off the writer thread: bench_e2e's
// driver polls them between its own commits while the async pool's
// DETACHED actions publish (and reclaim) on a pool thread, and index DDL
// swaps the committed image. Under TSan, a count that reads the
// writer-owned queues or the image pointer unsynchronized is a race.
TEST(SnapshotIntrospectionTest, CountersAreSafeWhileThePoolPublishes) {
  EngineOptions opts;
  opts.async_pool_size = 1;
  Database db(opts);  // a pool arms the snapshot substrate up front
  auto run = [&db](const std::string& q) {
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  };
  run("CREATE INDEX ON :Mirror(v)");
  run("CREATE (:Mirror {v: 0}), (:Acct {bal: 0})");
  run("CREATE TRIGGER Copy DETACHED SET ON 'Acct'.'bal' FOR EACH NODE "
      "BEGIN MATCH (m:Mirror) SET m.v = NEW.bal % 5 END");

  std::atomic<bool> done{false};
  std::atomic<long> polls{0};
  std::atomic<size_t> seen_max{0};
  std::thread poller([&] {
    const SnapshotManager& mgr = db.store().snapshots();
    for (long mine = 0; !done.load(std::memory_order_acquire) || mine < 5;
         ++mine) {
      const size_t n = mgr.SidecarVersions() + mgr.IndexSidecarVersions() +
                       mgr.PinnedSnapshots();
      if (n > seen_max.load(std::memory_order_relaxed)) {
        seen_max.store(n, std::memory_order_relaxed);
      }
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // A pin held across the loop makes the pool's publishes bank versions.
  auto opened = db.OpenSnapshot();
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<const GraphSnapshot> held = std::move(opened).value();
  for (int i = 1; i <= 400; ++i) {
    run("MATCH (a:Acct) SET a.bal = " + std::to_string(i));
    if (i % 50 == 0) {
      run("DROP INDEX ON :Mirror(v)");
      run("CREATE INDEX ON :Mirror(v)");
    }
  }
  db.DrainAsync();
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(polls.load(), 0);
  EXPECT_GT(seen_max.load(), 0u);

  const SnapshotManager& mgr = db.store().snapshots();
  EXPECT_GT(mgr.SidecarVersions(), 0u);
  held.reset();
  db.DrainAsync();  // an idle writer step reclaims what the pin held
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(mgr.IndexSidecarVersions(), 0u);
  auto r = db.Execute("MATCH (m:Mirror) RETURN m.v AS v");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->rows[0][0].int_value(), 400 % 5);
}

}  // namespace
}  // namespace pgt
