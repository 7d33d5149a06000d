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

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/snapshot.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

constexpr int kItems = 64;
constexpr int kWriterCommits = 120;
constexpr int kReaderThreads = 4;
constexpr int kChurnCommits = 20000;

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

}  // namespace
}  // namespace pgt
