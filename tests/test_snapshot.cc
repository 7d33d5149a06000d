// Snapshot read substrate (src/storage/snapshot.h, docs/snapshots.md):
//  * differential suite — every corpus query returns byte-identical results
//    run live (Execute, read-only fast path) and via a snapshot pinned
//    right after the same commit;
//  * epoch pinning — a snapshot opened before a mutation keeps reading the
//    prior image while the live store (and newer snapshots) move on;
//  * sidecar lifetime — superseded versions are banked only while an older
//    snapshot can still observe them, and the writer frees them at its
//    first commit after the release (a release by itself frees nothing);
//  * read-only routing — QueryAt rejects writes/CALL/clock functions, and
//    Database::Execute runs read-only statements without a transaction;
//  * versioned index postings — after every commit of a randomized
//    workload, each band's head equals the live index, and earlier pins
//    keep their epoch's postings; superseded record and posting versions
//    are reclaimed in epoch order however pins are released.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/snapshot.h"
#include "src/storage/store_view.h"
#include "src/trigger/database.h"
#include "tests/snapshot_checks.h"

namespace pgt {
namespace {

std::string Render(const cypher::QueryResult& r) {
  std::string out;
  for (const std::string& c : r.columns) out += c + "|";
  out += "\n";
  for (const auto& row : r.rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

class SnapshotTest : public ::testing::Test {
 protected:
  cypher::QueryResult Run(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }

  std::shared_ptr<const GraphSnapshot> Snap() {
    auto s = db_.OpenSnapshot();
    EXPECT_TRUE(s.ok()) << s.status();
    return s.ok() ? std::move(s).value() : nullptr;
  }

  cypher::QueryResult RunAt(const GraphSnapshot& snap, const std::string& q) {
    auto r = db_.QueryAt(snap, q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }

  Database db_;
};

// The read-only corpus both differential tests run. Exercises label scans,
// full scans, property predicates, joins, optional match, variable-length
// paths, aggregation, ORDER BY / SKIP / LIMIT, EXISTS, label tests, and
// entity-returning projections.
const char* kCorpus[] = {
    "MATCH (n) RETURN count(n) AS c",
    "MATCH (p:Person) RETURN p.name AS name ORDER BY name",
    "MATCH (p:Person) WHERE p.age > 30 RETURN p.name AS n ORDER BY n",
    "MATCH (p:Person {name: 'ann'})-[k:Knows]->(q) "
    "RETURN q.name AS n, k.since AS s ORDER BY n",
    "MATCH (a:Person {name: 'ann'})-[:Knows*1..3]->(p) "
    "RETURN DISTINCT p.name AS name ORDER BY name",
    "MATCH (p:Person) OPTIONAL MATCH (p)-[:WorksAt]->(co:Company) "
    "RETURN p.name AS name, co.name AS employer ORDER BY name",
    "MATCH (p:Person)-[:WorksAt]->(co:Company) "
    "WITH co.name AS employer, count(p) AS headcount, avg(p.age) AS avg_age "
    "RETURN employer, headcount, avg_age ORDER BY employer",
    "MATCH (p:Person) WHERE EXISTS { (p)-[:Knows]->(:Person) } "
    "RETURN p.name AS n ORDER BY n",
    "MATCH (n:Person) RETURN labels(n) AS ls, keys(n) AS ks, n.name AS name "
    "ORDER BY name SKIP 1 LIMIT 2",
    "MATCH (a)-[r]->(b) RETURN type(r) AS t, count(*) AS c ORDER BY t",
    "UNWIND [1, 2, 3] AS x RETURN x * 2 AS y ORDER BY y DESC",
    "MATCH (p:Person) WHERE p.name STARTS WITH 'a' OR p.age < 25 "
    "RETURN p AS node, id(p) AS pid ORDER BY pid",
    "MATCH (x:Nope) RETURN count(x) AS c",
};

// Mutating workload applied statement by statement; after each commit the
// differential suite re-checks the full corpus live vs. snapshot.
const char* kWorkload[] = {
    "CREATE (:Person {name: 'ann', age: 34}), (:Person {name: 'bob', "
    "age: 28}), (:Person {name: 'cat', age: 41})",
    "CREATE (:Person {name: 'dan', age: 23}), (:Person {name: 'eve', "
    "age: 51})",
    "MATCH (a:Person {name: 'ann'}), (b:Person {name: 'bob'}) "
    "CREATE (a)-[:Knows {since: 2015}]->(b)",
    "MATCH (a:Person {name: 'ann'}), (c:Person {name: 'cat'}) "
    "CREATE (a)-[:Knows {since: 2018}]->(c)",
    "MATCH (b:Person {name: 'bob'}), (d:Person {name: 'dan'}) "
    "CREATE (b)-[:Knows {since: 2020}]->(d)",
    "CREATE (:Company {name: 'Initech'}), (:Company {name: 'Hooli'})",
    "MATCH (p:Person), (co:Company {name: 'Initech'}) "
    "WHERE p.name IN ['ann', 'bob'] CREATE (p)-[:WorksAt]->(co)",
    "MATCH (p:Person {name: 'eve'}) SET p.age = 52, p.city = 'basel'",
    "MATCH (p:Person {name: 'dan'}) SET p:Intern",
    "MATCH (p:Person {name: 'cat'})-[w:WorksAt]->() DELETE w",
    "MATCH (p:Person {name: 'cat'}) DETACH DELETE p",
    "MATCH (p:Intern) REMOVE p:Intern",
    "MATCH (p:Person {name: 'eve'}) REMOVE p.city",
};

TEST_F(SnapshotTest, DifferentialCorpusLiveVsSnapshotAfterEachCommit) {
  for (const char* stmt : kWorkload) {
    Run(stmt);
    std::shared_ptr<const GraphSnapshot> snap = Snap();
    ASSERT_NE(snap, nullptr);
    for (const char* q : kCorpus) {
      const std::string live = Render(Run(q));
      const std::string at = Render(RunAt(*snap, q));
      EXPECT_EQ(live, at) << "after \"" << stmt << "\" query \"" << q << "\"";
    }
  }
}

TEST_F(SnapshotTest, SnapshotTakenBeforeCommitIsUnaffected) {
  Run("CREATE (:Person {name: 'ann', age: 34})");
  std::shared_ptr<const GraphSnapshot> before = Snap();
  // Capture the corpus results at the pinned epoch, then mutate heavily.
  std::vector<std::string> pinned;
  for (const char* q : kCorpus) pinned.push_back(Render(RunAt(*before, q)));
  for (const char* stmt : kWorkload) Run(stmt);
  // The old snapshot still answers from the pre-mutation image...
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    EXPECT_EQ(Render(RunAt(*before, kCorpus[i])), pinned[i]) << kCorpus[i];
  }
  // ...while a fresh snapshot agrees with the live store.
  std::shared_ptr<const GraphSnapshot> after = Snap();
  for (const char* q : kCorpus) {
    EXPECT_EQ(Render(Run(q)), Render(RunAt(*after, q))) << q;
  }
}

TEST_F(SnapshotTest, PinnedSnapshotReadsPriorImages) {
  Run("CREATE (:Item {k: 1, v: 'old'})");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  Run("MATCH (i:Item {k: 1}) SET i.v = 'new'");
  Run("CREATE (:Item {k: 2, v: 'fresh'})");

  cypher::QueryResult at =
      RunAt(*snap, "MATCH (i:Item) RETURN i.k AS k, i.v AS v ORDER BY k");
  ASSERT_EQ(at.rows.size(), 1u);  // item 2 does not exist at the old epoch
  EXPECT_EQ(at.rows[0][1].string_value(), "old");

  cypher::QueryResult live =
      Run("MATCH (i:Item) RETURN i.k AS k, i.v AS v ORDER BY k");
  ASSERT_EQ(live.rows.size(), 2u);
  EXPECT_EQ(live.rows[0][1].string_value(), "new");
}

TEST_F(SnapshotTest, DeletedItemsStayVisibleAtTheirEpoch) {
  Run("CREATE (:Doomed {k: 1})-[:Tie {w: 7}]->(:Doomed {k: 2})");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  Run("MATCH (d:Doomed) DETACH DELETE d");

  EXPECT_EQ(Run("MATCH (d:Doomed) RETURN count(d) AS c")
                .at(0, 0)
                .int_value(),
            0);
  cypher::QueryResult at = RunAt(
      *snap, "MATCH (a:Doomed)-[t:Tie]->(b:Doomed) "
             "RETURN a.k AS a, t.w AS w, b.k AS b");
  ASSERT_EQ(at.rows.size(), 1u);
  EXPECT_EQ(at.rows[0][1].int_value(), 7);
}

TEST_F(SnapshotTest, LabelsInternedAfterTheSnapshotDoNotExistInIt) {
  Run("CREATE (:Seed)");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  Run("CREATE (:Brand {x: 1})");
  EXPECT_EQ(RunAt(*snap, "MATCH (b:Brand) RETURN count(b) AS c")
                .at(0, 0)
                .int_value(),
            0);
  EXPECT_EQ(Run("MATCH (b:Brand) RETURN count(b) AS c").at(0, 0).int_value(),
            1);
}

TEST_F(SnapshotTest, SameEpochSnapshotsShareOnePin) {
  Run("CREATE (:Seed)");
  std::shared_ptr<const GraphSnapshot> a = Snap();
  std::shared_ptr<const GraphSnapshot> b = Snap();
  EXPECT_EQ(a.get(), b.get());  // cached per epoch
  EXPECT_EQ(db_.store().snapshots().PinnedSnapshots(), 1u);
  Run("CREATE (:Seed)");
  std::shared_ptr<const GraphSnapshot> c = Snap();
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(db_.store().snapshots().PinnedSnapshots(), 2u);
}

TEST_F(SnapshotTest, SidecarVersionsFreedWhenSnapshotReleases) {
  Run("CREATE (:Item {k: 1, v: 0})");
  const SnapshotManager& mgr = db_.store().snapshots();
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  for (int i = 1; i <= 5; ++i) {
    Run("MATCH (i:Item {k: 1}) SET i.v = " + std::to_string(i));
  }
  // The pinned snapshot forces the prior versions to stay banked.
  EXPECT_GT(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(RunAt(*snap, "MATCH (i:Item) RETURN i.v AS v")
                .at(0, 0)
                .int_value(),
            0);
  snap.reset();  // unpin: the release itself frees nothing...
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  EXPECT_GT(mgr.SidecarVersions(), 0u);
  // ...the writer's next step truncates every chain to its head.
  Run("MATCH (i:Item {k: 1}) SET i.v = 6");
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
}

TEST_F(SnapshotTest, SidecarStaysEmptyWithoutPinnedSnapshots) {
  Run("CREATE (:Item {k: 1, v: 0})");
  Snap();  // arm, then release immediately
  for (int i = 1; i <= 5; ++i) {
    Run("MATCH (i:Item {k: 1}) SET i.v = " + std::to_string(i));
  }
  // Commit-time GC reclaims superseded versions as soon as no snapshot
  // can observe them.
  EXPECT_EQ(db_.store().snapshots().SidecarVersions(), 0u);
}

TEST_F(SnapshotTest, QueryAtRejectsWritesCallAndClock) {
  Run("CREATE (:Seed)");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  EXPECT_EQ(db_.QueryAt(*snap, "CREATE (:X)").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.QueryAt(*snap, "MATCH (n) SET n.x = 1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.QueryAt(*snap, "MATCH (n) DETACH DELETE n").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      db_.QueryAt(*snap, "CALL db.labels() YIELD label RETURN label")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(db_.QueryAt(*snap, "RETURN datetime() AS t").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, ArmingRequiresAnIdleWriter) {
  auto tx = db_.BeginTx();
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(db_.OpenSnapshot().status().code(),
            StatusCode::kFailedPrecondition);
  db_.RollbackAndRelease(std::move(tx).value());
  EXPECT_TRUE(db_.OpenSnapshot().ok());  // idle again: arming succeeds
}

TEST_F(SnapshotTest, ReadOnlyStatementsSkipTransactionSetup) {
  Run("CREATE (:Person {name: 'ann', age: 34})");
  const uint64_t commits = db_.committed_transactions();
  cypher::QueryResult r =
      Run("MATCH (p:Person) RETURN p.name AS n ORDER BY n");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].string_value(), "ann");
  // No transaction was begun or committed for the read.
  EXPECT_EQ(db_.committed_transactions(), commits);
  // Writes still commit as before.
  Run("CREATE (:Person {name: 'bob', age: 28})");
  EXPECT_EQ(db_.committed_transactions(), commits + 1);
}

TEST_F(SnapshotTest, TriggersStillFireAfterReadOnlyFastPath) {
  Run("CREATE TRIGGER Audit AFTER CREATE ON 'Person' FOR EACH NODE "
      "BEGIN CREATE (:Audit {who: NEW.name}) END");
  Run("MATCH (n) RETURN count(n) AS c");  // read-only, no trigger round
  Run("CREATE (:Person {name: 'ann'})");
  EXPECT_EQ(Run("MATCH (a:Audit) RETURN count(a) AS c").at(0, 0).int_value(),
            1);
}

TEST_F(SnapshotTest, SnapshotViewMirrorsStoreReads) {
  Run("CREATE (:Person {name: 'ann', age: 34})-[:Knows {since: 2015}]->"
      "(:Person {name: 'bob', age: 28})");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  StoreView live = StoreView::Live(db_.store());
  StoreView at = StoreView::Snapshot(*snap);

  EXPECT_EQ(live.NodeCount(), at.NodeCount());
  EXPECT_EQ(live.RelCount(), at.RelCount());
  auto person = live.LookupLabel("Person");
  ASSERT_TRUE(person.has_value());
  EXPECT_EQ(at.LookupLabel("Person"), person);
  EXPECT_EQ(live.NodesByLabel(*person), at.NodesByLabel(*person));
  EXPECT_EQ(live.LabelCardinality(*person), at.LabelCardinality(*person));
  EXPECT_EQ(live.AllNodes(), at.AllNodes());
  EXPECT_EQ(live.AllRels(), at.AllRels());
  for (NodeId n : live.AllNodes()) {
    EXPECT_EQ(*live.NodeLabels(n), *at.NodeLabels(n));
    auto age = live.LookupPropKey("age");
    ASSERT_TRUE(age.has_value());
    EXPECT_TRUE(live.NodeProp(n, *age).Equals(at.NodeProp(n, *age)));
    EXPECT_EQ(live.RelsOf(n, Direction::kBoth, std::nullopt),
              at.RelsOf(n, Direction::kBoth, std::nullopt));
  }
  for (RelId r : live.AllRels()) {
    const StoreView::RelInfo a = live.Rel(r);
    const StoreView::RelInfo b = at.Rel(r);
    EXPECT_EQ(a.type, b.type);
    EXPECT_TRUE(a.src == b.src && a.dst == b.dst);
  }
  EXPECT_NE(live.Indexes(), nullptr);
  EXPECT_EQ(at.Indexes(), nullptr);  // snapshot scans use label fallback
}

TEST_F(SnapshotTest, RollbackPublishesNothing) {
  Run("CREATE (:Item {k: 1, v: 'keep'})");
  std::shared_ptr<const GraphSnapshot> snap = Snap();
  // A failing statement rolls the transaction back mid-flight.
  auto bad = db_.Execute("MATCH (i:Item) SET i.v = 'zap' SET i.q = 1/0");
  EXPECT_FALSE(bad.ok());
  std::shared_ptr<const GraphSnapshot> after = Snap();
  EXPECT_EQ(snap->epoch(), after->epoch());  // no commit, no new epoch
  EXPECT_EQ(RunAt(*after, "MATCH (i:Item) RETURN i.v AS v")
                .at(0, 0)
                .string_value(),
            "keep");
}

// --- Versioned index postings ------------------------------------------------

// Every band visible at `epoch`, as (typed key rendering, ids), sorted so
// two listings compare regardless of hash-table layout.
using BandListing = std::vector<std::pair<std::string, std::vector<uint64_t>>>;

BandListing ListBands(const index::VersionedPostings& sidecar,
                      uint64_t epoch) {
  BandListing out;
  sidecar.ForEachBandAt(
      epoch, [&](const Value& key, const std::vector<uint64_t>& ids) {
        out.emplace_back(
            std::to_string(static_cast<int>(key.type())) + ":" +
                key.ToString(),
            ids);
      });
  std::sort(out.begin(), out.end());
  return out;
}

class PostingVersionTest : public SnapshotTest {
 protected:
  struct Pinned {
    std::shared_ptr<const GraphSnapshot> snap;
    BandListing hash, ordered;
  };

  void SetUp() override {
    Run("CREATE INDEX ON :Item(h)");
    Run("CREATE RANGE INDEX ON :Item(r)");
    for (int i = 0; i < 8; ++i) {
      Run("CREATE (:Item {h: " + std::to_string(i % 3) +
          ", r: " + std::to_string(i % 4) + ".0})");
    }
    Run("CREATE (:Other {h: 1, r: 1})");
    ASSERT_NE(Snap(), nullptr);  // arm: baseline both sidecars
    item_ = *db_.store().LookupLabel("Item");
    h_ = *db_.store().LookupPropKey("h");
    r_ = *db_.store().LookupPropKey("r");
  }

  Pinned Pin() {
    Pinned p;
    p.snap = Snap();
    p.hash = ListBands(*p.snap->FindIndex(item_, h_), p.snap->epoch());
    p.ordered = ListBands(*p.snap->FindIndex(item_, r_), p.snap->epoch());
    return p;
  }

  // A snapshot pinned earlier still lists exactly its own epoch's bands,
  // and probing each band at that epoch returns the listed postings.
  void ExpectStillReads(const Pinned& p) {
    const uint64_t e = p.snap->epoch();
    for (PropKeyId prop : {h_, r_}) {
      const index::VersionedPostings& sidecar =
          *p.snap->FindIndex(item_, prop);
      EXPECT_EQ(ListBands(sidecar, e), prop == h_ ? p.hash : p.ordered);
      sidecar.ForEachBandAt(
          e, [&](const Value& key, const std::vector<uint64_t>& ids) {
            std::vector<uint64_t> probed;
            sidecar.LookupAt(key, e, &probed);
            EXPECT_EQ(probed, ids) << key.ToString();
          });
    }
  }

  LabelId item_ = 0;
  PropKeyId h_ = 0, r_ = 0;
};

TEST_F(PostingVersionTest, DeltaBuiltBandsMatchLiveIndexAfterEveryCommit) {
  const int64_t big = int64_t{1} << 53;
  // Int/Double sharing a band, ints beyond 2^53 sharing the band of their
  // double, non-numerics, NaN (never indexed), and NULL (removes).
  const std::vector<Value> pool = {
      Value::Int(1),         Value::Double(1.0),
      Value::Int(2),         Value::Double(2.5),
      Value::Int(big),       Value::Int(big + 1),
      Value::Double(static_cast<double>(big)),
      Value::String("a"),    Value::String("b"),
      Value::Bool(true),
      Value::Double(std::numeric_limits<double>::quiet_NaN()),
      Value::Null(),
  };
  Rng rng(20241017);
  std::vector<Pinned> pins;
  int commits = 0, rollbacks = 0;
  for (int round = 0; round < 400; ++round) {
    const uint64_t bound = db_.store().NodeIdBound();
    Params params;
    std::vector<std::string> stmts;
    const int n = 1 + static_cast<int>(rng.NextBelow(3));
    const bool fail = rng.NextBelow(8) == 0;
    for (int k = 0; k < n + (fail ? 1 : 0); ++k) {
      const std::string v = "v" + std::to_string(k);
      params[v] = pool[rng.NextBelow(pool.size())];
      const std::string node =
          "MATCH (n) WHERE id(n) = " + std::to_string(rng.NextBelow(bound)) +
          " ";
      const std::string prop = rng.NextBelow(2) == 0 ? "h" : "r";
      if (k == n) {  // the failing tail: the whole transaction rolls back
        stmts.push_back("CREATE (n:Item {h: $" + v + ", r: $" + v +
                        "}) SET n.q = 1/0");
        continue;
      }
      switch (rng.NextBelow(9)) {
        case 0:
        case 1:
          stmts.push_back(node + "SET n." + prop + " = $" + v);
          break;
        case 2:
          stmts.push_back(node + "REMOVE n." + prop);
          break;
        case 3:  // set-and-revert within one transaction
          stmts.push_back(node + "WITH n, n." + prop + " AS o SET n." +
                          prop + " = $" + v + " SET n." + prop + " = o");
          break;
        case 4:  // label changes with the property unchanged
          stmts.push_back(node + "SET n:Item");
          break;
        case 5:
          stmts.push_back(node + "REMOVE n:Item");
          break;
        case 6:
          stmts.push_back("CREATE (:Item {h: $" + v + ", r: $" + v + "})");
          break;
        case 7:  // create + delete within one transaction
          stmts.push_back("CREATE (n:Item {h: $" + v + ", r: $" + v +
                          "}) WITH n DETACH DELETE n");
          break;
        default:
          stmts.push_back(node + "DETACH DELETE n");
          break;
      }
    }
    const uint64_t epoch = db_.store().snapshots().commit_epoch();
    auto r = db_.ExecuteTx(stmts, params);
    ASSERT_EQ(r.ok(), !fail) << stmts.back() << " -> " << r.status();
    if (fail) {
      EXPECT_EQ(db_.store().snapshots().commit_epoch(), epoch);
      ++rollbacks;
    } else {
      ++commits;
    }
    ExpectHeadsMatchLive(db_, "round " + std::to_string(round) + " (" +
                                  stmts.front() + ")");
    if (round % 25 == 0) pins.push_back(Pin());
    if (pins.size() > 4) {  // release a pin chosen at random
      pins.erase(pins.begin() + static_cast<ptrdiff_t>(
                                    rng.NextBelow(pins.size())));
    }
    for (const Pinned& p : pins) ExpectStillReads(p);
  }
  EXPECT_GT(commits, 300);
  EXPECT_GT(rollbacks, 20);
}

TEST_F(PostingVersionTest, ReclaimsWhenPinsReleaseOutOfOrder) {
  const SnapshotManager& mgr = db_.store().snapshots();
  auto bump = [&](int i) {
    Run("MATCH (n:Item) WHERE id(n) = " + std::to_string(i % 8) +
        " SET n.h = " + std::to_string(i % 5) + ", n.r = " +
        std::to_string(i % 7));
  };
  std::vector<Pinned> pins;
  for (int i = 0; i < 30; ++i) {
    bump(i);
    if (i % 10 == 0) pins.push_back(Pin());
  }
  EXPECT_GT(mgr.SidecarVersions(), 0u);
  EXPECT_GT(mgr.IndexSidecarVersions(), 0u);
  // Middle, newest, oldest: every remaining pin keeps reading its epoch.
  for (size_t victim : {size_t{1}, size_t{1}, size_t{0}}) {
    pins.erase(pins.begin() + static_cast<ptrdiff_t>(victim));
    for (const Pinned& p : pins) ExpectStillReads(p);
    bump(static_cast<int>(victim));
  }
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(mgr.IndexSidecarVersions(), 0u);

  // One pin held across 1,000 commits banks every superseded version...
  Pinned held = Pin();
  const std::string item0 = "MATCH (n:Item) WHERE id(n) = 0 ";
  const int64_t h0 = Run(item0 + "RETURN n.h AS h").at(0, 0).int_value();
  for (int i = 0; i < 1000; ++i) {
    bump(i);
    if (i % 100 == 0) {
      ExpectStillReads(held);
      EXPECT_EQ(RunAt(*held.snap, item0 + "RETURN n.h AS h")
                    .at(0, 0)
                    .int_value(),
                h0);
    }
  }
  EXPECT_GE(mgr.SidecarVersions(), 1000u);
  EXPECT_GT(mgr.IndexSidecarVersions(), 0u);
  ExpectStillReads(held);
  // ...releasing it frees nothing by itself...
  held = Pinned{};
  EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
  EXPECT_GE(mgr.SidecarVersions(), 1000u);
  EXPECT_GT(mgr.IndexSidecarVersions(), 0u);
  // ...and one writer commit reclaims all of them.
  bump(1000);
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
  EXPECT_EQ(mgr.IndexSidecarVersions(), 0u);
  ExpectHeadsMatchLive(db_, "after reclaiming");
}

}  // namespace
}  // namespace pgt
