// Crash-recovery differential suite for the durability subsystem
// (src/wal, docs/durability.md), driven through the MemVfs power-loss
// shim (src/wal/fault_fs.h). The core property: after ANY modeled crash —
// mid-group-commit, torn tail, bit-flipped tail — recovery lands exactly
// on a statement-prefix boundary of the workload, byte-identical (in
// observable state) to an uncrashed in-memory reference database that ran
// that same prefix. Plus: clean-shutdown markers skip tail tolerance,
// checkpoints cover and purge old segments (also while a background
// checkpoint is held in flight), and append-side IO failures poison the
// log instead of logging a divergent history.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/fault.h"
#include "src/schema/pg_schema.h"
#include "src/storage/snapshot.h"
#include "src/trigger/database.h"
#include "src/wal/fault_fs.h"
#include "src/wal/snapshot_file.h"
#include "src/wal/vfs.h"

namespace pgt {
namespace {

constexpr char kDir[] = "/db";

wal::WalOptions Opts(wal::MemVfs* vfs, uint32_t group_size = 1) {
  wal::WalOptions o;
  o.dir = kDir;
  o.vfs = vfs;
  o.fsync = true;
  o.group_size = group_size;
  return o;
}

/// Observable-state dump: tests/test_plan_differential.cc's DumpGraph
/// (alive nodes and rels in id order) extended with the dictionaries'
/// sizes, the committed-transaction counter, the trigger catalog, index
/// definitions, and the attached schema. A tombstone that still holds
/// labels or properties is dumped with them: a recovered store keeps dead
/// ids as zero-content placeholders, and a live store empties a tombstone
/// when it deletes, so on both sides no tombstone line appears (empty ones
/// are skipped, so the lines do not depend on the id bounds). A dead
/// relationship's type and endpoints are left out: the live tombstone
/// keeps them, the recovered one does not.
std::string DumpState(Database& db) {
  std::ostringstream os;
  const GraphStore& store = db.store();
  os << "committed=" << db.committed_transactions() << "\n";
  os << "dicts=" << store.LabelDictSize() << "/" << store.RelTypeDictSize()
     << "/" << store.PropKeyDictSize() << "\n";
  os << "bounds=" << store.NodeIdBound() << "/" << store.RelIdBound() << "\n";
  for (NodeId id : store.AllNodes()) {
    const NodeRecord* n = store.GetNode(id);
    os << "n" << id.value << "[";
    for (LabelId l : n->labels) os << store.LabelName(l) << ",";
    os << "]{";
    for (const auto& [k, v] : n->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (RelId id : store.AllRels()) {
    const RelRecord* r = store.GetRel(id);
    os << "r" << id.value << ":" << store.RelTypeName(r->type) << " "
       << r->src.value << "->" << r->dst.value << "{";
    for (const auto& [k, v] : r->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (uint64_t i = 0; i < store.NodeIdBound(); ++i) {
    const NodeRecord* n = store.GetNode(NodeId{i});
    if (n->alive || (n->labels.empty() && n->props.empty())) continue;
    os << "dead n" << i << "[";
    for (LabelId l : n->labels) os << store.LabelName(l) << ",";
    os << "]{";
    for (const auto& [k, v] : n->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (uint64_t i = 0; i < store.RelIdBound(); ++i) {
    const RelRecord* r = store.GetRel(RelId{i});
    if (r->alive || r->props.empty()) continue;
    os << "dead r" << i << "{";
    for (const auto& [k, v] : r->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (const TriggerDef* t : db.catalog().All()) {
    os << "trigger " << (t->enabled ? "+" : "-") << t->ToDdl() << "\n";
  }
  store.indexes().ForEach([&](const index::PropertyIndex& idx) {
    os << "index " << idx.spec().name << " u=" << idx.spec().unique
       << " e=" << idx.spec().enforce_on_write
       << " s=" << idx.spec().schema_managed
       << " n=" << idx.EntryCount() << "\n";
  });
  if (db.attached_schema().has_value()) {
    os << "schema " << db.attached_schema()->ToDdl() << "\n";
  }
  return os.str();
}

// --- The workload ------------------------------------------------------------
// DDL first (always individually fsynced), then DML where every statement
// is exactly one commit. Crash points are therefore statement prefixes:
// all DDL + the first k DML statements.

const char* kDdl[] = {
    "CREATE TRIGGER Audit AFTER CREATE ON 'Acct' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'acct'}) END",
    "CREATE TRIGGER Bal AFTER SET ON 'Acct'.'bal' FOR EACH NODE "
    "WHEN OLD.bal <> NEW.bal "
    "BEGIN CREATE (:Log {t: 'bal', d: NEW.bal - OLD.bal}) END",
    "CREATE TRIGGER Quiet AFTER DELETE ON 'Acct' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'del'}) END",
    "ALTER TRIGGER Quiet DISABLE",
    "CREATE INDEX ON :Acct(id)",
    "CREATE UNIQUE INDEX ON :Owner(oid)",
};

const char* kDml[] = {
    "CREATE (:Owner {oid: 1, name: 'ann'})",
    "CREATE (:Owner {oid: 2, name: 'bob'})",
    "CREATE (:Acct {id: 1, bal: 100})",
    "CREATE (:Acct {id: 2, bal: 50})",
    "MATCH (o:Owner {oid: 1}), (a:Acct {id: 1}) "
    "CREATE (o)-[:OWNS {since: 2020}]->(a)",
    "MATCH (o:Owner {oid: 2}), (a:Acct {id: 2}) CREATE (o)-[:OWNS]->(a)",
    "MATCH (a:Acct {id: 1}) SET a.bal = 90",
    "MATCH (a:Acct {id: 2}) SET a.bal = a.bal + 25, a.flag = true",
    "MATCH (a:Acct {id: 1}) SET a:Premium",
    "MATCH (a:Acct {id: 2}) REMOVE a.flag",
    "CREATE (:Acct {id: 3, bal: -5})",
    "MATCH (o:Owner {oid: 2})-[r:OWNS]->() DELETE r",
    "MATCH (a:Acct {id: 3}) DELETE a",
    "MATCH (a:Acct {id: 2}) SET a.bal = 0",
};
constexpr size_t kDmlCount = sizeof(kDml) / sizeof(kDml[0]);

void ApplyWorkload(Database& db, size_t dml_count) {
  for (const char* s : kDdl) {
    auto r = db.Execute(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  }
  for (size_t i = 0; i < dml_count; ++i) {
    auto r = db.Execute(kDml[i]);
    ASSERT_TRUE(r.ok()) << kDml[i] << ": " << r.status();
  }
}

/// refs[k] = observable state of an in-memory database that ran all DDL
/// plus the first k DML statements.
std::vector<std::string> ReferenceStates() {
  std::vector<std::string> refs;
  for (size_t k = 0; k <= kDmlCount; ++k) {
    Database ref;
    ApplyWorkload(ref, k);
    refs.push_back(DumpState(ref));
  }
  return refs;
}

/// Index of `state` in refs, or -1: which statement prefix the recovered
/// database corresponds to. (All prefixes are distinct — each statement
/// changes the dump — so the match is unique.)
int PrefixOf(const std::vector<std::string>& refs, const std::string& state) {
  for (size_t k = 0; k < refs.size(); ++k) {
    if (refs[k] == state) return static_cast<int>(k);
  }
  return -1;
}

/// DumpState minus the id-bound line, for comparing a LIVE database that
/// rolled a transaction back against a reference that never attempted it:
/// rollback tombstones the created records but the allocated ids stay
/// burned (never reused), so the bound legitimately runs ahead. Recovery
/// comparisons use the full dump — an unlogged commit burns nothing.
std::string StripBounds(std::string s) {
  const size_t b = s.find("bounds=");
  if (b != std::string::npos) s.erase(b, s.find('\n', b) - b + 1);
  return s;
}

std::string LastSegmentPath(wal::MemVfs& vfs) {
  auto names = vfs.ListDir(kDir);
  EXPECT_TRUE(names.ok());
  std::string last;
  for (const std::string& n : *names) {
    if (n.rfind("wal-", 0) == 0 && n > last) last = n;
  }
  EXPECT_FALSE(last.empty());
  return wal::JoinPath(kDir, last);
}

// --- Clean shutdown ----------------------------------------------------------

TEST(WalRecovery, CleanShutdownRoundTrip) {
  wal::MemVfs vfs;
  {
    auto db = Database::Open(Opts(&vfs, /*group_size=*/8));
    ASSERT_TRUE(db.ok()) << db.status();
    ApplyWorkload(**db, kDmlCount);
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(Opts(&vfs, 8));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->wal()->recovery_stats().clean_shutdown);
  EXPECT_EQ((*db)->wal()->recovery_stats().torn_bytes_discarded, 0u);

  Database ref;
  ApplyWorkload(ref, kDmlCount);
  EXPECT_EQ(DumpState(**db), DumpState(ref));

  // The recovered engine is fully live: triggers keep firing identically.
  ASSERT_TRUE((*db)->Execute("MATCH (a:Acct {id: 1}) SET a.bal = 7").ok());
  ASSERT_TRUE(ref.Execute("MATCH (a:Acct {id: 1}) SET a.bal = 7").ok());
  EXPECT_EQ(DumpState(**db), DumpState(ref));
  EXPECT_TRUE((*db)->Close().ok());
}

TEST(WalRecovery, DestructorWritesCleanMarker) {
  wal::MemVfs vfs;
  {
    auto db = Database::Open(Opts(&vfs));
    ASSERT_TRUE(db.ok()) << db.status();
    ApplyWorkload(**db, 3);
    // No explicit Close: the destructor shuts down cleanly best-effort.
  }
  auto db = Database::Open(Opts(&vfs));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->wal()->recovery_stats().clean_shutdown);
  Database ref;
  ApplyWorkload(ref, 3);
  EXPECT_EQ(DumpState(**db), DumpState(ref));
}

TEST(WalRecovery, EmptyDatabaseReopens) {
  wal::MemVfs vfs;
  {
    auto db = Database::Open(Opts(&vfs));
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(Opts(&vfs));
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE((*db)->wal()->recovery_stats().clean_shutdown);
  EXPECT_EQ((*db)->committed_transactions(), 0u);
}

// --- Crash differentials -----------------------------------------------------

TEST(WalRecovery, StrictModeCrashAtEveryStatement) {
  const std::vector<std::string> refs = ReferenceStates();
  // group_size 1: every commit is individually durable, so a crash after
  // statement i recovers exactly prefix i.
  for (size_t i = 0; i <= kDmlCount; ++i) {
    wal::MemVfs vfs;
    auto db = Database::Open(Opts(&vfs, /*group_size=*/1));
    ASSERT_TRUE(db.ok()) << db.status();
    ApplyWorkload(**db, i);
    auto crashed = vfs.CloneCrashed();  // power loss: durable prefix only

    auto rec = Database::Open(Opts(crashed.get(), 1));
    ASSERT_TRUE(rec.ok()) << "crash after " << i << ": " << rec.status();
    EXPECT_FALSE((*rec)->wal()->recovery_stats().clean_shutdown);
    EXPECT_EQ(DumpState(**rec), refs[i]) << "crash after statement " << i;
  }
}

TEST(WalRecovery, MidGroupCommitCrashLosesBoundedSuffix) {
  const std::vector<std::string> refs = ReferenceStates();
  constexpr uint32_t kGroup = 4;
  for (size_t i = 0; i <= kDmlCount; ++i) {
    wal::MemVfs vfs;
    auto db = Database::Open(Opts(&vfs, kGroup));
    ASSERT_TRUE(db.ok()) << db.status();
    ApplyWorkload(**db, i);
    auto crashed = vfs.CloneCrashed();

    auto rec = Database::Open(Opts(crashed.get(), kGroup));
    ASSERT_TRUE(rec.ok()) << "crash after " << i << ": " << rec.status();
    const int k = PrefixOf(refs, DumpState(**rec));
    ASSERT_GE(k, 0) << "crash after " << i
                    << ": recovered state is not any statement prefix";
    // At most the unsynced group suffix is lost, and never future state.
    EXPECT_LE(static_cast<size_t>(k), i) << "crash after " << i;
    EXPECT_GE(static_cast<size_t>(k) + kGroup, i + 1) << "crash after " << i;
  }
}

TEST(WalRecovery, TornTailDiscardedAndPhysicallyTruncated) {
  const std::vector<std::string> refs = ReferenceStates();
  // Large group: the whole DML suffix sits unsynced in the tail segment.
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/64));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);
  const std::string seg = LastSegmentPath(vfs);
  const uint64_t unsynced = vfs.UnsyncedBytes(seg);
  ASSERT_GT(unsynced, 0u);

  // Keep every possible partial suffix of the unsynced bytes: recovery must
  // always land on a statement prefix, never fail, never see future state.
  int last_k = 0;
  std::vector<uint64_t> cuts;
  for (uint64_t extra = 0; extra < unsynced; extra += 13) cuts.push_back(extra);
  cuts.push_back(unsynced);  // final pass: the full tail survives
  for (uint64_t extra : cuts) {
    auto crashed = vfs.CloneCrashed(seg, extra);
    auto rec = Database::Open(Opts(crashed.get(), 64));
    ASSERT_TRUE(rec.ok()) << "torn extra " << extra << ": " << rec.status();
    const int k = PrefixOf(refs, DumpState(**rec));
    ASSERT_GE(k, 0) << "torn extra " << extra;
    EXPECT_GE(k, last_k) << "longer tail recovered less, extra " << extra;
    last_k = k;
    if (extra % (13 * 8) != 0) continue;  // reopen check on a subsample

    // A torn tail is truncated in place: closing and reopening the
    // recovered database must come back clean with identical state.
    ASSERT_TRUE((*rec)->Close().ok());
    auto again = Database::Open(Opts(crashed.get(), 64));
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE((*again)->wal()->recovery_stats().clean_shutdown);
    EXPECT_EQ(DumpState(**again), refs[static_cast<size_t>(k)]);
  }
  EXPECT_EQ(last_k, static_cast<int>(kDmlCount));  // full tail => everything
}

TEST(WalRecovery, BitFlipInTailStopsAtCorruption) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/64));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);
  const std::string seg = LastSegmentPath(vfs);
  const uint64_t durable = vfs.FileSize(seg) - vfs.UnsyncedBytes(seg);
  const uint64_t unsynced = vfs.UnsyncedBytes(seg);

  for (uint64_t byte = 0; byte < unsynced; byte += 37) {
    const int64_t bit = static_cast<int64_t>((durable + byte) * 8 + 3);
    auto crashed = vfs.CloneCrashed(seg, unsynced, bit);
    auto rec = Database::Open(Opts(crashed.get(), 64));
    ASSERT_TRUE(rec.ok()) << "flip at tail byte " << byte << ": "
                          << rec.status();
    const int k = PrefixOf(refs, DumpState(**rec));
    ASSERT_GE(k, 0) << "flip at tail byte " << byte;
    // The record containing the flip can never survive.
    EXPECT_LT(k, static_cast<int>(kDmlCount)) << "flip at tail byte " << byte;
    EXPECT_GT((*rec)->wal()->recovery_stats().torn_bytes_discarded, 0u);
  }
}

TEST(WalRecovery, BadHeaderTailSegmentDeletedAndSeqReused) {
  const std::vector<std::string> refs = ReferenceStates();
  // A crash inside rotation's OpenSegment leaves the next segment file
  // present but with a missing or torn header. Model every flavor: nothing
  // reached the file, a prefix of the magic, and a full-size header whose
  // seq does not match the name.
  const std::string junks[] = {
      "",
      "PGTW",
      std::string("PGTWAL01\x09\0\0\0\0\0\0\0", 16),
  };
  for (const std::string& junk : junks) {
    wal::MemVfs vfs;
    {
      auto db = Database::Open(Opts(&vfs));
      ASSERT_TRUE(db.ok()) << db.status();
      ApplyWorkload(**db, 3);
      ASSERT_TRUE((*db)->Close().ok());
    }
    // The workload fits in segment 1, so the crashed rotation's segment is 2.
    const std::string junk_path =
        wal::JoinPath(kDir, "wal-0000000002.log");
    {
      auto f = vfs.OpenAppend(junk_path);
      ASSERT_TRUE(f.ok());
      if (!junk.empty()) ASSERT_TRUE((*f)->Append(junk).ok());
    }
    // Recovery drops the junk segment and must reuse its sequence number
    // for the segment StartAppending creates.
    auto db = Database::Open(Opts(&vfs));
    ASSERT_TRUE(db.ok()) << "junk size " << junk.size() << ": " << db.status();
    EXPECT_EQ(DumpState(**db), refs[3]);
    ASSERT_TRUE((*db)->Execute(kDml[3]).ok());
    ASSERT_TRUE((*db)->Close().ok());
    // Regression: allocating max_seen+1 instead would create wal-3 with
    // wal-2 gone, and this reopen (and every later one) would hard-fail
    // with a chain-gap error despite the clean shutdown above.
    auto again = Database::Open(Opts(&vfs));
    ASSERT_TRUE(again.ok()) << "junk size " << junk.size() << ": "
                            << again.status();
    EXPECT_TRUE((*again)->wal()->recovery_stats().clean_shutdown);
    EXPECT_EQ(DumpState(**again), refs[4]);
    ASSERT_TRUE((*again)->Close().ok());
  }
}

TEST(WalRecovery, TornTailRepairIsSyncedBeforeAppending) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/64));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);
  const std::string seg = LastSegmentPath(vfs);
  const uint64_t unsynced = vfs.UnsyncedBytes(seg);
  ASSERT_GT(unsynced, 1u);
  // Keep all but the final byte of the tail: the last record is torn.
  auto crashed = vfs.CloneCrashed(seg, unsynced - 1);

  // The very first fsync of the reopen must be the repaired segment's:
  // recovery makes its truncate durable before any newer segment exists,
  // and a failure of that fsync aborts the open instead of being skipped.
  crashed->faults().ArmNthHit("memvfs.sync", 1);
  EXPECT_FALSE(Database::Open(Opts(crashed.get(), 64)).ok());
  // The repair fsync aborts recovery before StartAppending runs — without
  // it, sync #1 would instead be the next segment's header sync, which
  // only fires after that segment's file is created.
  EXPECT_FALSE(crashed->Exists(wal::JoinPath(kDir, "wal-0000000002.log")));

  // The truncate itself already happened; with fsync healthy again the
  // next open recovers the durable prefix plus every intact tail record.
  crashed->faults().DisarmAll();
  auto rec = Database::Open(Opts(crashed.get(), 64));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(PrefixOf(refs, DumpState(**rec)),
            static_cast<int>(kDmlCount) - 1);
}

// --- Checkpoints -------------------------------------------------------------

TEST(WalRecovery, CheckpointCoversPrefixAndPurgesSegments) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/1));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, 7);
  ASSERT_TRUE((*db)->CheckpointNow().ok());
  for (size_t i = 7; i < kDmlCount; ++i) {
    ASSERT_TRUE((*db)->Execute(kDml[i]).ok()) << kDml[i];
  }

  // Everything below the snapshot's first live segment is purged.
  auto names = vfs.ListDir(kDir);
  ASSERT_TRUE(names.ok());
  size_t snaps = 0, segs = 0;
  for (const std::string& n : *names) {
    snaps += n.rfind("snap-", 0) == 0;
    segs += n.rfind("wal-", 0) == 0;
  }
  EXPECT_EQ(snaps, 1u);
  EXPECT_EQ(segs, 1u);  // only the post-rotation segment remains

  // Crash recovery = snapshot + replay of the post-checkpoint suffix.
  auto crashed = vfs.CloneCrashed();
  auto rec = Database::Open(Opts(crashed.get(), 1));
  ASSERT_TRUE(rec.ok()) << rec.status();
  const auto& stats = (*rec)->wal()->recovery_stats();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.commits_replayed, kDmlCount - 7);
  EXPECT_EQ(DumpState(**rec), refs[kDmlCount]);

  // And the recovered database can itself checkpoint and keep going.
  ASSERT_TRUE((*rec)->CheckpointNow().ok());
  ASSERT_TRUE((*rec)->Execute("CREATE (:Owner {oid: 9})").ok());
  ASSERT_TRUE((*rec)->Close().ok());
}

// Releasing a snapshot frees nothing; the writer reclaims. An idle writer
// does so in CheckpointNow, DrainAsync and Close, so versions a finished
// checkpoint or a released snapshot held do not wait for the next commit.
TEST(WalRecovery, IdleWriterStepsReclaimReleasedSnapshotVersions) {
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/1));
  ASSERT_TRUE(db.ok()) << db.status();
  Database& d = **db;
  ASSERT_TRUE(d.Execute("CREATE (:Item {k: 1, v: 0})").ok());
  const SnapshotManager& mgr = d.store().snapshots();
  int v = 0;
  auto bank_then_release = [&] {
    auto snap = d.OpenSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          d.Execute("MATCH (i:Item) SET i.v = " + std::to_string(++v)).ok());
    }
    snap->reset();
    EXPECT_EQ(mgr.PinnedSnapshots(), 0u);
    EXPECT_GT(mgr.SidecarVersions(), 0u);  // the release alone frees nothing
  };

  bank_then_release();
  ASSERT_TRUE(d.CheckpointNow().ok());
  d.DrainAsync();
  EXPECT_EQ(mgr.SidecarVersions(), 0u);

  bank_then_release();
  d.DrainAsync();
  EXPECT_EQ(mgr.SidecarVersions(), 0u);

  bank_then_release();
  ASSERT_TRUE(d.Close().ok());
  EXPECT_EQ(mgr.SidecarVersions(), 0u);
}

TEST(WalRecovery, AutoCheckpointEveryIntervalCommits) {
  wal::MemVfs vfs;
  wal::WalOptions o = Opts(&vfs, /*group_size=*/1);
  o.snapshot_interval = 5;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);
  (*db)->DrainAsync();  // barrier: the background checkpoint has finished
  auto names = vfs.ListDir(kDir);
  ASSERT_TRUE(names.ok());
  bool has_snap = false;
  for (const std::string& n : *names) has_snap |= n.rfind("snap-", 0) == 0;
  EXPECT_TRUE(has_snap);

  auto crashed = vfs.CloneCrashed();
  o.vfs = crashed.get();
  auto rec = Database::Open(o);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE((*rec)->wal()->recovery_stats().snapshot_loaded);
  Database ref;
  ApplyWorkload(ref, kDmlCount);
  EXPECT_EQ(DumpState(**rec), DumpState(ref));
}

/// Commits `CREATE (:Bulk {i: k})` for k in [from, to), one per commit.
void Bulk(Database& db, int64_t from, int64_t to) {
  for (int64_t i = from; i < to; ++i) {
    Params p;
    p["i"] = Value::Int(i);
    auto r = db.Execute("CREATE (:Bulk {i: $i})", p);
    ASSERT_TRUE(r.ok()) << r.status();
  }
}

size_t CountFiles(wal::MemVfs& vfs, const std::string& prefix,
                  const std::string& suffix) {
  auto names = vfs.ListDir(kDir);
  EXPECT_TRUE(names.ok());
  size_t n = 0;
  for (const std::string& name : *names) {
    n += name.rfind(prefix, 0) == 0 && name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0;
  }
  return n;
}

/// Parks snapshot-file appends for its lifetime. Declare it after the
/// database, so it releases before the database's destructor waits for
/// the checkpoint.
class SnapshotWriteHold {
 public:
  explicit SnapshotWriteHold(wal::MemVfs& vfs) : vfs_(vfs) {
    vfs_.HoldSnapshotWrites();
  }
  ~SnapshotWriteHold() { vfs_.ReleaseSnapshotWrites(); }

 private:
  wal::MemVfs& vfs_;
};

TEST(WalRecovery, CrashMidBackgroundCheckpointRecoversFromOlderSnapshot) {
  constexpr int64_t kInterval = 20;
  constexpr int64_t kMore = 200;
  wal::MemVfs vfs;
  wal::WalOptions o = Opts(&vfs, /*group_size=*/1);
  o.snapshot_interval = kInterval;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);  // fewer commits than the interval
  ASSERT_TRUE((*db)->CheckpointNow().ok());  // the older snapshot

  std::unique_ptr<wal::MemVfs> mid;
  {
    SnapshotWriteHold hold(vfs);
    // The interval's last commit rotates the log and starts the background
    // checkpoint, which parks on its first snapshot-file append.
    Bulk(**db, 0, kInterval);
    ASSERT_TRUE(vfs.WaitForHeldSnapshotWrite(std::chrono::seconds(30)));
    // The writer keeps committing meanwhile; the auto path skips while the
    // checkpoint runs, so nothing rotates again.
    Bulk(**db, kInterval, kInterval + kMore);
    mid = vfs.CloneCrashed();
  }
  (*db)->DrainAsync();  // barrier: the checkpoint is published
  auto after = vfs.CloneCrashed();

  Database ref;
  ApplyWorkload(ref, kDmlCount);
  Bulk(ref, 0, kInterval + kMore);
  const std::string want = DumpState(ref);

  // Mid-flight: nothing is purged yet, and recovery is the older snapshot
  // plus every segment, the one opened by the rotation included.
  EXPECT_EQ(CountFiles(*mid, "snap-", ".pgs"), 1u);
  EXPECT_EQ(CountFiles(*mid, "wal-", ".log"), 2u);
  {
    auto rec = Database::Open(Opts(mid.get(), 1));
    ASSERT_TRUE(rec.ok()) << rec.status();
    const auto& stats = (*rec)->wal()->recovery_stats();
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_EQ(stats.commits_replayed, static_cast<uint64_t>(kInterval + kMore));
    EXPECT_EQ(DumpState(**rec), want);
  }

  // Published: the new snapshot covers the rotation's prefix and only the
  // post-rotation suffix is replayed.
  EXPECT_EQ(CountFiles(*after, "snap-", ".pgs"), 1u);
  EXPECT_EQ(CountFiles(*after, "wal-", ".log"), 1u);
  auto rec = Database::Open(Opts(after.get(), 1));
  ASSERT_TRUE(rec.ok()) << rec.status();
  const auto& stats = (*rec)->wal()->recovery_stats();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.commits_replayed, static_cast<uint64_t>(kMore));
  EXPECT_EQ(DumpState(**rec), want);
}

TEST(WalRecovery, FailedBackgroundCheckpointRetriesOnNextCommit) {
  wal::MemVfs vfs;
  wal::WalOptions o = Opts(&vfs, /*group_size=*/1);
  o.snapshot_interval = 5;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok()) << db.status();

  FaultRegistry::Global().ArmNthHit("wal.snapshot.write", 1);
  Bulk(**db, 0, 5);     // the fifth commit starts a checkpoint that fails
  (*db)->DrainAsync();  // ... and the barrier reaps the failure
  FaultRegistry::Global().DisarmAll();
  EXPECT_FALSE((*db)->wal()->broken());
  EXPECT_FALSE((*db)->degraded());
  EXPECT_EQ(CountFiles(vfs, "snap-", ".pgs"), 0u);

  // The very next commit retries instead of waiting out another interval.
  Bulk(**db, 5, 6);
  (*db)->DrainAsync();
  EXPECT_EQ(CountFiles(vfs, "snap-", ".pgs"), 1u);

  auto crashed = vfs.CloneCrashed();
  auto rec = Database::Open(Opts(crashed.get(), 1));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE((*rec)->wal()->recovery_stats().snapshot_loaded);
  EXPECT_EQ(DumpState(**rec), DumpState(**db));
}

TEST(WalRecovery, StreamedSnapshotFileMatchesEncodeSnapshot) {
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, kDmlCount);
  // Enough records to span several chunks, with dead placeholders between.
  ASSERT_TRUE((*db)
                  ->Execute("UNWIND RANGE(1, 40000) AS i CREATE (:Bulk {i: i, "
                            "pad: 'padding-padding-padding-padding-' + "
                            "toString(i)})")
                  .ok());
  ASSERT_TRUE(
      (*db)->Execute("MATCH (b:Bulk) WHERE b.i % 7 = 0 DELETE b").ok());
  ASSERT_TRUE((*db)->CheckpointNow().ok());

  auto names = vfs.ListDir(kDir);
  ASSERT_TRUE(names.ok());
  std::string snap;
  for (const std::string& n : *names) {
    if (n.rfind("snap-", 0) == 0) snap = n;
  }
  ASSERT_FALSE(snap.empty());
  auto bytes = vfs.ReadFile(wal::JoinPath(kDir, snap));
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(bytes->size(), 2 * wal::SnapshotWriter::kChunkBytes);

  wal::SnapshotImage img;
  ASSERT_TRUE(wal::DecodeSnapshot(*bytes, &img).ok());
  const std::string encoded = wal::EncodeSnapshot(img);
  EXPECT_EQ(encoded.size(), bytes->size());
  EXPECT_TRUE(encoded == *bytes);
}

TEST(WalRecovery, CorruptNewestSnapshotFallsBackToOlder) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  wal::WalOptions o = Opts(&vfs);
  o.segment_bytes = 1;  // rotate after every record: a multi-segment tail
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, 7);
  ASSERT_TRUE((*db)->CheckpointNow().ok());
  for (size_t i = 7; i < kDmlCount; ++i) {
    ASSERT_TRUE((*db)->Execute(kDml[i]).ok()) << kDml[i];
  }
  ASSERT_TRUE((*db)->Close().ok());

  // Plant an undecodable newer snapshot named after the last segment —
  // exactly where a checkpoint that crashed mid-publish would sit.
  const std::string last_seg = LastSegmentPath(vfs);
  const std::string digits =
      last_seg.substr(last_seg.rfind("wal-") + 4, 10);
  {
    auto f = vfs.OpenAppend(wal::JoinPath(kDir, "snap-" + digits + ".pgs"));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("not a snapshot").ok());
  }

  // Recovery skips it, loads the older valid snapshot, and replays the
  // segments above it to full state.
  auto rec = Database::Open(o);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_TRUE((*rec)->wal()->recovery_stats().snapshot_loaded);
  EXPECT_EQ(DumpState(**rec), refs[kDmlCount]);
  ASSERT_TRUE((*rec)->Close().ok());

  // The planted file keeps being skipped on every later open too.
  auto again = Database::Open(o);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(DumpState(**again), refs[kDmlCount]);
}

TEST(WalRecovery, StraySnapshotNameDoesNotForkSegmentNumbering) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, 7);
  ASSERT_TRUE((*db)->CheckpointNow().ok());
  for (size_t i = 7; i < kDmlCount; ++i) {
    ASSERT_TRUE((*db)->Execute(kDml[i]).ok()) << kDml[i];
  }
  ASSERT_TRUE((*db)->Close().ok());

  // A stray undecodable snapshot numbered far above the segment chain.
  {
    auto f = vfs.OpenAppend(wal::JoinPath(kDir, "snap-9999999999.pgs"));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("garbage").ok());
  }
  // Its seq must not leak into segment numbering: the first reopen skips
  // it, and the segment it appends into stays contiguous with the chain —
  // otherwise this second reopen gap-fails permanently.
  {
    auto rec = Database::Open(Opts(&vfs));
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(DumpState(**rec), refs[kDmlCount]);
    ASSERT_TRUE((*rec)->Close().ok());
  }
  auto again = Database::Open(Opts(&vfs));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE((*again)->wal()->recovery_stats().clean_shutdown);
  EXPECT_EQ(DumpState(**again), refs[kDmlCount]);
}

// --- Append-side faults ------------------------------------------------------

TEST(WalRecovery, FsyncFailurePoisonsLogAndRollsBack) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/1));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, 3);

  vfs.faults().ArmNthHit("memvfs.sync", 1);
  auto r = (*db)->Execute(kDml[3]);
  EXPECT_FALSE(r.ok());  // commit must not report success without durability
  EXPECT_TRUE((*db)->wal()->broken());
  // The store rolled the transaction back: live state is still prefix 3
  // (modulo the burned ids of the rolled-back creates).
  EXPECT_EQ(StripBounds(DumpState(**db)), StripBounds(refs[3]));

  // A poisoned log refuses further mutations (memory would outrun the log)
  // but read-only statements still work.
  EXPECT_FALSE((*db)->Execute(kDml[4]).ok());
  auto count = (*db)->Execute("MATCH (n) RETURN COUNT(*)");
  EXPECT_TRUE(count.ok()) << count.status();
  // Clean shutdown is refused: the tail cannot be certified.
  EXPECT_FALSE((*db)->Close().ok());

  auto crashed = vfs.CloneCrashed();
  auto rec = Database::Open(Opts(crashed.get(), 1));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(DumpState(**rec), refs[3]);
}

TEST(WalRecovery, ShortWritePoisonsLogAndRollsBack) {
  const std::vector<std::string> refs = ReferenceStates();
  wal::MemVfs vfs;
  auto db = Database::Open(Opts(&vfs, /*group_size=*/1));
  ASSERT_TRUE(db.ok()) << db.status();
  ApplyWorkload(**db, 3);

  const std::string seg = LastSegmentPath(vfs);
  // Allow a handful more bytes, then cut the next append short mid-record.
  FaultRegistry::FaultSpec short_write;
  short_write.unit_budget = 10;
  vfs.faults().Arm("memvfs.append", std::move(short_write));
  EXPECT_FALSE((*db)->Execute(kDml[3]).ok());
  EXPECT_TRUE((*db)->wal()->broken());
  EXPECT_EQ(StripBounds(DumpState(**db)), StripBounds(refs[3]));
  vfs.faults().DisarmAll();

  // The partial record is an ordinary torn tail for the next recovery.
  auto crashed = vfs.CloneCrashed(seg, vfs.UnsyncedBytes(seg));
  auto rec = Database::Open(Opts(crashed.get(), 1));
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(DumpState(**rec), refs[3]);
}

// --- Schema attachment -------------------------------------------------------

TEST(WalRecovery, SchemaAttachmentSurvivesRecovery) {
  auto parsed = schema::ParseSchemaDdl(R"(
      CREATE GRAPH TYPE Tiny STRICT {
        (PersonType : Person {name STRING, ssn STRING KEY})
      })");
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  wal::MemVfs vfs;
  {
    auto db = Database::Open(Opts(&vfs));
    ASSERT_TRUE(db.ok()) << db.status();
    (*db)->AttachSchema(*parsed);
    ASSERT_TRUE(
        (*db)->Execute("CREATE (:Person {name: 'ann', ssn: '1'})").ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(Opts(&vfs));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_TRUE((*db)->attached_schema().has_value());
  EXPECT_EQ((*db)->attached_schema()->ToDdl(), parsed->ToDdl());
  // The guard is live again: a violating commit is still rejected.
  EXPECT_FALSE((*db)->Execute("CREATE (:Person {name: 'x'})").ok());
  // PG-Key enforcement (backed by the schema-managed unique index) too.
  EXPECT_FALSE(
      (*db)->Execute("CREATE (:Person {name: 'dup', ssn: '1'})").ok());

  // Detach is itself durable.
  (*db)->AttachSchema(std::nullopt);
  ASSERT_TRUE((*db)->Close().ok());
  auto again = Database::Open(Opts(&vfs));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE((*again)->attached_schema().has_value());
  EXPECT_TRUE((*again)->Execute("CREATE (:Person {name: 'x'})").ok());
}

// --- In-memory mode ----------------------------------------------------------

TEST(WalRecovery, InMemoryDatabaseHasNoWal) {
  Database db;
  EXPECT_EQ(db.wal(), nullptr);
  EXPECT_TRUE(db.Close().ok());  // no-op
  EXPECT_FALSE(db.CheckpointNow().ok());
  ASSERT_TRUE(db.Execute("CREATE (:A {x: 1})").ok());
  EXPECT_EQ(db.committed_transactions(), 1u);
}

}  // namespace
}  // namespace pgt
