#ifndef PGTRIGGERS_WAL_WAL_MANAGER_H_
#define PGTRIGGERS_WAL_WAL_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/wal/snapshot_file.h"
#include "src/wal/vfs.h"
#include "src/wal/wal_format.h"

namespace pgt::wal {

struct WalOptions {
  /// Directory holding segments (`wal-<seq>.log`), snapshots
  /// (`snap-<seq>.pgs`), and the CLEAN shutdown marker. Created if missing.
  std::string dir;
  /// Filesystem to write through; nullptr selects Vfs::Posix(). Crash tests
  /// substitute the MemVfs fault shim.
  Vfs* vfs = nullptr;
  /// When false no durability barrier is ever issued: commits survive a
  /// process crash (the OS has the bytes) but not power loss.
  bool fsync = true;
  /// Group-commit width: one fsync per `group_size` appended commits.
  /// 1 = strict per-commit durability; larger values trade a bounded
  /// data-loss window (the unsynced suffix) for fsync amortization.
  uint32_t group_size = 8;
  /// Segment rotation threshold.
  uint64_t segment_bytes = 64ull << 20;
  /// Auto-checkpoint every N commits; 0 = manual (Database::CheckpointNow).
  uint64_t snapshot_interval = 0;
};

struct RecoveryStats {
  bool clean_shutdown = false;
  bool snapshot_loaded = false;
  uint64_t segments_replayed = 0;
  uint64_t commits_replayed = 0;
  uint64_t ddl_replayed = 0;
  /// Bytes discarded from the torn tail of the last segment (0 after a
  /// clean shutdown or an exact-boundary crash).
  uint64_t torn_bytes_discarded = 0;
};

/// Receives the recovered history in order: at most one snapshot first, then
/// every logged record. Implemented by Database (src/trigger/database.cc),
/// which routes commits through the normal commit path so snapshot
/// publication and trigger catalogs come out consistent.
class WalReplayHandler {
 public:
  virtual ~WalReplayHandler() = default;
  virtual Status OnSnapshot(SnapshotImage&& img) = 0;
  virtual Status OnCommit(WalCommit&& c) = 0;
  virtual Status OnDdl(WalDdl&& d) = 0;
};

/// Single-writer write-ahead log with compacted snapshots.
///
/// Lifecycle: Open -> Recover(handler) -> StartAppending -> Append*/Flush/
/// checkpointing -> CloseClean. Recovery replays the newest valid snapshot
/// plus every contiguous segment at or above its `first_live_seq`, stopping
/// at the first torn record in the last segment (which is physically
/// truncated away so the next recovery sees a clean chain). Any IO failure
/// while appending poisons the log: the in-memory store may then be ahead
/// of what the log can ever replay, so further appends are refused rather
/// than logging a history with a hole in it. Every method belongs to the
/// writer thread except WriteSnapshot, which a checkpoint thread may run
/// concurrently with appends.
class WalManager {
 public:
  static Result<std::unique_ptr<WalManager>> Open(WalOptions opts);

  /// Scans the directory and feeds the recovered history to `handler`.
  /// Call exactly once, before StartAppending.
  Status Recover(WalReplayHandler& handler);

  /// Opens a fresh segment (seq = highest seen + 1). Old tails are never
  /// re-appended to — a truncated tail stays immutable evidence.
  Status StartAppending();

  /// Stamps `c.epoch`, appends, and syncs when the group fills (DDL and
  /// strict mode sync immediately). Caller fills everything else in `c`
  /// (dict delta, committed_after, clock_after) beforehand.
  Status AppendCommit(WalCommit& c);
  Status AppendDdl(const WalDdl& d);

  /// Syncs any unsynced group suffix.
  Status Flush();

  /// Flush + close + write the CLEAN marker recording the exact tail, so
  /// the next recovery runs in strict mode (no torn-tail tolerance).
  Status CloseClean();

  /// True once `snapshot_interval` commits accumulated since the last
  /// rotation for a snapshot, or once a failed snapshot was reported.
  bool ShouldSnapshot() const;

  /// Seals the current segment and opens the next; returns the new seq,
  /// which becomes the snapshot's `first_live_seq`. The new segment header
  /// is made durable before this returns, so a snapshot naming it can never
  /// point at a missing file. Restarts the ShouldSnapshot commit count.
  Result<uint64_t> RotateForSnapshot();

  /// Reports that the snapshot begun by the last rotation was not
  /// published: ShouldSnapshot turns true, so the next check retries.
  void SnapshotFailed() { snapshot_failed_ = true; }

  /// Streams a snapshot into a tmp file, publishes it durably (fsync +
  /// rename + dir sync), then purges segments and snapshots below
  /// `meta.first_live_seq`. `add_records` feeds the writer its node and
  /// relationship sections. Reads only the options and the Vfs, so it may
  /// run on a thread of its own while the writer keeps appending.
  Status WriteSnapshot(
      const SnapshotImage& meta,
      const std::function<Status(SnapshotWriter&)>& add_records) const;

  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  /// Epoch of the last commit in the log (snapshot-covered included).
  uint64_t logged_epoch() const { return logged_epoch_; }
  bool broken() const { return broken_; }
  /// Marks the log unusable (e.g. the store committed but the matching
  /// append failed, so log and memory have diverged). The first cause is
  /// kept and surfaced by the Database's degraded read-only mode
  /// (docs/robustness.md).
  void Poison(std::string cause = "commit applied but its log append failed") {
    if (!broken_) poison_cause_ = std::move(cause);
    broken_ = true;
  }
  /// The failure that poisoned the log; empty while healthy.
  const std::string& poison_cause() const { return poison_cause_; }

  const WalOptions& options() const { return opts_; }

 private:
  explicit WalManager(WalOptions opts);

  Status OpenSegment(uint64_t seq);
  Status AppendRecord(std::string_view payload, bool sync_now);
  Status SyncNow();
  /// fsyncs a file recovery repaired in place (no-op when fsync is off).
  Status SyncRepairedFile(const std::string& path);

  WalOptions opts_;
  Vfs* vfs_ = nullptr;

  std::unique_ptr<WritableFile> file_;  // current segment, null until
                                        // StartAppending
  uint64_t cur_seq_ = 0;
  uint64_t next_seq_ = 0;  // first unused segment seq
  uint64_t cur_size_ = 0;

  uint64_t logged_epoch_ = 0;
  uint32_t pending_in_group_ = 0;
  uint64_t commits_since_snapshot_ = 0;
  bool snapshot_failed_ = false;

  bool recovered_ = false;
  bool appending_ = false;
  bool broken_ = false;
  std::string poison_cause_;  // first failure; empty while healthy

  RecoveryStats recovery_stats_;
};

}  // namespace pgt::wal

#endif  // PGTRIGGERS_WAL_WAL_MANAGER_H_
