#include "src/wal/wal_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/fault.h"
#include "src/common/macros.h"
#include "src/wal/crc32c.h"
#include "src/wal/serialize.h"

namespace pgt::wal {

namespace {

constexpr char kCleanMarkerName[] = "CLEAN";
constexpr size_t kCleanMarkerSize = 20;  // u64 seq + u64 size + u32 crc

std::string SegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string SnapshotName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%010llu.pgs",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseSeqName(const std::string& name, std::string_view prefix,
                  std::string_view suffix, uint64_t* seq) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    char c = name[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

bool IsTorn(const Status& s) {
  return s.message().rfind("torn:", 0) == 0;
}

}  // namespace

WalManager::WalManager(WalOptions opts) : opts_(std::move(opts)) {
  vfs_ = opts_.vfs != nullptr ? opts_.vfs : Vfs::Posix();
  if (opts_.group_size == 0) opts_.group_size = 1;
}

Result<std::unique_ptr<WalManager>> WalManager::Open(WalOptions opts) {
  if (opts.dir.empty()) {
    return Status::InvalidArgument("wal: empty directory");
  }
  auto mgr = std::unique_ptr<WalManager>(new WalManager(std::move(opts)));
  PGT_RETURN_IF_ERROR(mgr->vfs_->CreateDirs(mgr->opts_.dir));
  return mgr;
}

Status WalManager::Recover(WalReplayHandler& handler) {
  if (recovered_) return Status::Internal("wal: Recover called twice");

  PGT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       vfs_->ListDir(opts_.dir));
  std::vector<uint64_t> segment_seqs, snapshot_seqs;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSeqName(name, "wal-", ".log", &seq)) {
      segment_seqs.push_back(seq);
    } else if (ParseSeqName(name, "snap-", ".pgs", &seq)) {
      snapshot_seqs.push_back(seq);
    }
    // Anything else (".tmp" leftovers, the CLEAN marker, foreign files) is
    // not part of the log chain.
  }
  std::sort(segment_seqs.begin(), segment_seqs.end());
  std::sort(snapshot_seqs.begin(), snapshot_seqs.end());

  // The next append seq comes from the segment chain alone. In every
  // legitimate state the newest segment is at or above the newest snapshot
  // (rotation durably creates the segment a snapshot names before the
  // snapshot is written), and letting a stray snapshot name push the
  // counter past the chain would open a permanent gap the chain check
  // rejects on every later open.
  uint64_t max_seen = 0;
  for (uint64_t s : segment_seqs) max_seen = std::max(max_seen, s);

  // CLEAN marker: written by CloseClean, consumed (deleted) here. If it
  // names the exact tail we recover in strict mode — any torn record is
  // then real corruption, not an expected crash artifact.
  bool clean_valid = false;
  uint64_t clean_seq = 0, clean_size = 0;
  const std::string clean_path = JoinPath(opts_.dir, kCleanMarkerName);
  if (vfs_->Exists(clean_path)) {
    PGT_ASSIGN_OR_RETURN(std::string data, vfs_->ReadFile(clean_path));
    if (data.size() == kCleanMarkerSize) {
      Decoder dec(data);
      uint32_t stored = 0;
      Status s = dec.GetU64(&clean_seq);
      if (s.ok()) s = dec.GetU64(&clean_size);
      if (s.ok()) s = dec.GetU32(&stored);
      if (s.ok() && UnmaskCrc(stored) == Crc32c(data.data(), 16)) {
        clean_valid = true;
      }
    }
    PGT_RETURN_IF_ERROR(vfs_->Delete(clean_path));
  }

  // Newest decodable snapshot wins; an unreadable newest falls back to an
  // older one (its segments were only purged after the newer one became
  // durable — if they are gone, the newer one was durable). Snapshots
  // present but none valid means the chain is unrecoverable: segments
  // below the oldest first_live_seq were already purged.
  uint64_t replay_from = 0;
  for (auto it = snapshot_seqs.rbegin(); it != snapshot_seqs.rend(); ++it) {
    Result<std::string> data =
        vfs_->ReadFile(JoinPath(opts_.dir, SnapshotName(*it)));
    if (!data.ok()) continue;  // unreadable counts as invalid, same as a
                               // failed decode: fall back to an older one
    SnapshotImage img;
    if (!DecodeSnapshot(*data, &img).ok()) continue;
    replay_from = img.first_live_seq;
    logged_epoch_ = img.wal_epoch;
    recovery_stats_.snapshot_loaded = true;
    PGT_RETURN_IF_ERROR(handler.OnSnapshot(std::move(img)));
    break;
  }
  if (!snapshot_seqs.empty() && !recovery_stats_.snapshot_loaded) {
    return Status::IoError(
        "wal: every snapshot is corrupt and the pre-snapshot segments were "
        "purged — cannot recover");
  }

  std::vector<uint64_t> replay;
  for (uint64_t s : segment_seqs) {
    if (s >= replay_from) replay.push_back(s);
  }
  if (recovery_stats_.snapshot_loaded &&
      (replay.empty() || replay.front() != replay_from)) {
    return Status::IoError("wal: segment " + SegmentName(replay_from) +
                           " named by the snapshot is missing");
  }
  for (size_t i = 1; i < replay.size(); ++i) {
    if (replay[i] != replay[i - 1] + 1) {
      return Status::IoError("wal: segment chain has a gap between " +
                             SegmentName(replay[i - 1]) + " and " +
                             SegmentName(replay[i]));
    }
  }

  next_seq_ = max_seen + 1;

  for (size_t si = 0; si < replay.size(); ++si) {
    const uint64_t seq = replay[si];
    const bool is_last = si + 1 == replay.size();
    const std::string path = JoinPath(opts_.dir, SegmentName(seq));
    PGT_ASSIGN_OR_RETURN(std::string data, vfs_->ReadFile(path));

    const bool strict =
        clean_valid && is_last && clean_seq == seq && clean_size == data.size();
    if (is_last) recovery_stats_.clean_shutdown = strict;

    // Header. A short or garbled header on the very last segment is a crash
    // during segment creation: the file holds nothing replayable, drop it.
    bool header_ok = data.size() >= kSegmentHeaderSize &&
                     std::memcmp(data.data(), kSegmentMagic,
                                 sizeof(kSegmentMagic)) == 0;
    if (header_ok) {
      Decoder dec(std::string_view(data).substr(sizeof(kSegmentMagic), 8));
      uint64_t hdr_seq = 0;
      header_ok = dec.GetU64(&hdr_seq).ok() && hdr_seq == seq;
    }
    if (!header_ok) {
      if (is_last && !strict) {
        recovery_stats_.torn_bytes_discarded += data.size();
        PGT_RETURN_IF_ERROR(vfs_->Delete(path));
        // The delete must be durable before a segment with the same name is
        // created afresh: power loss that persists the new file but not the
        // delete would splice the junk bytes back into the chain.
        if (opts_.fsync) PGT_RETURN_IF_ERROR(vfs_->SyncDir(opts_.dir));
        // Reuse the deleted seq for the next segment. Allocating max_seen+1
        // instead would leave a permanent hole in the chain that the gap
        // check above rejects on every later open.
        next_seq_ = seq;
        break;
      }
      return Status::IoError("wal: bad segment header in " + SegmentName(seq));
    }

    size_t off = kSegmentHeaderSize;
    bool stop = false;
    while (off < data.size()) {
      std::string_view payload;
      Status s = ReadFramedRecord(data, &off, &payload);
      if (!s.ok()) {
        if (IsTorn(s) && is_last && !strict) {
          recovery_stats_.torn_bytes_discarded += data.size() - off;
          // Truncate in place: after the next rotation this segment is no
          // longer last, and a lingering torn tail would read as corruption.
          // The repair is fsynced before StartAppending creates a newer
          // segment — an unsynced truncate lost to a second power failure
          // would resurrect the tail in a segment that is no longer last,
          // where tolerance no longer applies.
          PGT_RETURN_IF_ERROR(vfs_->Truncate(path, off));
          PGT_RETURN_IF_ERROR(SyncRepairedFile(path));
          stop = true;
          break;
        }
        return Status::IoError("wal: " + SegmentName(seq) + ": " +
                               s.message());
      }
      switch (static_cast<WalRecordType>(payload[0])) {
        case WalRecordType::kCommit: {
          WalCommit c;
          PGT_RETURN_IF_ERROR(DecodeCommitPayload(payload, &c));
          if (c.epoch != logged_epoch_ + 1) {
            return Status::IoError(
                "wal: commit epoch " + std::to_string(c.epoch) +
                " out of order (expected " +
                std::to_string(logged_epoch_ + 1) + ")");
          }
          logged_epoch_ = c.epoch;
          ++recovery_stats_.commits_replayed;
          PGT_RETURN_IF_ERROR(handler.OnCommit(std::move(c)));
          break;
        }
        case WalRecordType::kDdl: {
          WalDdl d;
          PGT_RETURN_IF_ERROR(DecodeDdlPayload(payload, &d));
          ++recovery_stats_.ddl_replayed;
          PGT_RETURN_IF_ERROR(handler.OnDdl(std::move(d)));
          break;
        }
        default:
          return Status::IoError("wal: unknown record type " +
                                 std::to_string(payload[0]) + " in " +
                                 SegmentName(seq));
      }
    }
    ++recovery_stats_.segments_replayed;
    if (stop) break;
  }

  recovered_ = true;
  return Status::OK();
}

Status WalManager::SyncRepairedFile(const std::string& path) {
  if (!opts_.fsync) return Status::OK();
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                       vfs_->OpenAppend(path));
  PGT_RETURN_IF_ERROR(f->Sync());
  return f->Close();
}

Status WalManager::StartAppending() {
  if (!recovered_) return Status::Internal("wal: StartAppending before Recover");
  if (appending_) return Status::Internal("wal: already appending");
  PGT_RETURN_IF_ERROR(OpenSegment(next_seq_));
  appending_ = true;
  return Status::OK();
}

Status WalManager::OpenSegment(uint64_t seq) {
  PGT_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> f,
      vfs_->OpenAppend(JoinPath(opts_.dir, SegmentName(seq))));
  Encoder enc;
  for (char c : kSegmentMagic) enc.PutU8(static_cast<uint8_t>(c));
  enc.PutU64(seq);
  PGT_RETURN_IF_ERROR(f->Append(enc.buffer()));
  if (opts_.fsync) {
    // Make the header + directory entry durable up front: a snapshot (or a
    // later segment) may name this seq, and recovery hard-fails on a gap.
    PGT_RETURN_IF_ERROR(f->Sync());
    PGT_RETURN_IF_ERROR(vfs_->SyncDir(opts_.dir));
  }
  file_ = std::move(f);
  cur_seq_ = seq;
  cur_size_ = kSegmentHeaderSize;
  next_seq_ = seq + 1;
  return Status::OK();
}

Status WalManager::SyncNow() {
  PGT_RETURN_IF_ERROR(FaultRegistry::Global().Hit("wal.sync"));
  if (opts_.fsync) PGT_RETURN_IF_ERROR(file_->Sync());
  pending_in_group_ = 0;
  return Status::OK();
}

Status WalManager::AppendRecord(std::string_view payload, bool sync_now) {
  if (broken_) {
    return Status::IoError("wal: poisoned by an earlier IO failure");
  }
  if (!appending_) return Status::Internal("wal: not in appending state");

  std::string framed;
  AppendFramedRecord(&framed, payload);

  // Any failure from here on poisons the log: a partially appended or
  // unsyncable record means the on-disk chain can no longer be trusted to
  // match what the caller believes was logged.
  Status s = FaultRegistry::Global().Hit("wal.append", framed.size());
  if (s.ok()) s = file_->Append(framed);
  if (s.ok()) {
    cur_size_ += framed.size();
    if (sync_now) s = SyncNow();
  }
  if (s.ok() && cur_size_ >= opts_.segment_bytes) {
    s = FaultRegistry::Global().Hit("wal.rotate");
    if (s.ok()) s = SyncNow();
    if (s.ok()) s = file_->Close();
    if (s.ok()) s = OpenSegment(next_seq_);
  }
  if (!s.ok()) Poison("wal append failed: " + s.message());
  return s;
}

Status WalManager::AppendCommit(WalCommit& c) {
  c.epoch = logged_epoch_ + 1;
  ++pending_in_group_;
  const bool sync_now = pending_in_group_ >= opts_.group_size;
  PGT_RETURN_IF_ERROR(AppendRecord(EncodeCommitPayload(c), sync_now));
  ++logged_epoch_;
  ++commits_since_snapshot_;
  return Status::OK();
}

Status WalManager::AppendDdl(const WalDdl& d) {
  // DDL is rare and structural — always worth its own barrier.
  return AppendRecord(EncodeDdlPayload(d), /*sync_now=*/true);
}

Status WalManager::Flush() {
  if (broken_) {
    return Status::IoError("wal: poisoned by an earlier IO failure");
  }
  if (!appending_) return Status::OK();
  Status s = SyncNow();
  if (!s.ok()) Poison("wal flush failed: " + s.message());
  return s;
}

Status WalManager::CloseClean() {
  if (!appending_) return Status::OK();
  appending_ = false;
  if (broken_) {
    if (file_) {
      (void)file_->Close();
      file_.reset();
    }
    return Status::IoError("wal: poisoned — not writing CLEAN marker");
  }
  PGT_RETURN_IF_ERROR(SyncNow());
  PGT_RETURN_IF_ERROR(file_->Close());
  file_.reset();

  Encoder enc;
  enc.PutU64(cur_seq_);
  enc.PutU64(cur_size_);
  enc.PutU32(MaskCrc(Crc32c(enc.buffer().data(), 16)));
  const std::string clean_path = JoinPath(opts_.dir, kCleanMarkerName);
  if (vfs_->Exists(clean_path)) PGT_RETURN_IF_ERROR(vfs_->Delete(clean_path));
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                       vfs_->OpenAppend(clean_path));
  PGT_RETURN_IF_ERROR(f->Append(enc.buffer()));
  if (opts_.fsync) PGT_RETURN_IF_ERROR(f->Sync());
  PGT_RETURN_IF_ERROR(f->Close());
  if (opts_.fsync) PGT_RETURN_IF_ERROR(vfs_->SyncDir(opts_.dir));
  return Status::OK();
}

bool WalManager::ShouldSnapshot() const {
  return opts_.snapshot_interval > 0 &&
         (snapshot_failed_ ||
          commits_since_snapshot_ >= opts_.snapshot_interval);
}

Result<uint64_t> WalManager::RotateForSnapshot() {
  if (broken_) {
    return Status::IoError("wal: poisoned by an earlier IO failure");
  }
  if (!appending_) return Status::Internal("wal: not in appending state");
  Status s = FaultRegistry::Global().Hit("wal.rotate");
  if (s.ok()) s = SyncNow();
  if (s.ok()) s = file_->Close();
  if (s.ok()) s = OpenSegment(next_seq_);
  if (!s.ok()) {
    Poison("wal rotate failed: " + s.message());
    return s;
  }
  commits_since_snapshot_ = 0;
  snapshot_failed_ = false;
  return cur_seq_;
}

Status WalManager::WriteSnapshot(
    const SnapshotImage& meta,
    const std::function<Status(SnapshotWriter&)>& add_records) const {
  // Checkpoints are best effort: a refused write leaves the segment chain
  // fully usable (no poisoning) and the next commit retries.
  PGT_RETURN_IF_ERROR(FaultRegistry::Global().Hit("wal.snapshot.write"));
  const std::string final_path =
      JoinPath(opts_.dir, SnapshotName(meta.first_live_seq));
  const std::string tmp_path = final_path + ".tmp";
  if (vfs_->Exists(tmp_path)) PGT_RETURN_IF_ERROR(vfs_->Delete(tmp_path));

  // Snapshots are always synced, fsync option notwithstanding: the write
  // below authorizes purging every older segment, and purging on the
  // strength of a snapshot the disk may not have is how databases lose
  // everything at once.
  {
    PGT_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                         vfs_->OpenAppend(tmp_path));
    SnapshotWriter w(meta, [&f](std::string_view chunk) {
      return f->Append(chunk);
    });
    PGT_RETURN_IF_ERROR(add_records(w));
    PGT_RETURN_IF_ERROR(w.Finish());
    PGT_RETURN_IF_ERROR(f->Sync());
    PGT_RETURN_IF_ERROR(f->Close());
  }
  PGT_RETURN_IF_ERROR(vfs_->Rename(tmp_path, final_path));
  PGT_RETURN_IF_ERROR(vfs_->SyncDir(opts_.dir));

  PGT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       vfs_->ListDir(opts_.dir));
  for (const std::string& name : names) {
    uint64_t seq = 0;
    bool purge = (ParseSeqName(name, "wal-", ".log", &seq) ||
                  ParseSeqName(name, "snap-", ".pgs", &seq)) &&
                 seq < meta.first_live_seq;
    if (purge) PGT_RETURN_IF_ERROR(vfs_->Delete(JoinPath(opts_.dir, name)));
  }
  return vfs_->SyncDir(opts_.dir);
}

}  // namespace pgt::wal
