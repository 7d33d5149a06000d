#ifndef PGTRIGGERS_WAL_FAULT_FS_H_
#define PGTRIGGERS_WAL_FAULT_FS_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/fault.h"
#include "src/wal/vfs.h"

namespace pgt::wal {

/// In-memory Vfs with power-loss semantics, for crash-recovery tests.
///
/// Every file tracks two lengths: `data.size()` (what a running process
/// sees) and `durable` (bytes guaranteed to survive a crash — advanced only
/// by Sync()). `CloneCrashed` produces the directory tree a machine would
/// find after power loss: each file cut back to its durable length, plus an
/// optional partial suffix of the unsynced bytes (torn tail) and an optional
/// single-bit flip (media corruption). The per-instance fault registry
/// (`faults()`) injects fsync failures and short writes to exercise the
/// WAL's poisoning / rollback path.
///
/// Directory metadata is modeled as always-durable: renames and deletes
/// apply immediately in the crashed clone. The real WAL orders operations so
/// this is the *favorable* assumption — recovery must also survive the
/// unfavorable one, which tests model by crashing before the metadata op.
class MemVfs final : public Vfs {
 public:
  MemVfs() = default;

  /// The per-instance fault registry behind this filesystem's IO paths
  /// ("memvfs.append" carries byte units; "memvfs.sync" one hit per fsync).
  FaultRegistry& faults() { return faults_; }

  /// The post-power-loss view of this filesystem. Files keep their durable
  /// prefix; the file named `torn_path` (if non-empty) additionally keeps
  /// `torn_extra_bytes` of its unsynced suffix, with a single bit flipped at
  /// absolute offset `flip_bit_offset` (-1 = no flip).
  std::unique_ptr<MemVfs> CloneCrashed(const std::string& torn_path = "",
                                       uint64_t torn_extra_bytes = 0,
                                       int64_t flip_bit_offset = -1) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto out = std::make_unique<MemVfs>();
    out->dirs_ = dirs_;
    for (const auto& [path, file] : files_) {
      uint64_t keep = file->durable;
      if (path == torn_path) {
        keep = std::min<uint64_t>(file->data.size(), keep + torn_extra_bytes);
      }
      auto copy = std::make_shared<FileState>();
      copy->data = file->data.substr(0, keep);
      copy->durable = copy->data.size();
      if (path == torn_path && flip_bit_offset >= 0 &&
          static_cast<uint64_t>(flip_bit_offset / 8) < copy->data.size()) {
        copy->data[static_cast<size_t>(flip_bit_offset / 8)] ^=
            static_cast<char>(1u << (flip_bit_offset % 8));
      }
      out->files_.emplace(path, std::move(copy));
    }
    return out;
  }

  /// Test-only pause hook: while held, every Append to a snapshot temp file
  /// (`snap-*.tmp`) blocks until ReleaseSnapshotWrites, which keeps a
  /// background checkpoint in flight for as long as a test needs.
  void HoldSnapshotWrites() {
    std::lock_guard<std::mutex> lk(hold_mu_);
    hold_ = true;
  }
  void ReleaseSnapshotWrites() {
    {
      std::lock_guard<std::mutex> lk(hold_mu_);
      hold_ = false;
    }
    hold_cv_.notify_all();
  }
  /// Waits until an Append is parked at the hold; false on timeout.
  bool WaitForHeldSnapshotWrite(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(hold_mu_);
    return hold_cv_.wait_for(lk, timeout, [this] { return parked_ > 0; });
  }

  /// Bytes appended to `path` but not yet covered by a Sync().
  uint64_t UnsyncedBytes(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) return 0;
    return it->second->data.size() - it->second->durable;
  }

  uint64_t FileSize(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(path);
    return it == files_.end() ? 0 : it->second->data.size();
  }

  // ---- Vfs interface ----

  Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(path);
    std::shared_ptr<FileState> state;
    if (it != files_.end()) {
      state = it->second;
    } else {
      state = std::make_shared<FileState>();
      files_.emplace(path, state);
    }
    return std::unique_ptr<WritableFile>(
        new MemWritableFile(this, state, IsSnapshotTmp(path)));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::IoError("read '" + path + "': no such file");
    }
    return it->second->data;
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::lock_guard<std::mutex> lk(mu_);
    std::string prefix = dir;
    if (prefix.empty() || prefix.back() != '/') prefix.push_back('/');
    std::vector<std::string> names;
    for (const auto& [path, _] : files_) {
      if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0 &&
          path.find('/', prefix.size()) == std::string::npos) {
        names.push_back(path.substr(prefix.size()));
      }
    }
    // files_ is an ordered map, so names are already sorted.
    return names;
  }

  bool Exists(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    return files_.count(path) > 0 || dirs_.count(path) > 0;
  }

  Status Delete(const std::string& path) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (files_.erase(path) == 0) {
      return Status::IoError("delete '" + path + "': no such file");
    }
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(from);
    if (it == files_.end()) {
      return Status::IoError("rename '" + from + "': no such file");
    }
    files_[to] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::IoError("truncate '" + path + "': no such file");
    }
    FileState& f = *it->second;
    if (size < f.data.size()) f.data.resize(size);
    f.durable = std::min<uint64_t>(f.durable, f.data.size());
    return Status::OK();
  }

  Status CreateDirs(const std::string& dir) override {
    std::lock_guard<std::mutex> lk(mu_);
    dirs_.insert(dir);
    return Status::OK();
  }

  Status SyncDir(const std::string&) override { return Status::OK(); }

 private:
  struct FileState {
    std::string data;
    uint64_t durable = 0;  // prefix length guaranteed to survive a crash
  };

  class MemWritableFile final : public WritableFile {
   public:
    MemWritableFile(MemVfs* vfs, std::shared_ptr<FileState> state,
                    bool snapshot_tmp)
        : vfs_(vfs), state_(std::move(state)), snapshot_tmp_(snapshot_tmp) {}

    Status Append(std::string_view data) override {
      if (snapshot_tmp_) vfs_->WaitWhileHeld();
      uint64_t take = data.size();
      Status fault = vfs_->faults_.Hit("memvfs.append", data.size(), &take);
      std::lock_guard<std::mutex> lk(vfs_->mu_);
      // Short-write semantics: the prefix the budget still had room for is
      // persisted, then the error surfaces — exactly what a full disk or a
      // killed write() leaves behind.
      state_->data.append(data.data(), static_cast<size_t>(take));
      return fault;
    }

    Status Sync() override {
      Status fault = vfs_->faults_.Hit("memvfs.sync");
      if (!fault.ok()) return fault;
      std::lock_guard<std::mutex> lk(vfs_->mu_);
      state_->durable = state_->data.size();
      return Status::OK();
    }

    Status Close() override { return Status::OK(); }

    uint64_t Size() const override {
      std::lock_guard<std::mutex> lk(vfs_->mu_);
      return state_->data.size();
    }

   private:
    MemVfs* vfs_;
    std::shared_ptr<FileState> state_;
    bool snapshot_tmp_;
  };

  friend class MemWritableFile;

  static bool IsSnapshotTmp(std::string_view path) {
    if (const size_t slash = path.rfind('/'); slash != path.npos) {
      path.remove_prefix(slash + 1);
    }
    return path.starts_with("snap-") && path.ends_with(".tmp");
  }

  void WaitWhileHeld() {
    std::unique_lock<std::mutex> lk(hold_mu_);
    if (!hold_) return;
    ++parked_;
    hold_cv_.notify_all();
    hold_cv_.wait(lk, [this] { return !hold_; });
    --parked_;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<FileState>> files_;
  std::set<std::string> dirs_;
  FaultRegistry faults_;  // owned: one MemVfs's faults never leak globally

  // Snapshot-write hold (its own lock: CloneCrashed must run while an
  // append is parked).
  std::mutex hold_mu_;
  std::condition_variable hold_cv_;
  bool hold_ = false;
  int parked_ = 0;
};

}  // namespace pgt::wal

#endif  // PGTRIGGERS_WAL_FAULT_FS_H_
