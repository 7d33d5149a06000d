#ifndef PGTRIGGERS_WAL_VFS_H_
#define PGTRIGGERS_WAL_VFS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace pgt::wal {

/// Append-only file handle. The WAL never seeks or overwrites: segments and
/// snapshots are written front to back, which is what makes the torn-tail
/// recovery model (a crash loses a suffix, never the middle) sound.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::string_view data) = 0;
  /// Durability barrier: on return, every previously appended byte survives
  /// power loss (fdatasync on the posix implementation).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
  /// Bytes appended so far (durable or not).
  virtual uint64_t Size() const = 0;
};

/// Filesystem abstraction in the sqlite/LevelDB VFS tradition. Production
/// code uses Vfs::Posix(); crash-recovery tests swap in the MemVfs fault
/// shim (fault_fs.h) to model power loss, torn tails, bit flips, and
/// failing fsyncs without touching a real disk.
///
/// Thread contract: implementations must accept concurrent calls on
/// distinct paths (and directory listings beside them). The checkpoint
/// thread writes, renames and purges snapshot and old segment files while
/// the writer appends to the current segment. Vfs::Posix() is stateless;
/// MemVfs locks.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens for appending, creating the file if missing. Existing bytes are
  /// preserved (recovery reopens the tail segment for further appends).
  virtual Result<std::unique_ptr<WritableFile>> OpenAppend(
      const std::string& path) = 0;

  /// Reads the whole file into a string.
  virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Sorted names (not paths) of directory entries; missing dir is an error.
  virtual Result<std::vector<std::string>> ListDir(const std::string& dir) = 0;

  virtual bool Exists(const std::string& path) = 0;
  virtual Status Delete(const std::string& path) = 0;
  /// Atomic rename (the snapshot publish step: write tmp, fsync, rename).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Drops all bytes past `size` (recovery truncates a torn tail in place).
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;
  virtual Status CreateDirs(const std::string& dir) = 0;
  /// Makes directory metadata (created/renamed/deleted entries) durable.
  virtual Status SyncDir(const std::string& dir) = 0;

  /// Process-wide posix-backed instance (not owned).
  static Vfs* Posix();
};

/// Joins with exactly one '/' between the parts.
std::string JoinPath(std::string_view dir, std::string_view name);

}  // namespace pgt::wal

#endif  // PGTRIGGERS_WAL_VFS_H_
