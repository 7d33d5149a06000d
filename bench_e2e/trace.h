#ifndef PGT_BENCH_E2E_TRACE_H_
#define PGT_BENCH_E2E_TRACE_H_

// Outside-in layer tracing for the end-to-end benchmark. Spans are recorded
// only from benchmark code, around calls into each layer's public entry
// points: a delegating TriggerRuntime, a forwarding WAL Vfs, and the traced
// writer/reader drivers in workloads.cc. Each thread appends to its own
// in-memory buffer; buffers are aggregated (and optionally written out)
// when the run ends.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/trigger/engine.h"
#include "src/wal/vfs.h"

namespace pgt::e2e {

/// Layer boundaries, named after the repository's modules. kWriterOp and
/// kReaderOp are the per-request roots: their self time is what no layer
/// span covers (the trace's attribution gap).
enum class SpanId : uint8_t {
  kWriterOp,
  kWriterInterlock,
  kCypherPrepare,
  kTxBegin,
  kCypherExec,
  kTxCommit,
  kAsyncBackpressure,
  kTriggerStatement,
  kTriggerOncommit,
  kTriggerDetached,
  kWalAppend,
  kWalSync,
  kWalCheckpoint,
  kReaderOp,
  kStorageOpenSnapshot,
  kReadQuery,
  kCount,
};

const char* SpanName(SpanId id);

/// Which wall time a thread's spans are shared against.
enum class Role : uint8_t { kWriter, kReader, kPool };

/// Turns recording on or off process-wide (off: a Span costs one relaxed
/// atomic load).
void ArmTracing(bool armed);
bool TracingArmed();

/// Declares the calling thread's role. Threads that never call this (the
/// async pool's workers) record as kPool.
void SetThreadRole(Role role);

/// RAII span: start at construction, end at destruction. Nested spans on
/// the same thread form a stack; a span's self time excludes its children.
class Span {
 public:
  explicit Span(SpanId id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Aggregate over every thread's buffer, per span.
struct SpanStats {
  uint64_t calls = 0;
  double self_ms = 0;
  double p50_us = 0;  // inclusive duration
  double p99_us = 0;
};
struct TraceSummary {
  std::map<SpanId, SpanStats> spans;
  double writer_wall_ms = 0;  // inclusive time of all kWriterOp spans
  double reader_wall_ms = 0;  // inclusive time of all kReaderOp spans
  /// Layer self time on the writer thread divided by writer wall time.
  double writer_coverage = 0;
};

/// Aggregates all buffers recorded since the last ResetTrace(). When
/// `dump_path` is non-empty every raw span is also written there as TSV
/// (thread, request, span, parent, start_ns, dur_ns, self_ns).
TraceSummary SummarizeTrace(const std::string& dump_path);
void ResetTrace();

/// Delegating trigger runtime: forwards to the native engine and times
/// OnStatement / OnCommitPoint / AfterCommit. Re-entrant (DETACHED
/// autonomous commits call back in from inside AfterCommit and from the
/// async pool's thread).
class TracingRuntime final : public TriggerRuntime {
 public:
  explicit TracingRuntime(PgTriggerEngine* inner) : inner_(inner) {}
  Status OnStatement(Transaction& tx, const GraphDelta& delta) override;
  Status OnCommitPoint(Transaction& tx) override;
  Status AfterCommit(const GraphDelta& tx_delta) override;
  const char* name() const override { return inner_->name(); }

 private:
  PgTriggerEngine* inner_;
};

/// Forwarding WAL filesystem: times segment appends (wal.append) and
/// fsyncs (wal.sync); snapshot-file IO (writes, fsync, rename, directory
/// sync, purge) is attributed to wal.checkpoint. Also counts segment
/// bytes, segment syncs, and published snapshots.
class TracingVfs final : public wal::Vfs {
 public:
  explicit TracingVfs(wal::Vfs* base) : base_(base) {}
  Result<std::unique_ptr<wal::WritableFile>> OpenAppend(
      const std::string& path) override;
  Result<std::string> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  Status Delete(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Truncate(const std::string& path, uint64_t size) override {
    return base_->Truncate(path, size);
  }
  Status CreateDirs(const std::string& dir) override {
    return base_->CreateDirs(dir);
  }
  Status SyncDir(const std::string& dir) override;

  struct Counters {
    uint64_t segment_bytes = 0;
    uint64_t segment_syncs = 0;
    uint64_t snapshots_published = 0;
  };
  /// Writer-thread counters (the WAL is single-writer).
  Counters& counters() { return counters_; }

 private:
  wal::Vfs* base_;
  Counters counters_;
  /// True from a snapshot file's creation until the next segment opens:
  /// the rename, purge, and directory syncs between belong to the
  /// checkpoint.
  bool in_checkpoint_ = false;
};

}  // namespace pgt::e2e

#endif  // PGT_BENCH_E2E_TRACE_H_
