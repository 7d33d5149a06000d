#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace pgt::e2e {

namespace {

constexpr size_t kSpanCount = static_cast<size_t>(SpanId::kCount);

const char* const kSpanNames[kSpanCount] = {
    "writer.op",         "writer.interlock",   "cypher.prepare",
    "tx.begin",          "cypher.exec",        "tx.commit",
    "async.backpressure", "trigger.statement", "trigger.oncommit",
    "trigger.detached",  "wal.append",         "wal.sync",
    "wal.checkpoint",    "reader.op",          "storage.open_snapshot",
    "read.query",
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed span. `request` numbers the thread's root spans (writer or
/// reader ops), so spans of one request share it.
struct Record {
  uint32_t request;
  SpanId id;
  SpanId parent;  // == id for a root
  int64_t start_ns;
  int64_t dur_ns;
  int64_t self_ns;
};

struct OpenSpan {
  SpanId id;
  int64_t start_ns;
  int64_t child_ns;
};

struct ThreadBuffer {
  Role role = Role::kPool;
  uint32_t requests = 0;
  std::vector<Record> records;
  std::vector<OpenSpan> stack;
};

std::atomic<bool> g_armed{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->records.reserve(1 << 16);
    buf = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return buf;
}

double Percentile(std::vector<int64_t>& v, double q) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

bool IsSnapshotPath(const std::string& path) {
  return path.find("snap-") != std::string::npos;
}

/// Forwarding file handle of TracingVfs.
class TracingFile final : public wal::WritableFile {
 public:
  TracingFile(std::unique_ptr<wal::WritableFile> base, bool snapshot,
              TracingVfs::Counters* counters)
      : base_(std::move(base)), snapshot_(snapshot), counters_(counters) {}
  Status Append(std::string_view data) override {
    Span s(snapshot_ ? SpanId::kWalCheckpoint : SpanId::kWalAppend);
    if (!snapshot_) counters_->segment_bytes += data.size();
    return base_->Append(data);
  }
  Status Sync() override {
    Span s(snapshot_ ? SpanId::kWalCheckpoint : SpanId::kWalSync);
    if (!snapshot_) ++counters_->segment_syncs;
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<wal::WritableFile> base_;
  bool snapshot_;
  TracingVfs::Counters* counters_;
};

}  // namespace

const char* SpanName(SpanId id) {
  return kSpanNames[static_cast<size_t>(id)];
}

void ArmTracing(bool armed) {
  g_armed.store(armed, std::memory_order_release);
}

bool TracingArmed() { return g_armed.load(std::memory_order_relaxed); }

void SetThreadRole(Role role) { LocalBuffer()->role = role; }

Span::Span(SpanId id) {
  if (!TracingArmed()) return;
  ThreadBuffer* buf = LocalBuffer();
  if (id == SpanId::kWriterOp || id == SpanId::kReaderOp) ++buf->requests;
  buf->stack.push_back({id, NowNs(), 0});
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  const int64_t end = NowNs();
  ThreadBuffer* buf = LocalBuffer();
  const OpenSpan open = buf->stack.back();
  buf->stack.pop_back();
  const int64_t dur = end - open.start_ns;
  const SpanId parent = buf->stack.empty() ? open.id : buf->stack.back().id;
  if (!buf->stack.empty()) buf->stack.back().child_ns += dur;
  buf->records.push_back(
      {buf->requests, open.id, parent, open.start_ns, dur, dur - open.child_ns});
}

void ResetTrace() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    b->records.clear();
    b->requests = 0;
  }
}

TraceSummary SummarizeTrace(const std::string& dump_path) {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  TraceSummary out;
  std::vector<int64_t> durations[kSpanCount];
  int64_t self_ns[kSpanCount] = {};
  int64_t writer_layer_self = 0;
  int64_t writer_wall = 0;
  int64_t reader_wall = 0;
  FILE* dump = dump_path.empty() ? nullptr : std::fopen(dump_path.c_str(), "w");
  if (dump != nullptr) {
    std::fprintf(dump, "thread\trequest\tspan\tparent\tstart_ns\tdur_ns\tself_ns\n");
  }
  for (size_t t = 0; t < g_buffers.size(); ++t) {
    const ThreadBuffer& b = *g_buffers[t];
    for (const Record& r : b.records) {
      const size_t i = static_cast<size_t>(r.id);
      durations[i].push_back(r.dur_ns);
      self_ns[i] += r.self_ns;
      if (r.id == SpanId::kWriterOp) writer_wall += r.dur_ns;
      if (r.id == SpanId::kReaderOp) reader_wall += r.dur_ns;
      if (b.role == Role::kWriter && r.id != SpanId::kWriterOp) {
        writer_layer_self += r.self_ns;
      }
      if (dump != nullptr) {
        std::fprintf(dump, "%zu\t%u\t%s\t%s\t%lld\t%lld\t%lld\n", t,
                     r.request, SpanName(r.id), SpanName(r.parent),
                     static_cast<long long>(r.start_ns),
                     static_cast<long long>(r.dur_ns),
                     static_cast<long long>(r.self_ns));
      }
    }
  }
  if (dump != nullptr) std::fclose(dump);
  for (size_t i = 0; i < kSpanCount; ++i) {
    SpanStats s;
    s.calls = durations[i].size();
    s.self_ms = static_cast<double>(self_ns[i]) / 1e6;
    s.p50_us = Percentile(durations[i], 0.50) / 1e3;
    s.p99_us = Percentile(durations[i], 0.99) / 1e3;
    out.spans[static_cast<SpanId>(i)] = s;
  }
  out.writer_wall_ms = static_cast<double>(writer_wall) / 1e6;
  out.reader_wall_ms = static_cast<double>(reader_wall) / 1e6;
  out.writer_coverage =
      writer_wall > 0 ? static_cast<double>(writer_layer_self) /
                            static_cast<double>(writer_wall)
                      : 0;
  return out;
}

// --- TracingRuntime ----------------------------------------------------------

Status TracingRuntime::OnStatement(Transaction& tx, const GraphDelta& delta) {
  Span s(SpanId::kTriggerStatement);
  return inner_->OnStatement(tx, delta);
}

Status TracingRuntime::OnCommitPoint(Transaction& tx) {
  Span s(SpanId::kTriggerOncommit);
  return inner_->OnCommitPoint(tx);
}

Status TracingRuntime::AfterCommit(const GraphDelta& tx_delta) {
  Span s(SpanId::kTriggerDetached);
  return inner_->AfterCommit(tx_delta);
}

// --- TracingVfs --------------------------------------------------------------

Result<std::unique_ptr<wal::WritableFile>> TracingVfs::OpenAppend(
    const std::string& path) {
  const bool snapshot = IsSnapshotPath(path);
  in_checkpoint_ = snapshot;
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<wal::WritableFile> f,
                       base_->OpenAppend(path));
  return std::unique_ptr<wal::WritableFile>(
      std::make_unique<TracingFile>(std::move(f), snapshot, &counters_));
}

Status TracingVfs::Delete(const std::string& path) {
  if (!in_checkpoint_) return base_->Delete(path);
  Span s(SpanId::kWalCheckpoint);
  return base_->Delete(path);
}

Status TracingVfs::Rename(const std::string& from, const std::string& to) {
  Span s(SpanId::kWalCheckpoint);
  if (IsSnapshotPath(to)) ++counters_.snapshots_published;
  return base_->Rename(from, to);
}

Status TracingVfs::SyncDir(const std::string& dir) {
  Span s(in_checkpoint_ ? SpanId::kWalCheckpoint : SpanId::kWalSync);
  return base_->SyncDir(dir);
}

}  // namespace pgt::e2e
