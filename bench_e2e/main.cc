// End-to-end benchmark driver for reactive workloads (README.md lists the
// metrics and workloads).
//
//   bench_e2e --workload covid_surge --seed 1 --seconds 10 --trace 0
//   bench_e2e --smoke                      # every workload at toy size
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 replays
// the same op stream with every layer span armed and reports the per-layer
// metrics. The last line of standard output is one JSON object.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "src/common/macros.h"
#include "src/trigger/async_executor.h"
#include "src/storage/snapshot.h"
#include "trace.h"
#include "workloads.h"

namespace pgt::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;       // setup_s is the median of these
constexpr int kReopens = 3;      // recovery_s is the median of these
constexpr int kReaders = 2;
constexpr uint64_t kSmokeOps = 200;
/// Seed kept out of all tuning; quote results on it when claiming a gain.
constexpr uint64_t kHeldOutSeed = 9001;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (k > 0) --k;
  return v[std::min(k, v.size() - 1)];
}

/// Starts a fresh peak-RSS window: returns freed heap to the system, then
/// resets the kernel's high-water mark to the current RSS.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";
  std::string trace_file;
  std::string commit = "unknown";
};

// --- Load drivers -------------------------------------------------------------

struct ReaderResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> ms;
  double wall_s = 0;
  std::string first_error;

  void Merge(const ReaderResult& o) {
    ops += o.ops;
    failed += o.failed;
    ms.insert(ms.end(), o.ms.begin(), o.ms.end());
    wall_s = std::max(wall_s, o.wall_s);
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Held while a reader opens a snapshot and while it drops its
/// reference. SnapshotManager::Open holds a strong reference to the
/// previously cached snapshot under its own mutex; if another reader drops
/// the last other reference in that window, Open runs the snapshot's
/// destructor, which unpins under the same mutex and self-deadlocks.
/// Serializing the two steps keeps readers out of that window.
std::mutex g_snapshot_pin_mu;

Status RunRead(Workload& wl, const ReadOp& op) {
  Database& db = wl.db();
  Span root(SpanId::kReaderOp);
  std::shared_ptr<const GraphSnapshot> snap;
  struct Release {
    std::shared_ptr<const GraphSnapshot>& snap;
    ~Release() {
      std::lock_guard<std::mutex> lock(g_snapshot_pin_mu);
      snap.reset();
    }
  } release{snap};
  {
    Span s(SpanId::kStorageOpenSnapshot);
    std::lock_guard<std::mutex> lock(g_snapshot_pin_mu);
    PGT_ASSIGN_OR_RETURN(snap, db.OpenSnapshot());
  }
  {
    Span s(SpanId::kReadQuery);
    PGT_RETURN_IF_ERROR(db.QueryAt(*snap, op.probe, op.probe_params).status());
  }
  if (op.invariant.empty()) return Status::OK();
  Result<cypher::QueryResult> r = [&] {
    Span s(SpanId::kReadQuery);
    return db.QueryAt(*snap, op.invariant, op.invariant_params);
  }();
  if (!r.ok()) return r.status();
  return wl.CheckInvariant(*r);
}

/// Closed-loop readers until `stop` is set.
class ReaderPool {
 public:
  ReaderPool(Workload& wl, int n, uint64_t seed) : results_(n) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, &wl, seed, i] {
        SetThreadRole(Role::kReader);
        Rng rng(seed * 0x2545F4914F6CDD1Dull + 101 + i);
        ReaderResult& out = results_[i];
        const Clock::time_point t0 = Clock::now();
        while (!stop_.load(std::memory_order_relaxed)) {
          const ReadOp op = wl.NextRead(rng);
          const Clock::time_point s = Clock::now();
          const Status st = RunRead(wl, op);
          out.ms.push_back(Seconds(Clock::now() - s) * 1e3);
          ++out.ops;
          if (!st.ok()) {
            ++out.failed;
            if (out.first_error.empty()) out.first_error = st.ToString();
          }
        }
        out.wall_s = Seconds(Clock::now() - t0);
      });
    }
  }
  ~ReaderPool() { Stop(); }
  ReaderPool(const ReaderPool&) = delete;
  ReaderPool& operator=(const ReaderPool&) = delete;

  ReaderResult Stop() {
    stop_.store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    ReaderResult all;
    for (const ReaderResult& r : results_) all.Merge(r);
    return all;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<ReaderResult> results_;
  std::vector<std::thread> threads_;  // last: joined before results_ die
};

struct WindowResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> write_ms;  // per op, in issue order
  std::vector<double> late_ms;   // open loop: start - due
  double wall_s = 0;
  double busy_s = 0;             // sum of op service times
  ReaderResult reads;
  uint64_t queue_depth_max = 0;
  uint64_t sidecar_max = 0;
  uint64_t index_sidecar_max = 0;
  double peak_rss_mb = 0;  // read at Workload::rss_probe_ops(), if reached
  std::string first_error;
};

/// Drives the writer for `seconds` (or exactly `max_ops` ops when
/// non-zero), with `readers` closed-loop readers alongside.
WindowResult RunWindow(Workload& wl, double seconds, uint64_t max_ops,
                       bool traced, int readers, uint64_t seed) {
  Database& db = wl.db();
  SetThreadRole(Role::kWriter);
  WindowResult out;
  std::optional<ReaderPool> pool;
  if (readers > 0) pool.emplace(wl, readers, seed);
  const double rate = wl.open_loop_rate();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  Clock::time_point last_end = t0;
  for (uint64_t i = 0;; ++i) {
    if (max_ops > 0 && i >= max_ops) break;
    Clock::time_point due = Clock::now();
    if (rate > 0) {
      due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) /
                                                   rate));
    }
    if (max_ops == 0 && due >= deadline) break;
    const WriterOp op = wl.NextOp();
    if (rate > 0) std::this_thread::sleep_until(due);
    const Clock::time_point start = Clock::now();
    Status st;
    {
      Span root(SpanId::kWriterOp);
      st = traced ? RunOpTraced(db, op) : RunOp(db, op);
    }
    last_end = Clock::now();
    ++out.ops;
    if (out.ops == wl.rss_probe_ops()) out.peak_rss_mb = PeakRssMb();
    out.busy_s += Seconds(last_end - start);
    out.write_ms.push_back(Seconds(last_end - (rate > 0 ? due : start)) * 1e3);
    if (rate > 0) out.late_ms.push_back(Seconds(start - due) * 1e3);
    if (!st.ok()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = st.ToString();
    }
    if (traced) {
      if (db.async() != nullptr) {
        out.queue_depth_max =
            std::max(out.queue_depth_max, db.async()->Stats().queue_depth);
      }
      if (i % 16 == 0 && db.store().snapshots().armed()) {
        out.sidecar_max = std::max<uint64_t>(
            out.sidecar_max, db.store().snapshots().SidecarVersions());
        out.index_sidecar_max = std::max<uint64_t>(
            out.index_sidecar_max,
            db.store().snapshots().IndexSidecarVersions());
      }
    }
  }
  out.wall_s = Seconds(last_end - t0);
  if (pool.has_value()) out.reads = pool->Stop();
  return out;
}

/// Ratio of the median per-op latency of the last tenth of the window to
/// the first tenth's: > 1 means cost grew with run length.
double Drift(const std::vector<double>& ms) {
  const size_t tenth = ms.size() / 10;
  if (tenth < 5) return 1;
  std::vector<double> first(ms.begin(), ms.begin() + tenth);
  std::vector<double> last(ms.end() - tenth, ms.end());
  const double a = Median(first);
  return a > 0 ? Median(last) / a : 1;
}
constexpr double kMaxDrift = 1.25;

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

/// Prints every metric as a table, then the run metadata, then the result
/// JSON with `metrics` only: `scoped` holds the metrics that apply to this
/// workload alone (BENCHMARK.json lists only those every workload has).
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics,
                 const std::vector<Metric>& scoped, const Meta& meta) {
  for (const std::vector<Metric>* list : {&metrics, &scoped}) {
    for (const Metric& m : *list) {
      std::printf("%-34s %16s %s\n", m.name.c_str(),
                  FormatNumber(m.value).c_str(), m.unit.c_str());
    }
  }
  std::string line = "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    line += (first ? "\"" : ", \"") + k + "\": " + v;
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

Meta BaseMeta(const Args& a, const Workload& wl) {
  Meta m;
  wl.Describe(&m);
  m["workload"] = "\"" + a.workload + "\"";
  m["seed"] = std::to_string(a.seed);
  m["held_out_seed"] = std::to_string(kHeldOutSeed);
  m["seconds"] = FormatNumber(a.seconds);
  m["commit"] = "\"" + JsonEscape(a.commit) + "\"";
  m["build_type"] = "\"" PGT_BUILD_TYPE "\"";
  m["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  m["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  m["trace"] = a.trace ? "true" : "false";
  return m;
}

/// Failures found by checks (oracles, checksums), reported on stderr and
/// counted against error_rate.
struct Verdict {
  uint64_t checks = 0;
  uint64_t violations = 0;
  void Check(const Status& st, const char* what) {
    ++checks;
    if (st.ok()) return;
    ++violations;
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", what,
                 st.ToString().c_str());
  }
  void Check(bool ok, const std::string& what) {
    Check(ok ? Status::OK() : Status::FailedPrecondition(what), "checksum");
  }
};

std::string RunDir(const Args& a, const char* tag) {
  return a.work_dir + "/" + a.workload + "-" + std::to_string(getpid()) +
         "-" + tag;
}

Result<std::unique_ptr<Workload>> BuildWorkload(const Args& a, bool traced,
                                                const std::string& dir,
                                                double* setup_s) {
  std::unique_ptr<Workload> wl = MakeWorkload(a.workload);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  SetupEnv env;
  env.seed = a.seed;
  env.smoke = a.smoke;
  env.traced = traced;
  env.dir = dir;
  const Clock::time_point t0 = Clock::now();
  PGT_RETURN_IF_ERROR(wl->Setup(env));
  if (setup_s != nullptr) *setup_s = Seconds(Clock::now() - t0);
  // Window counters start from zero: warm-up firings are not part of it.
  wl->db().stats().Clear();
  return wl;
}

void ReportWindow(const char* label, const WindowResult& w) {
  std::fprintf(stderr,
               "%s: %llu writer ops (%llu failed) in %.3f s; %llu reads "
               "(%llu failed)%s%s\n",
               label, static_cast<unsigned long long>(w.ops),
               static_cast<unsigned long long>(w.failed), w.wall_s,
               static_cast<unsigned long long>(w.reads.ops),
               static_cast<unsigned long long>(w.reads.failed),
               w.first_error.empty() ? "" : "; first writer error: ",
               w.first_error.c_str());
  if (!w.reads.first_error.empty()) {
    std::fprintf(stderr, "  first reader error: %s\n",
                 w.reads.first_error.c_str());
  }
}

// --- Untraced run: the end-to-end metrics ------------------------------------

int RunMeasured(const Args& a) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> wl;
  const std::string dir = RunDir(a, "run");
  for (int i = 0; i < kSetups; ++i) {
    wl.reset();  // free the previous instance before building the next
    double s = 0;
    auto built = BuildWorkload(a, false, dir, &s);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    wl = std::move(built).value();
    setup_s.push_back(s);
  }
  const int readers = wl->has_readers() ? kReaders : 0;
  ResetPeakRss();
  WindowResult w = RunWindow(*wl, a.seconds, 0, false, readers, a.seed);
  wl->Quiesce();
  const double peak = w.peak_rss_mb > 0 ? w.peak_rss_mb : PeakRssMb();
  ReportWindow("window", w);

  Verdict v;
  v.Check(wl->Oracle(), "oracle");
  const Checksum sum = ComputeChecksum(wl->db());
  std::vector<Metric> scoped;
  if (readers > 0) {
    scoped.push_back({"read_ops_per_s",
                      static_cast<double>(w.reads.ops - w.reads.failed) /
                          std::max(w.reads.wall_s, 1e-9),
                      "1/s"});
    scoped.push_back({"read_p50_ms", Percentile(w.reads.ms, 0.50), "ms"});
    scoped.push_back({"read_p99_ms", Percentile(w.reads.ms, 0.99), "ms"});
  }
  if (std::optional<wal::WalOptions> durable = wl->DurableWal()) {
    auto rec = MeasureRecovery(wl->db(), *durable, wl->options(), kReopens);
    v.Check(rec.status(), "recovery");
    if (rec.ok()) {
      scoped.push_back({"recovery_s", Median(rec->open_seconds), "s"});
      v.Check(rec->reopened.graph == sum.graph &&
                  rec->reopened.nodes == sum.nodes,
              "reopened state " + rec->reopened.ToString() +
                  " != pre-close state " + sum.ToString());
    }
  }

  const double write_drift = Drift(w.write_ms);
  const double read_drift = readers > 0 ? Drift(w.reads.ms) : 1;
  const bool steady = write_drift <= kMaxDrift && read_drift <= kMaxDrift;
  if (!steady) {
    std::fprintf(stderr,
                 "UNSTEADY: per-op cost grew over the window (writer drift "
                 "%.3f, reader drift %.3f)\n",
                 write_drift, read_drift);
  }
  Meta meta = BaseMeta(a, *wl);
  meta["checksum"] = "\"" + sum.ToString() + "\"";
  meta["write_samples"] = std::to_string(w.write_ms.size());
  meta["writer_drift"] = FormatNumber(write_drift);
  if (readers > 0) {
    meta["read_samples"] = std::to_string(w.reads.ms.size());
    meta["reader_drift"] = FormatNumber(read_drift);
  }
  meta["steady"] = steady ? "true" : "false";
  meta["setups"] = std::to_string(kSetups);
  meta["reader_threads"] = std::to_string(readers);
  if (wl->DurableWal()) meta["reopens"] = std::to_string(kReopens);
  for (const Metric& m : scoped) meta[m.name] = FormatNumber(m.value);
  wl.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const uint64_t attempted = w.ops + w.reads.ops + v.checks;
  const uint64_t failed = w.failed + w.reads.failed + v.violations;
  meta["error_rate"] = FormatNumber(static_cast<double>(failed) /
                                    static_cast<double>(attempted));
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"write_ops_per_s",
       static_cast<double>(w.ops - w.failed) / std::max(w.wall_s, 1e-9),
       "1/s"},
      {"write_p50_ms", Percentile(w.write_ms, 0.50), "ms"},
      {"write_p99_ms", Percentile(w.write_ms, 0.99), "ms"},
      {"peak_rss_mb", peak, "MB"},
  };
  PrintResult(failed == 0, attempted, failed, metrics, scoped, meta);
  return failed == 0 ? 0 : 1;
}

// --- Traced run: the per-layer metrics ----------------------------------------

/// Counters read through public accessors, before and after the window.
struct Counters {
  uint64_t ivm_served = 0, ivm_fallbacks = 0, ivm_maintain = 0;
  int64_t ivm_bytes = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  uint64_t trigger_recompiles = 0, adhoc_recompiles = 0;
  uint64_t commits = 0;
  AsyncPoolStats async;
  TracingVfs::Counters wal;

  static Counters Read(Workload& wl) {
    Database& db = wl.db();
    Counters c;
    for (const ivm::TriggerIvmState* st : db.ivm().States()) {
      c.ivm_served += st->served();
      c.ivm_fallbacks += st->fallback_firings();
      c.ivm_bytes += st->bytes();
    }
    c.ivm_maintain = db.ivm().counters().maintain_ops;
    c.plan_hits = db.plan_cache().hits();
    c.plan_misses = db.plan_cache().misses();
    c.trigger_recompiles = db.plan_compile_counters().trigger_recompiles;
    c.adhoc_recompiles = db.adhoc_plan_recompiles();
    c.commits = db.committed_transactions();
    if (db.async() != nullptr) c.async = db.async()->Stats();
    if (wl.tracing_vfs() != nullptr) c.wal = wl.tracing_vfs()->counters();
    return c;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunTraced(const Args& a) {
  const std::string dir = RunDir(a, "trace");
  Verdict v;
  // Reference: the untraced stream for `seconds`, fixing the op count.
  auto ref_wl = BuildWorkload(a, false, dir, nullptr);
  if (!ref_wl.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 ref_wl.status().ToString().c_str());
    return 1;
  }
  const int readers = (*ref_wl)->has_readers() ? kReaders : 0;
  const WindowResult ref =
      RunWindow(**ref_wl, a.seconds, 0, false, readers, a.seed);
  (*ref_wl)->Quiesce();
  ReportWindow("untraced window", ref);
  const Checksum ref_sum = ComputeChecksum((*ref_wl)->db());
  ref_wl->reset();

  // The same ops again with every span armed.
  auto built = BuildWorkload(a, true, dir, nullptr);
  if (!built.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Workload> wl = std::move(built).value();
  Database& db = wl->db();
  const Counters before = Counters::Read(*wl);
  ResetTrace();
  ArmTracing(true);
  WindowResult w = RunWindow(*wl, 0, ref.ops, true, readers, a.seed);
  ArmTracing(false);
  wl->Quiesce();
  ReportWindow("traced window", w);
  const TraceSummary trace = SummarizeTrace(a.trace_file);
  const Counters after = Counters::Read(*wl);
  v.Check(wl->Oracle(), "oracle");
  const Checksum sum = ComputeChecksum(db);
  v.Check(sum == ref_sum, "traced state " + sum.ToString() +
                              " != untraced state " + ref_sum.ToString());

  std::vector<Metric> m;
  const SpanId kReported[] = {
      SpanId::kTriggerStatement, SpanId::kTriggerOncommit,
      SpanId::kTriggerDetached,  SpanId::kWalAppend,
      SpanId::kWalSync,          SpanId::kWalCheckpoint,
      SpanId::kWriterInterlock,  SpanId::kCypherPrepare,
      SpanId::kTxBegin,          SpanId::kCypherExec,
      SpanId::kTxCommit,         SpanId::kAsyncBackpressure,
      SpanId::kStorageOpenSnapshot, SpanId::kReadQuery};
  for (SpanId id : kReported) {
    const SpanStats& s = trace.spans.at(id);
    const bool reader =
        id == SpanId::kStorageOpenSnapshot || id == SpanId::kReadQuery;
    const std::string n = SpanName(id);
    m.push_back({n + ".calls", static_cast<double>(s.calls), "count"});
    m.push_back({n + ".self_ms", s.self_ms, "ms"});
    m.push_back({n + ".share",
                 Ratio(s.self_ms,
                       reader ? trace.reader_wall_ms : trace.writer_wall_ms),
                 "ratio"});
    m.push_back({n + ".p50_us", s.p50_us, "us"});
    m.push_back({n + ".p99_us", s.p99_us, "us"});
  }

  uint64_t considered = 0, fired = 0, action_rows = 0;
  for (const auto& [name, ts] : db.stats().per_trigger) {
    considered += ts.considered;
    fired += ts.fired;
    action_rows += ts.action_rows;
  }
  const EngineStats& es = db.stats();
  const double ops = static_cast<double>(w.ops);
  const double commits = static_cast<double>(after.commits - before.commits);
  const double served =
      static_cast<double>(after.ivm_served - before.ivm_served);
  const double enqueued =
      static_cast<double>(after.async.enqueued - before.async.enqueued);
  const double hits = static_cast<double>(after.plan_hits - before.plan_hits);
  const double lookups =
      hits + static_cast<double>(after.plan_misses - before.plan_misses);
  const std::vector<Metric> counters = {
      {"trigger.considered", static_cast<double>(considered), "count"},
      {"trigger.fired", static_cast<double>(fired), "count"},
      {"trigger.fire_ratio", Ratio(fired, considered), "ratio"},
      {"trigger.action_rows", static_cast<double>(action_rows), "count"},
      {"trigger.cascade_depth_max", static_cast<double>(es.cascade_depth_max),
       "count"},
      {"trigger.oncommit_rounds_max",
       static_cast<double>(es.oncommit_rounds_max), "count"},
      {"trigger.detached_runs", static_cast<double>(es.detached_runs),
       "count"},
      {"ivm.served", served, "count"},
      {"ivm.fallbacks",
       static_cast<double>(after.ivm_fallbacks - before.ivm_fallbacks),
       "count"},
      {"ivm.coverage", Ratio(served, considered), "ratio"},
      {"ivm.maintain_ops_per_op",
       Ratio(static_cast<double>(after.ivm_maintain - before.ivm_maintain),
             ops),
       "ratio"},
      {"ivm.bytes", static_cast<double>(after.ivm_bytes), "bytes"},
      {"plan.cache_hit_ratio", Ratio(hits, lookups), "ratio"},
      {"plan.trigger_recompiles",
       static_cast<double>(after.trigger_recompiles -
                           before.trigger_recompiles),
       "count"},
      {"plan.adhoc_recompiles",
       static_cast<double>(after.adhoc_recompiles - before.adhoc_recompiles),
       "count"},
      {"wal.bytes_per_commit",
       Ratio(static_cast<double>(after.wal.segment_bytes -
                                 before.wal.segment_bytes),
             commits),
       "bytes"},
      {"wal.syncs_per_commit",
       Ratio(static_cast<double>(after.wal.segment_syncs -
                                 before.wal.segment_syncs),
             commits),
       "ratio"},
      {"wal.checkpoints",
       static_cast<double>(after.wal.snapshots_published -
                           before.wal.snapshots_published),
       "count"},
      {"async.enqueued", enqueued, "count"},
      {"async.prefilter_ratio",
       Ratio(static_cast<double>(after.async.prefiltered -
                                 before.async.prefiltered),
             enqueued),
       "ratio"},
      {"async.deferred",
       static_cast<double>(after.async.deferred - before.async.deferred),
       "count"},
      {"async.spilled",
       static_cast<double>(after.async.spilled - before.async.spilled),
       "count"},
      {"async.rejected",
       static_cast<double>(after.async.rejected - before.async.rejected),
       "count"},
      {"async.queue_depth_max", static_cast<double>(w.queue_depth_max),
       "count"},
      {"storage.sidecar_versions_max", static_cast<double>(w.sidecar_max),
       "count"},
      {"storage.index_sidecar_versions_max",
       static_cast<double>(w.index_sidecar_max), "count"},
      {"driver.late_p99_ms", Percentile(w.late_ms, 0.99), "ms"},
      {"trace.coverage", trace.writer_coverage, "ratio"},
      {"trace.overhead", Ratio(w.busy_s, ref.busy_s) - 1, "ratio"},
  };
  m.insert(m.end(), counters.begin(), counters.end());

  Meta meta = BaseMeta(a, *wl);
  meta["checksum"] = "\"" + sum.ToString() + "\"";
  meta["ops"] = std::to_string(w.ops);
  meta["writer_wall_ms"] = FormatNumber(trace.writer_wall_ms);
  meta["reader_wall_ms"] = FormatNumber(trace.reader_wall_ms);
  wl.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  const uint64_t attempted = w.ops + w.reads.ops + v.checks;
  const uint64_t failed = w.failed + w.reads.failed + v.violations;
  m.push_back({"error_rate",
               static_cast<double>(failed) / static_cast<double>(attempted),
               "ratio"});
  PrintResult(failed == 0, attempted, failed, m, {}, meta);
  return failed == 0 ? 0 : 1;
}

// --- Smoke: every workload at toy size, every check ---------------------------

bool SmokeOne(Args a) {
  a.smoke = true;
  const std::string dir = RunDir(a, "smoke");
  Verdict v;
  std::vector<Checksum> sums;
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 2;
    auto built = BuildWorkload(a, traced, dir, nullptr);
    if (!built.ok()) {
      std::fprintf(stderr, "%s: setup failed: %s\n", a.workload.c_str(),
                   built.status().ToString().c_str());
      return false;
    }
    std::unique_ptr<Workload> wl = std::move(built).value();
    const int readers = wl->has_readers() ? kReaders : 0;
    ArmTracing(traced);
    ResetTrace();
    WindowResult w = RunWindow(*wl, 0, kSmokeOps, traced, readers, a.seed);
    ArmTracing(false);
    wl->Quiesce();
    v.Check(w.failed == 0 && w.reads.failed == 0,
            "ops failed: " + w.first_error + w.reads.first_error);
    v.Check(wl->Oracle(), "oracle");
    sums.push_back(ComputeChecksum(wl->db()));
    if (traced) {
      const TraceSummary t = SummarizeTrace("");
      std::printf("%s: traced coverage %.3f over %llu ops\n",
                  a.workload.c_str(), t.writer_coverage,
                  static_cast<unsigned long long>(w.ops));
    }
    std::optional<wal::WalOptions> durable = wl->DurableWal();
    if (pass == 0 && durable) {
      auto rec = MeasureRecovery(wl->db(), *durable, wl->options(), 1);
      v.Check(rec.status(), "recovery");
      if (rec.ok()) {
        v.Check(rec->reopened.graph == sums[0].graph,
                "reopened " + rec->reopened.ToString() + " != " +
                    sums[0].ToString());
      }
    }
  }
  v.Check(sums[1] == sums[0], "same-seed rerun " + sums[1].ToString() +
                                  " != " + sums[0].ToString());
  v.Check(sums[2] == sums[0], "traced run " + sums[2].ToString() + " != " +
                                  "untraced " + sums[0].ToString());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::printf("%s: %s (%llu checks, checksum %s)\n", a.workload.c_str(),
              v.violations == 0 ? "PASS" : "FAIL",
              static_cast<unsigned long long>(v.checks),
              sums[0].ToString().c_str());
  return v.violations == 0;
}

int RunSmoke(Args a) {
  std::vector<std::string> names = WorkloadNames();
  if (!a.workload.empty()) names = {a.workload};
  bool ok = true;
  for (const std::string& n : names) {
    a.workload = n;
    ok = SmokeOne(a) && ok;
  }
  std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-file PATH] "
               "[--commit ID]\n"
               "       bench_e2e --smoke [--workload NAME]\n"
               "workloads: covid_surge fraud_stream snapshot_analytics\n");
  return 2;
}

}  // namespace
}  // namespace pgt::e2e

int main(int argc, char** argv) {
  using namespace pgt::e2e;
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (!has_value) {
      return Usage();
    } else if (k == "--workload") {
      a.workload = argv[++i];
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--work-dir") {
      a.work_dir = argv[++i];
    } else if (k == "--trace-file") {
      a.trace_file = argv[++i];
    } else if (k == "--commit") {
      a.commit = argv[++i];
    } else {
      return Usage();
    }
  }
  if (a.smoke) return RunSmoke(a);
  if (MakeWorkload(a.workload) == nullptr || a.seconds <= 0) return Usage();
  return a.trace ? RunTraced(a) : RunMeasured(a);
}
