// Writer-latency offload of DETACHED trigger work (docs/async.md): a
// request-style writer commits small events separated by think time while
// a DETACHED trigger carries an expensive scan-the-graph WHEN condition
// that almost never fires. On-writer (pool 0) every commit pays the scan
// inline; with the pool the writer returns immediately and the workers
// pre-evaluate the WHEN against the pinned snapshot during the think gap,
// retiring no-fire activations off-writer (`prefiltered`).
//
//   $ ./build/bench_async_offload [BENCH_async.json] [--smoke]
//
// Acceptance goals:
//   * writer p99 with async_pool_size=1 at least 5x better than the
//     on-writer baseline (achievable even on one core: the worker burns
//     the think gap, not writer time);
//   * the snapshot-pinned index probe (QueryAt over versioned postings)
//     within 2x of the same probe on the live view.
// Correctness gate: every mode must end with exactly the expected number
// of fired actions and zero lost activations.
// --smoke shrinks the graph and iteration counts (CI: correctness gate).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/trigger/async_executor.h"

namespace pgt::bench {
namespace {

struct Config {
  int persons = 10'000;
  int commits = 300;
  int fire_every = 10;  // every Nth event carries hot=1 and must fire
  int probe_iters = 400;
};

struct Point {
  std::string mode;
  double p50_us = 0;
  double p99_us = 0;
  double drain_ms = 0;
  long prefiltered = 0;
  long deferred = 0;
  long fired = 0;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

void BuildGraph(Database& db, const Config& cfg) {
  std::vector<std::string> batch;
  for (int i = 0; i < cfg.persons; ++i) {
    batch.push_back("CREATE (:Person {pid: " + std::to_string(i) +
                    ", score: " + std::to_string(i % 100) + "})");
    if (batch.size() == 1000) {
      auto r = db.ExecuteTx(batch);
      if (!r.ok()) std::abort();
      batch.clear();
    }
  }
  if (!batch.empty()) {
    auto r = db.ExecuteTx(batch);
    if (!r.ok()) std::abort();
  }
  MustExec(db, "CREATE INDEX ON :Person(score)");
}

/// The trigger under test: the WHEN pipeline scans every Person (an
/// aggregate the planner cannot shortcut) and passes only for hot events.
void InstallAuditTrigger(Database& db) {
  MustExec(db,
           "CREATE TRIGGER Audit DETACHED CREATE ON 'Evt' FOR EACH NODE "
           "WHEN MATCH (p:Person) WITH count(p) AS c, NEW.hot AS h "
           "WHERE c >= 0 AND h = 1 "
           "BEGIN CREATE (:Fired) END");
}

/// One writer run: cfg.commits events, think-time gap between commits.
Point RunMode(const std::string& mode, const Config& cfg, int pool,
              double think_us) {
  EngineOptions opts;
  opts.async_pool_size = pool;
  opts.async_queue_capacity = 1 << 16;
  Database db(opts);
  BuildGraph(db, cfg);
  InstallAuditTrigger(db);

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<size_t>(cfg.commits));
  for (int i = 0; i < cfg.commits; ++i) {
    const int hot = (i % cfg.fire_every == 0) ? 1 : 0;
    Stopwatch sw;
    MustExec(db, "CREATE (:Evt {i: " + std::to_string(i) +
                     ", hot: " + std::to_string(hot) + "})");
    lat_us.push_back(sw.ElapsedMicros());
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(think_us)));
  }

  Stopwatch drain;
  db.DrainAsync();

  Point pt;
  pt.mode = mode;
  pt.p50_us = Percentile(lat_us, 0.50);
  pt.p99_us = Percentile(lat_us, 0.99);
  pt.drain_ms = drain.ElapsedMillis();
  if (db.async() != nullptr) {
    AsyncPoolStats s = db.async()->Stats();
    pt.prefiltered = static_cast<long>(s.prefiltered);
    pt.deferred = static_cast<long>(s.deferred);
    if (s.enqueued != s.applied || s.rejected != 0) {
      std::fprintf(stderr, "FATAL: lost activations in mode %s\n",
                   mode.c_str());
      std::abort();
    }
  }
  pt.fired = static_cast<long>(db.stats().per_trigger["Audit"].fired);
  return pt;
}

/// Versioned-postings gate: the same index probe through a pinned
/// snapshot (epoch-tagged posting chains) vs the live view.
bool ProbeGate(const Config& cfg, double* snapshot_ratio) {
  Database db;
  BuildGraph(db, cfg);
  const std::string probe =
      "MATCH (p:Person) WHERE p.score = 42 RETURN count(p) AS c";
  // A little churn so the posting chains actually carry versions.
  for (int i = 0; i < 50; ++i) {
    MustExec(db, "MATCH (p:Person {pid: " + std::to_string(i * 7) +
                     "}) SET p.score = 42");
  }
  auto snap = db.store().OpenSnapshot();
  for (int i = 0; i < 20; ++i) {  // post-pin churn: snapshot reads old chain
    MustExec(db, "MATCH (p:Person {pid: " + std::to_string(i * 11 + 3) +
                     "}) SET p.score = 43");
  }
  std::vector<double> live_us, snap_us;
  for (int i = 0; i < cfg.probe_iters; ++i) {
    Stopwatch sw1;
    MustExec(db, probe);
    live_us.push_back(sw1.ElapsedMicros());
    Stopwatch sw2;
    auto r = db.QueryAt(*snap, probe);
    if (!r.ok()) std::abort();
    snap_us.push_back(sw2.ElapsedMicros());
  }
  const double live_p50 = Percentile(live_us, 0.50);
  const double snap_p50 = Percentile(snap_us, 0.50);
  *snapshot_ratio = live_p50 > 0 ? snap_p50 / live_p50 : 0;
  return *snapshot_ratio <= 2.0;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_async.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  Config cfg;
  if (smoke) {
    cfg.persons = 1'000;
    cfg.commits = 40;
    cfg.probe_iters = 50;
  }

  Banner("BENCH-async",
         "writer latency with DETACHED triggers: on-writer vs worker pool");

  // Calibrate the inline cost of the audit WHEN, then give the pool a
  // think gap comfortably larger so one worker can keep up on one core.
  double scan_us = 0;
  {
    Database db;
    BuildGraph(db, cfg);
    std::vector<double> probe_us;
    for (int i = 0; i < 5; ++i) {
      Stopwatch sw;
      MustExec(db, "MATCH (p:Person) RETURN count(p) AS c");
      probe_us.push_back(sw.ElapsedMicros());
    }
    scan_us = Percentile(probe_us, 0.50);
  }
  const double think_us = std::max(2000.0, 5.0 * scan_us);
  std::printf("  calibrated WHEN scan: %.0f us; think gap: %.0f us\n",
              scan_us, think_us);

  std::vector<Point> points;
  points.push_back(RunMode("on-writer", cfg, 0, think_us));
  points.push_back(RunMode("pool-1", cfg, 1, think_us));
  points.push_back(RunMode("pool-4", cfg, 4, think_us));
  const long expected_fired =
      (cfg.commits + cfg.fire_every - 1) / cfg.fire_every;
  bool correct = true;
  for (const Point& p : points) {
    std::printf(
        "  %-10s p50=%8.1fus  p99=%8.1fus  drain=%7.1fms  prefiltered=%ld  "
        "deferred=%ld  fired=%ld\n",
        p.mode.c_str(), p.p50_us, p.p99_us, p.drain_ms, p.prefiltered,
        p.deferred, p.fired);
    if (p.fired != expected_fired) {
      std::printf("  FAIL: %s fired %ld, expected %ld\n", p.mode.c_str(),
                  p.fired, expected_fired);
      correct = false;
    }
  }
  const double speedup_p99 =
      points[1].p99_us > 0 ? points[0].p99_us / points[1].p99_us : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\n  writer p99 offload (on-writer / pool-1): %.2fx "
              "(goal >= 5x; hardware_concurrency=%u)\n",
              speedup_p99, hw);

  double snapshot_ratio = 0;
  const bool probe_ok = ProbeGate(cfg, &snapshot_ratio);
  std::printf("  snapshot index probe vs live: %.2fx (goal <= 2x)\n",
              snapshot_ratio);
  if (!probe_ok) correct = false;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"async_offload\",\n");
    std::fprintf(
        f,
        "  \"description\": \"bench_async_offload: per-commit writer "
        "latency of a think-time event stream under a DETACHED trigger "
        "whose WHEN scans all %d Person nodes and almost never fires. "
        "on-writer pays the scan inside Execute; the pool pre-evaluates it "
        "against the commit-pinned snapshot during the think gap and "
        "retires no-fire activations off-writer. Probe gate: the same "
        "index lookup through a pinned snapshot (versioned postings) vs "
        "the live chain.\",\n",
        cfg.persons);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"calibrated_scan_us\": %.1f,\n", scan_us);
    std::fprintf(f, "  \"think_gap_us\": %.1f,\n", think_us);
    std::fprintf(f, "  \"modes\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"p50_us\": %.1f, \"p99_us\": "
                   "%.1f, \"drain_ms\": %.1f, \"prefiltered\": %ld, "
                   "\"deferred\": %ld, \"fired\": %ld}%s\n",
                   p.mode.c_str(), p.p50_us, p.p99_us, p.drain_ms,
                   p.prefiltered, p.deferred, p.fired,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"writer_p99_speedup_pool1\": %.2f,\n", speedup_p99);
    std::fprintf(f, "  \"writer_p99_speedup_goal\": 5.0,\n");
    std::fprintf(f, "  \"snapshot_probe_ratio\": %.2f,\n", snapshot_ratio);
    std::fprintf(f, "  \"snapshot_probe_goal\": 2.0,\n");
    std::fprintf(f, "  \"correct\": %s\n}\n", correct ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pgt::bench

int main(int argc, char** argv) { return pgt::bench::Main(argc, argv); }
