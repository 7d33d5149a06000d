// Incremental triggering-graph maintenance vs full rebuild, and the
// registration-time termination-policy overhead per CREATE TRIGGER
// (src/analysis, docs/analysis.md).
//
//   $ ./build/bench_analysis [output.json] [--smoke]
//
// Setup: N triggers in an acyclic chain of label groups — trigger i
// monitors CREATE on L<g> and its action creates an L<g+1> node, so every
// event-key bucket holds ~N/K monitors and writers (K = label-group
// count). This is the catalog shape the bucket scheme targets: dense
// enough that naive O(n^2) pair scans hurt, sparse enough that a single
// DDL only touches its own buckets.
//
// Three measurements per size:
//  * full     — rebuild the whole graph from the catalog (Invalidate +
//               EnsureSynced), the cost every DDL would pay without
//               incremental maintenance;
//  * incr     — one CREATE/DROP pair via NoteInstall/NoteDrop, the
//               O(affected-pairs) path;
//  * policy   — end-to-end CREATE TRIGGER latency through Execute under
//               termination_policy = reject (parse + install + incremental
//               update + cycle check over the new SCC).
//
// Writes a JSON baseline (default BENCH_analysis.json). Acceptance goal:
// incremental maintenance >= 50x faster than a full rebuild at 10k
// triggers. --smoke runs a small point (CI) and skips the goal check.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/trigger/trigger_parser.h"

namespace pgt::bench {
namespace {

struct Point {
  int triggers = 0;
  size_t edges = 0;
  double full_micros = 0;       // one full rebuild
  double incr_micros = 0;       // one incremental CREATE or DROP
  double policy_micros = 0;     // one CREATE TRIGGER under kReject
  double Speedup() const {
    return incr_micros > 0 ? full_micros / incr_micros : 0;
  }
};

std::string ChainTriggerDdl(const std::string& name, int group, int groups) {
  // The last group writes into a sink label nobody monitors: the chain
  // stays acyclic, so the reject policy accepts every member.
  const std::string src = "L" + std::to_string(group);
  const std::string dst =
      group + 1 < groups ? "L" + std::to_string(group + 1) : "Sink";
  return "CREATE TRIGGER " + name + " AFTER CREATE ON '" + src +
         "' FOR EACH NODE BEGIN CREATE (:" + dst + ") END";
}

Point RunPoint(int n) {
  const int groups = n >= 64 ? n / 8 : 8;
  Database db;  // setup installs maintain the graph incrementally
  for (int i = 0; i < n; ++i) {
    MustExec(db, ChainTriggerDdl("T" + std::to_string(i), i % groups,
                                 groups));
  }

  Point p;
  p.triggers = n;
  analysis::TriggerAnalyzer& a = db.analyzer();

  // Full rebuild: best of 3 (the graph is identical each time).
  p.full_micros = 0;
  for (int rep = 0; rep < 3; ++rep) {
    a.Invalidate();
    Stopwatch sw;
    a.EnsureSynced(db.PlanEpoch());
    const double us = sw.ElapsedMicros();
    if (rep == 0 || us < p.full_micros) p.full_micros = us;
  }
  p.edges = a.edge_count();

  // Incremental: CREATE/DROP pairs through the catalog + notifications.
  const int ops = 100;
  {
    const std::string ddl = ChainTriggerDdl("Probe", (n / 2) % groups,
                                            groups);
    double total_us = 0;
    for (int i = 0; i < ops; ++i) {
      // TriggerDef is move-only: re-parse outside the timed region.
      auto def = TriggerDdlParser::ParseCreate(ddl);
      if (!def.ok()) std::abort();
      Stopwatch sw;
      if (!db.catalog().Install(std::move(def).value()).ok()) std::abort();
      a.NoteInstall("Probe", db.PlanEpoch());
      if (!db.catalog().Drop("Probe").ok()) std::abort();
      a.NoteDrop("Probe");
      total_us += sw.ElapsedMicros();
    }
    p.incr_micros = total_us / (2.0 * ops);
  }

  // Policy overhead: end-to-end CREATE TRIGGER under kReject (includes
  // the SCC cycle check through the new trigger).
  db.options().termination_policy = TerminationPolicy::kReject;
  const int policy_ops = 25;
  {
    const std::string create =
        ChainTriggerDdl("Probe", (n / 2) % groups, groups);
    Stopwatch sw;
    for (int i = 0; i < policy_ops; ++i) {
      MustExec(db, create);
      MustExec(db, "DROP TRIGGER Probe");
    }
    // Half the timed ops are DROPs; report the pair cost halved as the
    // per-DDL policy latency.
    p.policy_micros = sw.ElapsedMicros() / (2.0 * policy_ops);
  }
  return p;
}

}  // namespace
}  // namespace pgt::bench

int main(int argc, char** argv) {
  using namespace pgt::bench;

  std::string out_path = "BENCH_analysis.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  Banner("bench_analysis",
         "triggering-graph maintenance: incremental DDL vs full rebuild");

  const std::vector<int> sizes =
      smoke ? std::vector<int>{200} : std::vector<int>{1000, 5000, 10000};
  std::vector<Point> points;
  double speedup_at_max = 0;
  for (int n : sizes) {
    Point p = RunPoint(n);
    points.push_back(p);
    if (n == sizes.back()) speedup_at_max = p.Speedup();
    std::printf(
        "triggers=%-6d edges=%-7zu full=%10.1f us   incr=%7.2f us   "
        "policy-create=%8.1f us   speedup=%7.1fx\n",
        p.triggers, p.edges, p.full_micros, p.incr_micros, p.policy_micros,
        p.Speedup());
  }

  const bool goal = smoke || speedup_at_max >= 50.0;
  std::printf("\nspeedup goal (>= 50x at %d triggers): %s\n", sizes.back(),
              goal ? "MET" : "NOT MET");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"smoke\": %s,\n  \"points\": [\n",
                 smoke ? "true" : "false");
    for (size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::fprintf(f,
                   "    {\"triggers\": %d, \"edges\": %zu, "
                   "\"full_rebuild_micros\": %.1f, "
                   "\"incremental_ddl_micros\": %.2f, "
                   "\"reject_policy_create_micros\": %.1f, "
                   "\"speedup\": %.1f}%s\n",
                   p.triggers, p.edges, p.full_micros, p.incr_micros,
                   p.policy_micros, p.Speedup(),
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"goal_speedup_at_largest\": 50.0,\n");
    std::fprintf(f, "  \"goal_met\": %s\n}\n", goal ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return goal ? 0 : 1;
}
