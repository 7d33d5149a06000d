// Dispatch scaling study: per-statement cost of event-keyed trigger
// dispatch (DispatchIndex) as the number of installed triggers grows.
//
//   $ ./build/bench_dispatch_scaling [output.json] [--smoke]
//
// For each trigger count T, one database runs a mixed-event workload
// (node/rel creates, property sets, deletes — hitting a handful of hot
// labels out of T monitored ones) and the report records micros per
// statement. The workload is deterministic, so each trigger's fired count
// is known exactly: per round T0 fires once, T1 four times (one per seeded
// L1 node), T2 and T3 once, every other trigger never. The run fails if
// any count differs.
//
// Writes JSON only when an output path is given. BENCH_dispatch.json holds
// the history of the retired linear-scan ablation (indexed vs linear, with
// speedups) and is not overwritten. --smoke runs one small point (for
// CI).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace pgt::bench {
namespace {

struct Point {
  int triggers = 0;
  double micros = 0;  // per statement
  bool expected_fired = false;
};

/// Interns every monitored symbol up front (multi-tenant steady state:
/// the schema vocabulary exists before the workload runs).
void InternSymbols(Database& db, int triggers) {
  for (int i = 0; i < triggers; ++i) {
    db.store().InternLabel("L" + std::to_string(i));
    db.store().InternRelType("R" + std::to_string(i));
  }
  db.store().InternPropKey("p");
}

/// Installs `count` triggers cycling through action times, events, and item
/// kinds, each monitoring its own label / relationship type.
void InstallTriggers(Database& db, int count) {
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    std::string ddl;
    switch (i % 4) {
      case 0:
        ddl = "CREATE TRIGGER T" + n + " AFTER CREATE ON 'L" + n +
              "' FOR EACH NODE BEGIN CREATE (:Fired" + n + ") END";
        break;
      case 1:
        ddl = "CREATE TRIGGER T" + n + " AFTER SET ON 'L" + n +
              "'.'p' FOR EACH NODE BEGIN CREATE (:Fired" + n + ") END";
        break;
      case 2:
        ddl = "CREATE TRIGGER T" + n + " ONCOMMIT DELETE ON 'L" + n +
              "' FOR ALL NODES BEGIN CREATE (:Fired" + n + ") END";
        break;
      default:
        ddl = "CREATE TRIGGER T" + n + " DETACHED CREATE ON 'R" + n +
              "' FOR EACH RELATIONSHIP BEGIN CREATE (:Fired" + n + ") END";
        break;
    }
    MustExec(db, ddl);
  }
}

/// Mixed-event workload touching a few hot labels; returns micros per
/// statement. Every statement raises events, so each one pays a full
/// dispatch round in all four action-time phases.
double RunWorkload(Database& db, int rounds) {
  int statements = 0;
  Stopwatch sw;
  for (int r = 0; r < rounds; ++r) {
    // Node create (activates T0), property set (T1), node create+delete
    // (delete activates T2 at commit), rel create (T3, detached), and one
    // event on an unmonitored label (pure dispatch overhead).
    MustExec(db, "CREATE (:L0 {p: 1})");
    MustExec(db, "MATCH (n:L1) SET n.p = " + std::to_string(r));
    MustExec(db, "CREATE (:L2 {p: 1})");
    MustExec(db, "MATCH (n:L2) DELETE n");
    MustExec(db, "CREATE (a:Cold)-[:R3 {p: 1}]->(b:Cold)");
    MustExec(db, "CREATE (:Unmonitored)");
    statements += 6;
  }
  return sw.ElapsedMicros() / statements;
}

/// Fired counts the workload implies after `rounds` rounds: T0, T2 and T3
/// once per round, T1 once per seeded L1 node per round, all others never.
bool ExpectedFired(const EngineStats& stats, int rounds) {
  for (const auto& [name, ts] : stats.per_trigger) {
    uint64_t want = 0;
    if (name == "T0" || name == "T2" || name == "T3") want = rounds;
    if (name == "T1") want = 4 * static_cast<uint64_t>(rounds);
    if (ts.fired != want) return false;
  }
  for (const char* name : {"T0", "T1", "T2", "T3"}) {
    if (stats.per_trigger.count(name) == 0) return false;
  }
  return true;
}

Point RunPoint(int triggers, int rounds) {
  Point p;
  p.triggers = triggers;
  Database db;
  InternSymbols(db, triggers);
  InstallTriggers(db, triggers);
  // Seed the hot set-target label with a few nodes.
  for (int i = 0; i < 4; ++i) MustExec(db, "CREATE (:L1 {p: 0})");
  db.stats().Clear();
  p.micros = RunWorkload(db, rounds);
  p.expected_fired = ExpectedFired(db.stats(), rounds);
  return p;
}

}  // namespace
}  // namespace pgt::bench

int main(int argc, char** argv) {
  using namespace pgt;
  using namespace pgt::bench;

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }

  Banner("BENCH-dispatch", "event-keyed trigger dispatch (DispatchIndex)");

  const std::vector<int> counts =
      smoke ? std::vector<int>{64} : std::vector<int>{1000, 2500, 5000, 10000};
  const int rounds = smoke ? 5 : 40;

  std::vector<Point> points;
  for (int t : counts) {
    std::printf("running %d installed triggers x %d rounds...\n", t, rounds);
    points.push_back(RunPoint(t, rounds));
  }

  std::printf("\n%10s %12s %15s\n", "triggers", "us/stmt", "expected fired");
  bool expected = true;
  for (const Point& p : points) {
    std::printf("%10d %12.1f %15s\n", p.triggers, p.micros,
                p.expected_fired ? "yes" : "NO");
    expected = expected && p.expected_fired;
  }

  if (points.size() > 1) {
    std::printf("\nus/stmt at %d triggers vs %d: %.2fx\n", counts.back(),
                counts.front(), points.back().micros / points.front().micros);
  }

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "{\n  \"smoke\": %s,\n  \"rounds\": %d,\n",
                   smoke ? "true" : "false", rounds);
      std::fprintf(f, "  \"points\": [\n");
      for (size_t i = 0; i < points.size(); ++i) {
        const Point& p = points[i];
        std::fprintf(f,
                     "    {\"triggers\": %d, \"micros_per_stmt\": %.1f, "
                     "\"expected_fired\": %s}%s\n",
                     p.triggers, p.micros,
                     p.expected_fired ? "true" : "false",
                     i + 1 < points.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::printf("results written to %s\n", json_path.c_str());
    }
  }
  return expected ? 0 : 1;
}
