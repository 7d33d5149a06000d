// T2 — Table 2: the APOC trigger utility functions. Fires each of the ten
// Section 4.2 event kinds against the store, rebuilds the APOC-shaped
// utility parameters from the captured delta, prints each Table 2 row with
// the observed payload, and measures capture cost on a larger delta.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/emul/apoc_emulator.h"

namespace pgt {
namespace {

using bench::MustExec;

Params CaptureParams(Database& db, const std::string& statement) {
  auto tx = std::move(db.BeginTx()).value();
  tx->PushDeltaScope();
  auto stmt = db.Prepare(statement);
  if (!stmt.ok()) std::abort();
  const cypher::plan::PlanProgram& prog = *(*stmt)->program;
  cypher::EvalContext ctx = db.MakeEvalContext(tx.get(), nullptr, nullptr);
  cypher::plan::PlanExecutor exec(ctx, prog.slot_names);
  auto res = exec.Run(prog.steps, exec.NewFrame());
  if (!res.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", res.status().ToString().c_str());
    std::abort();
  }
  GraphDelta delta = tx->PopDeltaScope();
  (void)db.CommitWithTriggers(std::move(tx));
  return emul::ApocEmulator::BuildUtilityParams(delta,
                                                StoreView::Live(db.store()));
}

size_t PayloadSize(const Value& v) {
  if (v.is_list()) return v.list_value().size();
  if (v.is_map()) {
    size_t n = 0;
    for (const auto& [k, inner] : v.map_value()) {
      (void)k;
      n += PayloadSize(inner);
    }
    return n;
  }
  return 1;
}

}  // namespace
}  // namespace pgt

int main() {
  using namespace pgt;
  bench::Banner("T2", "Table 2: APOC trigger utility functions");

  Database db;
  MustExec(db, "CREATE (:Seed {p: 1})-[:R {w: 1}]->(:Seed {p: 2})");

  struct Row {
    const char* utility;
    const char* description;
    const char* statement;
  };
  const Row rows[] = {
      {"createdNodes", "list of created nodes", "CREATE (:A), (:A)"},
      {"createdRelationships", "list of created relationships",
       "MATCH (a:Seed {p: 1}), (b:Seed {p: 2}) CREATE (a)-[:S]->(b)"},
      {"deletedNodes", "list of deleted nodes",
       "MATCH (a:A) DETACH DELETE a"},
      {"deletedRelationships", "list of deleted relationships",
       "MATCH ()-[r:S]->() DELETE r"},
      {"assignedLabels", "set of new labels for an item",
       "MATCH (s:Seed {p: 1}) SET s:Flagged"},
      {"removedLabels", "set of removed labels from an item",
       "MATCH (s:Flagged) REMOVE s:Flagged"},
      {"assignedNodeProperties",
       "quadruple <target node, property, old value, new value>",
       "MATCH (s:Seed {p: 1}) SET s.p = 10"},
      {"removedNodeProperties",
       "triple <target node, property, old value>",
       "MATCH (s:Seed {p: 10}) REMOVE s.p"},
      {"assignedRelProperties",
       "quadruple <target rel, property, old value, new value>",
       "MATCH ()-[r:R]->() SET r.w = 10"},
      {"removedRelProperties", "triple <target rel, property, old value>",
       "MATCH ()-[r:R]->() REMOVE r.w"},
  };

  std::printf("%-26s | %-55s | observed\n", "utility", "description");
  std::printf("---------------------------+-----------------------------------"
              "---------------------+---------\n");
  for (const Row& row : rows) {
    Params params = CaptureParams(db, row.statement);
    const Value& payload = params[row.utility];
    std::printf("%-26s | %-55s | %zu entr%s\n", row.utility, row.description,
                PayloadSize(payload), PayloadSize(payload) == 1 ? "y" : "ies");
    if (PayloadSize(payload) == 0) {
      std::printf("  !! expected a non-empty payload for %s\n", row.utility);
      return 1;
    }
  }

  // Capture-cost measurement: a wide statement touching many items.
  Database big;
  MustExec(big, "UNWIND RANGE(1, 2000) AS i CREATE (:N {v: i})");
  bench::Stopwatch sw;
  Params params = CaptureParams(
      big, "MATCH (n:N) SET n.v = n.v + 1");
  const double ms = sw.ElapsedMillis();
  std::printf("\ncapture cost: statement updating 2000 properties -> "
              "assignedNodeProperties with %zu entries in %.2f ms "
              "(includes statement execution)\n",
              PayloadSize(params["assignedNodeProperties"]), ms);
  std::printf("\nRESULT: PASS — all ten Table 2 utilities populated\n");
  return 0;
}
