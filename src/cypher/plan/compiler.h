#ifndef PGTRIGGERS_CYPHER_PLAN_COMPILER_H_
#define PGTRIGGERS_CYPHER_PLAN_COMPILER_H_

#include <set>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/cypher/ast.h"
#include "src/cypher/plan/program.h"
#include "src/storage/store_view.h"

namespace pgt::cypher::plan {

/// Compile-time facts about the execution environment of a statement.
struct CompileEnv {
  /// Variables bound before the first clause, in seeding order (the trigger
  /// engine's transition variables, the emulators' predefined variables;
  /// empty for ad-hoc statements).
  std::vector<std::string> seed_vars;
  /// Variable names whose property reads may resolve against the OLD
  /// transition images at runtime (TransitionEnv::old_view_vars is always a
  /// subset of these for the statement's activations).
  std::set<std::string> old_view_vars;
};

/// Lowers a parsed statement into a slot-addressed PhysicalPlan-style
/// program. Symbols and scan templates resolve against `view`, the view the
/// program will run against: the live store (its IndexCatalog at plan epoch
/// `epoch`) or a pinned snapshot (its dictionaries and index image).
///
/// Every statement the parser accepts compiles. A RETURN where none may
/// stand compiles to a step that fails when reached, so such statements
/// error at run time, after the clauses before the RETURN ran.
Result<PlanProgram> CompileQuery(const Query& q, const CompileEnv& env,
                                 const StoreView& view, uint64_t epoch);

/// Compiles a trigger's WHEN (expression or read-only pipeline) and action
/// into one program with a shared slot universe, so condition bindings stay
/// in scope for the action (docs/semantics.md D2). A RETURN in the action
/// fails when the action reaches it.
Result<TriggerProgram> CompileTrigger(const Expr* when_expr,
                                      const Query* when_query,
                                      const Query& action,
                                      const CompileEnv& env,
                                      const StoreView& view, uint64_t epoch);

}  // namespace pgt::cypher::plan

#endif  // PGTRIGGERS_CYPHER_PLAN_COMPILER_H_
