#ifndef PGTRIGGERS_TRIGGER_TRIGGER_PLAN_H_
#define PGTRIGGERS_TRIGGER_TRIGGER_PLAN_H_

#include <cstdint>
#include <memory>

#include "src/cypher/plan/compiler.h"
#include "src/cypher/plan/program.h"
#include "src/trigger/trigger_def.h"

namespace pgt {

/// A trigger's compiled WHEN/action plans, cached on the TriggerDef and
/// keyed on (store, plan epoch).
struct TriggerPlans {
  uint64_t epoch = 0;
  const GraphStore* store = nullptr;
  cypher::plan::TriggerProgram program;
};

/// Derives the compile environment (transition seed variables and OLD-view
/// names) a trigger's activations always carry, from the definition alone.
/// Which transition variables exist is a function of (event, property,
/// granularity, item, referencing) — see BuildActivations in engine.cc —
/// so the environment is deterministic per definition.
cypher::plan::CompileEnv TriggerCompileEnv(const TriggerDef& def);

/// Counters for plan-cache churn (docs/plan.md "observability"): epoch
/// invalidation used to recompile silently, which made IVM state rebuild
/// storms invisible. Incremented under the compile lock; read via
/// CALL pgt.ivmStats().
struct PlanCompileCounters {
  uint64_t trigger_compiles = 0;    ///< first-use compiles
  uint64_t trigger_recompiles = 0;  ///< stale-entry replacements (DDL epoch)
};

/// Returns `def`'s cached compiled plans, compiling on first use and
/// recompiling when the plan epoch or store changed (index/trigger DDL
/// invalidates cached plans). A compile error is returned and nothing is
/// cached.
///
/// Returns shared ownership and serializes the cache slot internally:
/// with an async pool, activations of the same trigger execute from
/// changing threads (worker applies are serialized by the Database's
/// writer interlock, but an epoch-bump replacement must not free plans a
/// concurrent reader still holds). `counters` (optional) is bumped under
/// the same lock when a compile happens.
Result<std::shared_ptr<const TriggerPlans>> GetOrCompileTriggerPlans(
    const TriggerDef& def, const GraphStore& store, uint64_t epoch,
    PlanCompileCounters* counters = nullptr);

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_TRIGGER_PLAN_H_
