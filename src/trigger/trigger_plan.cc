#include "src/trigger/trigger_plan.h"

#include <memory>
#include <mutex>
#include <utility>

#include "src/common/macros.h"

namespace pgt {

cypher::plan::CompileEnv TriggerCompileEnv(const TriggerDef& def) {
  // Mirror of BuildActivations: which transition variables an activation of
  // this trigger carries. CREATE raises NEW; DELETE raises OLD; SET raises
  // NEW plus (for property events) OLD; REMOVE raises OLD.
  const bool has_new =
      def.event == TriggerEvent::kCreate || def.event == TriggerEvent::kSet;
  const bool has_old = def.event == TriggerEvent::kDelete ||
                       def.event == TriggerEvent::kRemove ||
                       (def.event == TriggerEvent::kSet &&
                        !def.property.empty());

  const std::string new_name = def.granularity == Granularity::kEach
                                   ? def.AliasFor(TransitionVar::kNew)
                                   : def.NewVarName();
  const std::string old_name = def.granularity == Granularity::kEach
                                   ? def.AliasFor(TransitionVar::kOld)
                                   : def.OldVarName();

  cypher::plan::CompileEnv env;
  if (has_new) env.seed_vars.push_back(new_name);
  if (has_old) {
    env.seed_vars.push_back(old_name);
    env.old_view_vars.insert(old_name);
  }
  return env;
}

namespace {
/// Guards every TriggerDef::compiled_plans slot. A single global mutex is
/// enough: the slot is read/replaced a handful of times per epoch (hits
/// copy one shared_ptr under the lock; compiles are rare), and it keeps
/// the hot activation path free of per-def lock storage.
std::mutex g_trigger_plans_mu;
}  // namespace

Result<std::shared_ptr<const TriggerPlans>> GetOrCompileTriggerPlans(
    const TriggerDef& def, const GraphStore& store, uint64_t epoch,
    PlanCompileCounters* counters) {
  bool had_stale_entry = false;
  {
    std::lock_guard<std::mutex> lock(g_trigger_plans_mu);
    std::shared_ptr<const TriggerPlans> cached = def.compiled_plans;
    if (cached != nullptr && cached->store == &store &&
        cached->epoch == epoch) {
      return cached;
    }
    had_stale_entry = cached != nullptr;
  }
  auto plans = std::make_shared<TriggerPlans>();
  plans->epoch = epoch;
  plans->store = &store;
  PGT_ASSIGN_OR_RETURN(
      plans->program,
      cypher::plan::CompileTrigger(def.when_expr.get(), &def.when_query,
                                   def.statement, TriggerCompileEnv(def),
                                   StoreView::Live(store), epoch));
  std::lock_guard<std::mutex> lock(g_trigger_plans_mu);
  if (counters != nullptr) {
    ++counters->trigger_compiles;
    if (had_stale_entry) ++counters->trigger_recompiles;
  }
  def.compiled_plans = plans;
  return std::shared_ptr<const TriggerPlans>(std::move(plans));
}

}  // namespace pgt
