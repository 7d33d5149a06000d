#ifndef PGTRIGGERS_EMUL_APOC_EMULATOR_H_
#define PGTRIGGERS_EMUL_APOC_EMULATOR_H_

#include <string>
#include <vector>

#include "src/emul/tx_scoped_runtime.h"
#include "src/translate/apoc_translator.h"

namespace pgt::emul {

/// Emulation of the Neo4j APOC trigger runtime (paper Section 5.1) on top
/// of our store — so the paper's reported APOC behaviors are executable and
/// comparable against the native PG-Trigger engine:
///
///  * `before` phase: runs right before the commit of the activating
///    transaction — ALL installed before-triggers, exactly once, in
///    ALPHABETICAL order, regardless of what the transaction touched
///    ("all the installed triggers are activated, only once, in alphabetic
///    order, regardless of the specific node or relationship type").
///  * `after` / `afterAsync` phases: run after the commit, all within a
///    single new transaction; cascading is explicitly blocked — changes
///    produced by a trigger transaction never activate triggers
///    (APOC tags such data via metadata; we flag the trigger transaction).
///  * `rollback` phase: accepted at install, never runs.
///  * `afterAsync` visibility race: other committed transactions can
///    interleave between the activating commit and the trigger run; the
///    emulator models this deterministically via QueueInterleaved(), so
///    the paper's "triggers may not see the final state produced by the
///    transaction that activates them" warning becomes a testable fact.
///
/// Trigger statements are Cypher (our subset) over the Table 2 utility
/// parameters ($createdNodes, $assignedNodeProperties, ...); the
/// apoc.do.when procedure is registered into the Database's procedure
/// registry on construction.
class ApocEmulator : public TxScopedRuntime {
 public:
  explicit ApocEmulator(Database* db);

  /// apoc.trigger.install(databaseName is implicit, name, statement,
  /// {phase}).
  Status Install(const std::string& name, const std::string& statement,
                 const std::string& phase);
  /// Installs a translator output directly.
  Status Install(const translate::ApocTrigger& trigger);
  /// apoc.trigger.stop / start (drop / dropAll are Drop / DropAll).
  Status Stop(const std::string& name);
  Status Start(const std::string& name);

  /// Queues a statement to commit between the activating transaction's
  /// commit and the afterAsync trigger execution (the race of Section 5.1).
  void QueueInterleaved(const std::string& statement);

  const char* name() const override { return "apoc-emulation"; }

  /// Builds the Table 2 utility parameter map from a delta (exposed for
  /// the Table 2 / Table 3 benches).
  static Params BuildUtilityParams(const GraphDelta& delta,
                                   const StoreView& store);

 private:
  Bindings Bind(const GraphDelta& delta) const override;
  /// Commits the queued interleaved statements.
  Status BeforeAutonomousTx() override;
  Status SetPaused(const std::string& name, bool paused);

  std::vector<std::string> interleaved_;
};

}  // namespace pgt::emul

#endif  // PGTRIGGERS_EMUL_APOC_EMULATOR_H_
