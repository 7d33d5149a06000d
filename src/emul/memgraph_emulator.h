#ifndef PGTRIGGERS_EMUL_MEMGRAPH_EMULATOR_H_
#define PGTRIGGERS_EMUL_MEMGRAPH_EMULATOR_H_

#include <string>

#include "src/emul/tx_scoped_runtime.h"
#include "src/translate/memgraph_translator.h"

namespace pgt::emul {

/// Emulation of the Memgraph trigger runtime (paper Section 5.2):
///
///  * `CREATE TRIGGER name [ON () CREATE | ON --> CREATE | ...]
///    BEFORE|AFTER COMMIT EXECUTE <openCypher>`;
///  * the statement sees the Table 4 predefined variables
///    (createdVertices, deletedEdges, setVertexProperties, ...) as plain
///    bindings — no $parameters, unlike APOC;
///  * BEFORE COMMIT runs right before the commit of the activating
///    transaction, inside it; AFTER COMMIT runs asynchronously after it, in
///    a new transaction;
///  * like APOC, triggers do not cascade: changes made by trigger
///    executions never activate triggers ("the trigger management
///    implementations ... are identical to those of Neo4j APOC procedures,
///    therefore also in Memgraph triggers do not correctly cascade");
///  * triggers run in creation order (no alphabetic reordering).
class MemgraphEmulator : public TxScopedRuntime {
 public:
  explicit MemgraphEmulator(Database* db)
      : TxScopedRuntime(db, "Memgraph", Order::kCreation) {}

  Status Install(const std::string& name,
                 translate::MgEventClass event_class, bool before_commit,
                 const std::string& statement);
  Status Install(const translate::MemgraphTrigger& trigger);

  const char* name() const override { return "memgraph-emulation"; }

  /// Builds the Table 4 predefined-variable bindings from a delta
  /// (exposed for the Table 4 bench).
  static cypher::Row BuildPredefinedVars(const GraphDelta& delta,
                                         const StoreView& store);

 private:
  Bindings Bind(const GraphDelta& delta) const override;
};

}  // namespace pgt::emul

#endif  // PGTRIGGERS_EMUL_MEMGRAPH_EMULATOR_H_
