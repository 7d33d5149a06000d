#ifndef PGTRIGGERS_EMUL_TX_SCOPED_RUNTIME_H_
#define PGTRIGGERS_EMUL_TX_SCOPED_RUNTIME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/translate/memgraph_translator.h"
#include "src/trigger/database.h"

namespace pgt::emul {

/// The transaction-scoped trigger runtime behind both emulators. The paper
/// notes that Memgraph's "trigger management implementations ... are
/// identical to those of Neo4j APOC procedures" (Section 5.2), so APOC
/// (Section 5.1) and Memgraph share this one model:
///
///  * triggers react to whole transactions, never to single statements;
///  * before commit: inside the activating transaction, right before it
///    commits. The triggers to run and their inputs are fixed from the
///    transaction's changes at the commit point, before any trigger runs.
///    Each trigger runs in its own delta scope, whose effects merge into
///    the transaction but activate nothing; the first error aborts the
///    commit;
///  * after commit: the selected triggers run in order within one new
///    autonomous transaction (Database::BeginAutonomousTx), which commits
///    only if every one of them succeeds;
///  * no cascading: changes made by trigger executions never activate
///    triggers, in either phase.
///
/// An emulator supplies what differs: the order triggers run in, how a
/// statement receives the changes (Bind), and anything that happens just
/// before the after-commit transaction begins.
class TxScopedRuntime : public TriggerRuntime {
 public:
  Status Drop(const std::string& name);
  void DropAll() { triggers_.clear(); }
  /// Number of runs of `name` (0 when not installed).
  uint64_t fired(const std::string& name) const;

  /// Does a trigger on event class `e` fire for this delta? kAny fires on
  /// any change; it is also the class of every APOC trigger, which runs
  /// "regardless of the specific node or relationship type".
  static bool EventClassMatches(translate::MgEventClass e,
                                const GraphDelta& delta);

  // --- TriggerRuntime -------------------------------------------------------
  /// Transaction-scoped: nothing runs per statement.
  Status OnStatement(Transaction&, const GraphDelta&) final {
    return Status::OK();
  }
  Status OnCommitPoint(Transaction& tx) final;
  Status AfterCommit(const GraphDelta& tx_delta) final;

 protected:
  /// kNever: installed but never run (APOC's `rollback` phase).
  enum class Phase { kBeforeCommit, kAfterCommit, kNever };
  enum class Order { kCreation, kAlphabetical };

  struct Trigger {
    std::string name;
    Phase phase = Phase::kNever;
    /// Memgraph's ON clause; APOC triggers keep kAny.
    translate::MgEventClass event_class = translate::MgEventClass::kAny;
    bool paused = false;
    cypher::Query query;
    uint64_t fired = 0;
  };

  /// What a trigger statement receives: APOC hands the changes over as
  /// $parameters, Memgraph as bound variables.
  struct Bindings {
    Params params;
    cypher::Row row;
  };

  /// `system` names the emulated product in error messages.
  TxScopedRuntime(Database* db, const char* system, Order order)
      : db_(db), system_(system), order_(order) {}

  /// Parses `statement` and appends the trigger; AlreadyExists when the
  /// name is taken.
  Status Add(const std::string& name, Phase phase,
             translate::MgEventClass event_class,
             const std::string& statement);
  /// The installed trigger `name`, or nullptr.
  Trigger* Find(const std::string& name);
  Status NotInstalled(const std::string& name) const;

  virtual Bindings Bind(const GraphDelta& delta) const = 0;
  /// Runs once the after-commit phase has something to run, before its
  /// transaction begins.
  virtual Status BeforeAutonomousTx() { return Status::OK(); }

  Database* db_;

 private:
  /// The unpaused triggers of `phase` whose event class `delta` matches,
  /// in run order.
  std::vector<Trigger*> Select(Phase phase, const GraphDelta& delta);
  Status Run(Transaction& tx, Trigger& trigger, const Bindings& in);
  /// The after-commit transaction: `to_run` over the changes of the
  /// committed `tx_delta`.
  Status RunAutonomous(const std::vector<Trigger*>& to_run,
                       const GraphDelta& tx_delta);

  const char* system_;
  Order order_;
  std::vector<Trigger> triggers_;
  bool in_trigger_context_ = false;
};

}  // namespace pgt::emul

#endif  // PGTRIGGERS_EMUL_TX_SCOPED_RUNTIME_H_
