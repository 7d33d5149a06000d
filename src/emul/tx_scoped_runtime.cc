#include "src/emul/tx_scoped_runtime.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/plan_executor.h"

namespace pgt::emul {

using translate::MgEventClass;

Status TxScopedRuntime::Add(const std::string& name, Phase phase,
                            MgEventClass event_class,
                            const std::string& statement) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists(std::string(system_) + " trigger '" + name +
                                 "' already installed");
  }
  Trigger trigger;
  trigger.name = name;
  trigger.phase = phase;
  trigger.event_class = event_class;
  PGT_ASSIGN_OR_RETURN(trigger.query, cypher::Parser::ParseQuery(statement));
  triggers_.push_back(std::move(trigger));
  return Status::OK();
}

TxScopedRuntime::Trigger* TxScopedRuntime::Find(const std::string& name) {
  for (Trigger& t : triggers_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Status TxScopedRuntime::NotInstalled(const std::string& name) const {
  return Status::NotFound(std::string(system_) + " trigger '" + name +
                          "' not installed");
}

Status TxScopedRuntime::Drop(const std::string& name) {
  auto it = std::find_if(triggers_.begin(), triggers_.end(),
                         [&](const Trigger& t) { return t.name == name; });
  if (it == triggers_.end()) return NotInstalled(name);
  triggers_.erase(it);
  return Status::OK();
}

uint64_t TxScopedRuntime::fired(const std::string& name) const {
  for (const Trigger& t : triggers_) {
    if (t.name == name) return t.fired;
  }
  return 0;
}

bool TxScopedRuntime::EventClassMatches(MgEventClass e,
                                        const GraphDelta& delta) {
  switch (e) {
    case MgEventClass::kAny:
      return !delta.Empty();
    case MgEventClass::kVertexCreate:
      return !delta.created_nodes.empty();
    case MgEventClass::kEdgeCreate:
      return !delta.created_rels.empty();
    case MgEventClass::kVertexDelete:
      return !delta.deleted_nodes.empty();
    case MgEventClass::kEdgeDelete:
      return !delta.deleted_rels.empty();
    case MgEventClass::kVertexUpdate:
      return !delta.assigned_labels.empty() ||
             !delta.removed_labels.empty() ||
             !delta.assigned_node_props.empty() ||
             !delta.removed_node_props.empty();
    case MgEventClass::kEdgeUpdate:
      return !delta.assigned_rel_props.empty() ||
             !delta.removed_rel_props.empty();
  }
  return false;
}

std::vector<TxScopedRuntime::Trigger*> TxScopedRuntime::Select(
    Phase phase, const GraphDelta& delta) {
  std::vector<Trigger*> out;
  for (Trigger& t : triggers_) {
    if (t.phase == phase && !t.paused &&
        EventClassMatches(t.event_class, delta)) {
      out.push_back(&t);
    }
  }
  if (order_ == Order::kAlphabetical) {
    std::sort(out.begin(), out.end(), [](const Trigger* a, const Trigger* b) {
      return a->name < b->name;
    });
  }
  return out;
}

Status TxScopedRuntime::Run(Transaction& tx, Trigger& trigger,
                            const Bindings& in) {
  ++trigger.fired;
  return cypher::plan::RunSeeded(
      db_->MakeEvalContext(&tx, &in.params, nullptr), trigger.query, in.row,
      &db_->frame_pool());
}

Status TxScopedRuntime::OnCommitPoint(Transaction& tx) {
  if (in_trigger_context_) return Status::OK();  // no cascading
  // Selection and bindings read the commit-point delta; both are fixed
  // before the first trigger adds to it.
  const GraphDelta& delta = tx.AccumulatedDelta();
  if (delta.Empty()) return Status::OK();
  const std::vector<Trigger*> to_run = Select(Phase::kBeforeCommit, delta);
  if (to_run.empty()) return Status::OK();
  const Bindings in = Bind(delta);
  for (Trigger* t : to_run) {
    tx.PushDeltaScope();
    Status st = Run(tx, *t, in);
    tx.PopDeltaScope();  // effects merge; they never re-activate triggers
    PGT_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Status TxScopedRuntime::AfterCommit(const GraphDelta& tx_delta) {
  if (in_trigger_context_) return Status::OK();  // cascade blocked
  if (tx_delta.Empty()) return Status::OK();
  const std::vector<Trigger*> to_run = Select(Phase::kAfterCommit, tx_delta);
  if (to_run.empty()) return Status::OK();
  PGT_RETURN_IF_ERROR(BeforeAutonomousTx());
  in_trigger_context_ = true;
  Status st = RunAutonomous(to_run, tx_delta);
  in_trigger_context_ = false;
  return st;
}

Status TxScopedRuntime::RunAutonomous(const std::vector<Trigger*>& to_run,
                                      const GraphDelta& tx_delta) {
  const Bindings in = Bind(tx_delta);
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx,
                       db_->BeginAutonomousTx(tx_delta));
  for (Trigger* t : to_run) {
    Status st = Run(*tx, *t, in);
    if (!st.ok()) {
      db_->RollbackAndRelease(std::move(tx));
      return st;
    }
  }
  return db_->CommitWithTriggers(std::move(tx));
}

}  // namespace pgt::emul
