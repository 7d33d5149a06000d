#include "src/trigger/catalog.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/common/str_util.h"
#include "src/ivm/ivm_manager.h"

namespace pgt {

namespace {

/// Does this clause (recursively, through FOREACH) set or remove the given
/// label?
bool ClauseTouchesLabel(const cypher::Clause& c, const std::string& label) {
  for (const cypher::SetItem& s : c.set_items) {
    if (s.kind == cypher::SetItem::Kind::kLabels) {
      for (const std::string& l : s.labels) {
        if (l == label) return true;
      }
    }
  }
  for (const cypher::SetItem& s : c.on_create) {
    if (s.kind == cypher::SetItem::Kind::kLabels) {
      for (const std::string& l : s.labels) {
        if (l == label) return true;
      }
    }
  }
  for (const cypher::SetItem& s : c.on_match) {
    if (s.kind == cypher::SetItem::Kind::kLabels) {
      for (const std::string& l : s.labels) {
        if (l == label) return true;
      }
    }
  }
  for (const cypher::RemoveItem& r : c.remove_items) {
    if (r.kind == cypher::RemoveItem::Kind::kLabels) {
      for (const std::string& l : r.labels) {
        if (l == label) return true;
      }
    }
  }
  for (const cypher::ClausePtr& body : c.foreach_body) {
    if (ClauseTouchesLabel(*body, label)) return true;
  }
  return false;
}

bool IsReadOnlyClause(const cypher::Clause& c) {
  switch (c.kind) {
    case cypher::Clause::Kind::kMatch:
    case cypher::Clause::Kind::kUnwind:
    case cypher::Clause::Kind::kWith:
      return true;
    default:
      return false;
  }
}

}  // namespace

void TriggerCatalog::IvmUnregister(const std::string& name) {
  if (ivm_ != nullptr) ivm_->Unregister(name);
}

void TriggerCatalog::IvmUnregisterAll() {
  if (ivm_ != nullptr) ivm_->UnregisterAll();
}

Status TriggerCatalog::Validate(const TriggerDef& def) const {
  if (def.name.empty()) {
    return Status::InvalidArgument("trigger name must not be empty");
  }
  if (Find(def.name) != nullptr) {
    return Status::AlreadyExists("trigger '" + def.name + "' already exists");
  }
  if (def.label.empty()) {
    return Status::InvalidArgument("trigger target label must not be empty");
  }
  const bool is_property_event = !def.property.empty();
  const bool is_mutation_event = def.event == TriggerEvent::kSet ||
                                 def.event == TriggerEvent::kRemove;
  if (is_property_event && !is_mutation_event) {
    return Status::ConstraintViolation(
        "property monitors (ON '" + def.label + "'.'" + def.property +
        "') require a SET or REMOVE event");
  }
  if (is_mutation_event && !is_property_event &&
      def.item == ItemKind::kRelationship) {
    return Status::ConstraintViolation(
        "label SET/REMOVE events apply only to nodes; relationships have "
        "exactly one immutable type");
  }
  if (is_mutation_event && !is_property_event &&
      options_->label_event_semantics == LabelEventSemantics::kTargetSetChange) {
    // Strict Section 4.2 reading: the monitored label set excludes the
    // target label itself; nothing else to check here, but the trigger is
    // legal only because of that exclusion. (Under kMonitoredLabel, ON 'L'
    // means "L itself is set/removed", which the strict mode forbids —
    // except it is exactly the target, so it stays legal by construction.)
  }

  // Section 4.2: "the target label cannot be set or removed within the
  // <statement>".
  for (const cypher::ClausePtr& c : def.statement.clauses) {
    if (ClauseTouchesLabel(*c, def.label)) {
      return Status::ConstraintViolation(
          "trigger statement must not set or remove the target label '" +
          def.label + "' (Section 4.2)");
    }
  }

  // WHEN pipelines must be read-only.
  for (const cypher::ClausePtr& c : def.when_query.clauses) {
    if (!IsReadOnlyClause(*c)) {
      return Status::ConstraintViolation(
          "WHEN condition must be read-only (MATCH / UNWIND / WITH)");
    }
  }

  // BEFORE triggers only condition NEW states: SET clauses only (D1).
  if (def.time == ActionTime::kBefore) {
    for (const cypher::ClausePtr& c : def.statement.clauses) {
      const bool ok = c->kind == cypher::Clause::Kind::kSet ||
                      IsReadOnlyClause(*c);
      if (!ok) {
        return Status::ConstraintViolation(
            "BEFORE triggers may only SET properties on NEW transition "
            "items (Section 4)");
      }
      for (const cypher::SetItem& s : c->set_items) {
        if (s.kind != cypher::SetItem::Kind::kProperty) {
          return Status::ConstraintViolation(
              "BEFORE triggers may not set labels");
        }
      }
    }
    if (def.event == TriggerEvent::kDelete ||
        def.event == TriggerEvent::kRemove) {
      return Status::ConstraintViolation(
          "BEFORE triggers apply to CREATE/SET events (there is no NEW "
          "state to condition for DELETE/REMOVE)");
    }
  }

  // REFERENCING aliases must match granularity and item kind.
  for (const ReferencingAlias& r : def.referencing) {
    const bool is_set_var = r.var == TransitionVar::kOldNodes ||
                            r.var == TransitionVar::kNewNodes ||
                            r.var == TransitionVar::kOldRels ||
                            r.var == TransitionVar::kNewRels;
    if (def.granularity == Granularity::kEach && is_set_var) {
      return Status::ConstraintViolation(
          "FOR EACH triggers use OLD/NEW, not set transition variables");
    }
    if (def.granularity == Granularity::kAll && !is_set_var) {
      return Status::ConstraintViolation(
          "FOR ALL triggers use OLDNODES/NEWNODES/OLDRELS/NEWRELS");
    }
    const bool is_node_var = r.var == TransitionVar::kOldNodes ||
                             r.var == TransitionVar::kNewNodes;
    const bool is_rel_var =
        r.var == TransitionVar::kOldRels || r.var == TransitionVar::kNewRels;
    if (def.item == ItemKind::kNode && is_rel_var) {
      return Status::ConstraintViolation(
          "node trigger cannot reference OLDRELS/NEWRELS");
    }
    if (def.item == ItemKind::kRelationship && is_node_var) {
      return Status::ConstraintViolation(
          "relationship trigger cannot reference OLDNODES/NEWNODES");
    }
    if (r.alias.empty()) {
      return Status::InvalidArgument("REFERENCING alias must not be empty");
    }
  }
  return Status::OK();
}

Status TriggerCatalog::Install(TriggerDef def) {
  PGT_RETURN_IF_ERROR(Validate(def));
  def.seq = next_seq_++;
  auto ptr = std::make_shared<TriggerDef>(std::move(def));
  triggers_.push_back(ptr);
  // Dispatch invariant: only enabled triggers are registered (programmatic
  // installs may arrive pre-disabled).
  if (ptr->enabled) {
    dispatch_.Add(ptr);
    BumpCount(ptr->time, +1);
  }
  ++ddl_epoch_;
  return Status::OK();
}

Status TriggerCatalog::Drop(const std::string& name) {
  for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
    if ((*it)->name == name) {
      dispatch_.Remove(it->get());
      if ((*it)->enabled) BumpCount((*it)->time, -1);
      triggers_.erase(it);
      health_.erase(name);
      IvmUnregister(name);
      ++ddl_epoch_;
      return Status::OK();
    }
  }
  return Status::NotFound("trigger '" + name + "' does not exist");
}

Status TriggerCatalog::SetEnabled(const std::string& name, bool enabled) {
  for (const auto& t : triggers_) {
    if (t->name == name) {
      if (t->enabled != enabled) {
        t->enabled = enabled;
        if (enabled) {
          dispatch_.Add(t);
        } else {
          dispatch_.Remove(t.get());
          // A disabled trigger never fires, so it must not pay state
          // maintenance; re-enabling rebuilds lazily at the next firing.
          IvmUnregister(name);
        }
        BumpCount(t->time, enabled ? +1 : -1);
        ++ddl_epoch_;
      }
      // A manual ENABLE is the operator saying "try again": the breaker
      // starts from a clean slate (quarantine lifted, counters reset).
      if (enabled) health_.erase(name);
      return Status::OK();
    }
  }
  return Status::NotFound("trigger '" + name + "' does not exist");
}

void TriggerCatalog::DropAll() {
  triggers_.clear();
  dispatch_.Clear();
  enabled_counts_.fill(0);
  health_.clear();
  IvmUnregisterAll();
  ++ddl_epoch_;
}

const TriggerDef* TriggerCatalog::Find(const std::string& name) const {
  for (const auto& t : triggers_) {
    if (t->name == name) return t.get();
  }
  return nullptr;
}

void TriggerCatalog::NoteSuccess(const std::string& name) {
  auto it = health_.find(name);
  if (it == health_.end()) return;
  TriggerHealth& h = it->second;
  h.consecutive_failures = 0;
  if (h.quarantined && h.probe_inflight) {
    // Half-open probe succeeded: the fault cleared — lift the quarantine
    // and forget the backoff (a future incident starts fresh).
    h.quarantined = false;
    h.probe_inflight = false;
    h.backoff = 0;
    h.skips_remaining = 0;
    h.reason.clear();
  }
}

void TriggerCatalog::NoteFailure(const std::string& name, const Status& error,
                                 int64_t now_micros) {
  const int threshold = options_->quarantine_threshold;
  if (threshold <= 0) return;  // breaker off
  const TriggerDef* def = Find(name);
  if (def == nullptr) return;  // dropped while its activation was in flight
  TriggerHealth& h = health_[name];
  ++h.consecutive_failures;
  ++h.total_failures;

  if (h.quarantined) {
    // Only a half-open probe can reach here; a failed probe doubles the
    // backoff window (capped) and closes the breaker again.
    h.probe_inflight = false;
    h.backoff = std::min(h.backoff * 2, kQuarantineBackoffCap);
    h.skips_remaining = h.backoff;
    h.reason = "probe failed: " + error.ToString();
    h.quarantined_at_micros = now_micros;
    ++h.quarantines;
    // The probe's firing may have rebuilt IVM state; quarantined triggers
    // must not maintain any.
    IvmUnregister(name);
    return;
  }

  if (h.consecutive_failures < static_cast<uint64_t>(threshold)) return;

  // Trip the breaker.
  h.quarantined = true;
  h.quarantined_at_micros = now_micros;
  h.reason = "quarantined after " + std::to_string(h.consecutive_failures) +
             " consecutive failures; last: " + error.ToString();
  ++h.quarantines;
  if (def->time == ActionTime::kDetached) {
    // DETACHED actions are autonomous (their errors never fail a host
    // transaction), so the breaker can retry them: skip `backoff`
    // opportunities, then let one probe through.
    h.backoff = kQuarantineBackoffBase;
    h.skips_remaining = h.backoff;
    h.probe_inflight = false;
    IvmUnregister(name);
  } else {
    // Statement-time triggers fail their host transaction; auto-retry
    // would keep breaking commits. Disable until a manual ENABLE.
    (void)SetEnabled(name, false);
  }
}

DetachedGate TriggerCatalog::GateDetached(const std::string& name) {
  auto it = health_.find(name);
  if (it == health_.end() || !it->second.quarantined) return DetachedGate::kRun;
  TriggerHealth& h = it->second;
  if (h.probe_inflight) {
    ++h.skipped;
    return DetachedGate::kSkip;  // one probe at a time
  }
  if (h.skips_remaining > 0) {
    --h.skips_remaining;
    ++h.skipped;
    return DetachedGate::kSkip;
  }
  h.probe_inflight = true;
  ++h.probes;
  return DetachedGate::kProbe;
}

const TriggerHealth* TriggerCatalog::Health(const std::string& name) const {
  auto it = health_.find(name);
  return it == health_.end() ? nullptr : &it->second;
}

std::vector<std::string> TriggerCatalog::Quarantined() const {
  std::vector<std::string> out;
  for (const auto& [name, h] : health_) {
    if (h.quarantined) out.push_back(name);
  }
  return out;
}

std::vector<const TriggerDef*> TriggerCatalog::All() const {
  std::vector<const TriggerDef*> out;
  out.reserve(triggers_.size());
  for (const auto& t : triggers_) out.push_back(t.get());
  return out;
}

}  // namespace pgt
