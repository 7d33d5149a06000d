#ifndef PGTRIGGERS_TRIGGER_TRIGGER_DEF_H_
#define PGTRIGGERS_TRIGGER_TRIGGER_DEF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cypher/ast.h"
#include "src/cypher/transition_vars.h"

namespace pgt {

struct TriggerPlans;  // src/trigger/trigger_plan.h

/// Lazy resolved-id cache that stays copyable/movable (std::atomic alone
/// would delete TriggerDef's copy/move). Every racer resolves and writes
/// the same stable id (interners are append-only), so relaxed ordering is
/// sufficient and concurrent writes are benign. Async-pool workers and the
/// writer may touch these from different threads (docs/async.md).
class ResolvedIdCache {
 public:
  ResolvedIdCache() = default;
  ResolvedIdCache(const ResolvedIdCache& o)
      : v_(o.v_.load(std::memory_order_relaxed)) {}
  ResolvedIdCache& operator=(const ResolvedIdCache& o) {
    v_.store(o.v_.load(std::memory_order_relaxed),
             std::memory_order_relaxed);
    return *this;
  }
  int64_t load() const { return v_.load(std::memory_order_relaxed); }
  void store(int64_t x) { v_.store(x, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{-1};
};

/// When the trigger's condition is considered and its action executed,
/// relative to the activating statement / transaction (paper Figure 1 and
/// Section 4.2 "Action Time").
enum class ActionTime {
  kBefore,    ///< before the statement's effects become definitive; may only
              ///< condition NEW states (docs/semantics.md D1)
  kAfter,     ///< after the statement, inside the same transaction; actions
              ///< cascade with SQL3 stack semantics
  kOnCommit,  ///< at the commit point, still inside the transaction; side
              ///< effects are folded in before the commit
              ///< (docs/semantics.md D4)
  kDetached,  ///< after a successful commit, in an autonomous transaction
};

/// The monitored modification kind (Figure 1 <event>).
enum class TriggerEvent { kCreate, kDelete, kSet, kRemove };

/// Whether the trigger targets nodes or relationships (Figure 1 <item>).
enum class ItemKind { kNode, kRelationship };

/// Instance-level (FOR EACH) vs set-level (FOR ALL) granularity.
enum class Granularity { kEach, kAll };

const char* ActionTimeName(ActionTime t);
const char* TriggerEventName(TriggerEvent e);
const char* ItemKindName(ItemKind k);
const char* GranularityName(Granularity g);

/// Canonical transition-variable roles (Figure 1 <alias for old or new>).
enum class TransitionVar {
  kOld,       ///< single old item       (FOR EACH)
  kNew,       ///< single new item       (FOR EACH)
  kOldNodes,  ///< set of old nodes      (FOR ALL NODE)
  kNewNodes,  ///< set of new nodes      (FOR ALL NODE)
  kOldRels,   ///< set of old rels       (FOR ALL RELATIONSHIP)
  kNewRels,   ///< set of new rels       (FOR ALL RELATIONSHIP)
};

const char* TransitionVarName(TransitionVar v);

/// One REFERENCING entry: `NEWNODES AS admitted`.
struct ReferencingAlias {
  TransitionVar var;
  std::string alias;
};

/// A parsed PG-Trigger (paper Figure 1). This is the core artifact of the
/// library: the engine executes it, the translators compile it to APOC /
/// Memgraph code, and the termination analyzer reasons over it.
struct TriggerDef {
  std::string name;
  ActionTime time = ActionTime::kAfter;
  TriggerEvent event = TriggerEvent::kCreate;
  /// Target label (node triggers) or relationship type (relationship
  /// triggers); Section 4.2 "Targeting".
  std::string label;
  /// Monitored property for SET/REMOVE property events (`ON 'L'.'p'`);
  /// empty for CREATE/DELETE and for label events.
  std::string property;
  Granularity granularity = Granularity::kEach;
  ItemKind item = ItemKind::kNode;
  std::vector<ReferencingAlias> referencing;

  /// WHEN as a boolean expression over transition variables (e.g.
  /// `OLD.x <> NEW.x`); null when the condition is a pipeline or absent.
  cypher::ExprPtr when_expr;
  /// WHEN as a read-only Cypher pipeline (MATCH/UNWIND/WITH...); the
  /// condition holds iff it yields at least one row, and the action runs
  /// once per result row with its bindings in scope (docs/semantics.md D2).
  cypher::Query when_query;
  /// BEGIN ... END action.
  cypher::Query statement;

  // --- Engine bookkeeping ---------------------------------------------------
  uint64_t seq = 0;      ///< creation order; drives prioritization (D5)
  bool enabled = true;

  /// Compiled WHEN/action plans, filled lazily by the engine on first
  /// activation and keyed on (store, plan epoch) — see trigger_plan.h.
  /// Mutable because plan caching is transparent to trigger identity.
  /// Access only through GetOrCompileTriggerPlans, which serializes
  /// readers and writers behind a mutex: with an async pool, activations
  /// of this trigger execute from worker threads (serialized by the
  /// Database's writer interlock, but on changing threads). Not cloned (a
  /// clone recompiles).
  mutable std::shared_ptr<const TriggerPlans> compiled_plans;

  bool HasWhen() const {
    return when_expr != nullptr || !when_query.clauses.empty();
  }

  /// Resolved name for a transition variable (REFERENCING alias if given,
  /// else the canonical keyword, e.g. "NEW").
  std::string AliasFor(TransitionVar v) const;

  /// The single/set old/new variable names applicable to this trigger's
  /// granularity and item kind.
  std::string OldVarName() const;
  std::string NewVarName() const;

  /// Interned ids of OldVarName()/NewVarName(), resolved once per
  /// definition (TransVars is append-only, so a cached id never goes
  /// stale). The engine keys every TransitionEnv binding on these.
  /// Relaxed-atomic lazy caches: safe to race between pool workers and
  /// the writer (every racer resolves the same stable id).
  cypher::TransVarId OldVarId() const;
  cypher::TransVarId NewVarId() const;
  mutable ResolvedIdCache old_var_id_cache;
  mutable ResolvedIdCache new_var_id_cache;
  /// Cached target LabelId (node triggers), resolved on first activation
  /// against the store's interner; < 0 = not yet interned.
  mutable ResolvedIdCache target_label_cache;

  /// Unparses to canonical PG-Trigger DDL (round-trips through the parser).
  std::string ToDdl() const;

  TriggerDef Clone() const;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_TRIGGER_DEF_H_
