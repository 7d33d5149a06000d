#ifndef PGTRIGGERS_CYPHER_EVAL_H_
#define PGTRIGGERS_CYPHER_EVAL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/prop_map.h"
#include "src/common/result.h"
#include "src/common/value.h"
#include "src/cypher/ast.h"
#include "src/cypher/exec_budget.h"
#include "src/cypher/transition_vars.h"
#include "src/storage/store_view.h"
#include "src/tx/transaction.h"

namespace pgt {

/// Query parameters ($name -> value). Transparent comparator: lookups from
/// string_view / const char* keys probe without materializing a
/// std::string.
using Params = std::map<std::string, Value, std::less<>>;

}  // namespace pgt

namespace pgt::cypher {

/// A named binding row: what a CALLed procedure receives and returns
/// (src/cypher/functions.h) and how the emulators hand predefined variables
/// to their trigger statements. Kept as a small ordered vector (rows bind
/// few variables); lookups are linear.
struct Row {
  std::vector<std::pair<std::string, Value>> cols;

  const Value* Get(std::string_view name) const;
  /// Sets (overwriting an existing binding of the same name).
  void Set(std::string_view name, Value v);
};

/// Transition-variable environment injected by the trigger engine
/// (Section 4.2 "Transition Variables"; docs/semantics.md D6).
///
/// * `singles` binds item-granularity variables (OLD / NEW or their
///   REFERENCING aliases) to node/relationship values; they are seeded into
///   the statement's initial row.
/// * `sets` binds set-granularity names (OLDNODES / NEWNODES / OLDRELS /
///   NEWRELS or aliases). These act as *pseudo-labels* in patterns —
///   `MATCH (pn:NEWNODES)` filters to the transition set — and are also
///   seeded as list values.
/// * `old_view_vars` lists variables whose property reads must see the
///   OLD images (old_node_props / old_rel_props overlays; falls back to the
///   ghost record for deleted items, then to the live store).
///
/// Bindings are keyed by interned TransVarId and held in flat
/// insertion-ordered vectors (an env binds at most a handful of variables —
/// linear probes beat tree maps and allocate nothing once the capacity is
/// warm). Envs are pooled by the engine across activations: Clear() resets
/// contents but keeps every buffer's capacity, so a steady-state firing
/// builds its env without heap traffic. Name-keyed lookups go through the
/// TransVars table first; a name the table has never seen cannot be bound
/// in any env.
struct TransitionEnv {
  struct SetBinding {
    bool is_node = true;
    std::vector<uint64_t> ids;
  };

  /// One OLD-image overlay entry: the pre-statement value of (item, key).
  /// Appended in event order while the activation is built; Seal() then
  /// sorts by (item, key) keeping the first-appended entry per pair ("first
  /// old value wins" — it is the pre-statement image). A flat vector keeps
  /// the pooled env allocation-free where a node-per-entry hash map paid
  /// one allocation per overlay per activation.
  struct OldImage {
    uint64_t item = 0;
    PropKeyId key = 0;
    uint32_t seq = 0;  // append order; Seal's stability tie-break
    Value value;
  };

  std::vector<std::pair<TransVarId, Value>> singles;
  std::vector<std::pair<TransVarId, SetBinding>> sets;
  std::vector<TransVarId> old_view_vars;
  std::vector<OldImage> old_node_props;
  std::vector<OldImage> old_rel_props;

  // --- Builders (engine / tests) -------------------------------------------

  void SetSingle(TransVarId var, Value v) {
    for (auto& [id, val] : singles) {
      if (id == var) {
        val = std::move(v);
        return;
      }
    }
    singles.emplace_back(var, std::move(v));
  }
  void SetSingle(std::string_view name, Value v) {
    SetSingle(TransVars::Intern(name), std::move(v));
  }

  /// Returns the set binding for `var`, creating it if absent.
  SetBinding& MutableSet(TransVarId var, bool is_node) {
    for (auto& [id, sb] : sets) {
      if (id == var) return sb;
    }
    sets.emplace_back(var, SetBinding{is_node, {}});
    return sets.back().second;
  }
  SetBinding& MutableSet(std::string_view name, bool is_node) {
    return MutableSet(TransVars::Intern(name), is_node);
  }

  void MarkOldView(TransVarId var) {
    if (!IsOldView(var)) old_view_vars.push_back(var);
  }
  void MarkOldView(std::string_view name) {
    MarkOldView(TransVars::Intern(name));
  }

  void AddOldNodeProp(uint64_t item, PropKeyId key, Value v) {
    old_node_props.push_back(
        {item, key, static_cast<uint32_t>(old_node_props.size()),
         std::move(v)});
  }
  void AddOldRelProp(uint64_t item, PropKeyId key, Value v) {
    old_rel_props.push_back(
        {item, key, static_cast<uint32_t>(old_rel_props.size()),
         std::move(v)});
  }

  /// Sorts the overlays by (item, key) and drops all but the first-appended
  /// entry per pair. Must be called once after the last Add*; lookups
  /// binary-search the sealed form.
  void Seal() {
    SealOne(old_node_props);
    SealOne(old_rel_props);
  }

  /// Sealed-overlay lookup: the pre-statement value of (item, key), or
  /// nullptr when the statement did not touch it.
  const Value* FindOldProp(bool is_node, uint64_t item, PropKeyId key) const {
    const std::vector<OldImage>& v = is_node ? old_node_props
                                             : old_rel_props;
    auto it = std::lower_bound(v.begin(), v.end(), std::pair{item, key},
                               [](const OldImage& e,
                                  const std::pair<uint64_t, PropKeyId>& k) {
                                 return std::tie(e.item, e.key) <
                                        std::tie(k.first, k.second);
                               });
    if (it == v.end() || it->item != item || it->key != key) return nullptr;
    return &it->value;
  }

  /// Resets contents, keeping the outer containers' capacity (pooled
  /// reuse; the set bindings' inner id buffers are freed — they are
  /// per-binding and tiny).
  void Clear() {
    singles.clear();
    sets.clear();
    old_view_vars.clear();
    old_node_props.clear();
    old_rel_props.clear();
  }

  // --- Lookups --------------------------------------------------------------

  const Value* FindSingle(TransVarId var) const {
    for (const auto& [id, v] : singles) {
      if (id == var) return &v;
    }
    return nullptr;
  }
  const SetBinding* FindSet(TransVarId var) const {
    for (const auto& [id, sb] : sets) {
      if (id == var) return &sb;
    }
    return nullptr;
  }
  bool IsOldView(TransVarId var) const {
    for (TransVarId id : old_view_vars) {
      if (id == var) return true;
    }
    return false;
  }

  const Value* FindSingle(std::string_view name) const {
    auto id = TransVars::Lookup(name);
    return id.has_value() ? FindSingle(*id) : nullptr;
  }
  const SetBinding* FindSet(std::string_view name) const {
    auto id = TransVars::Lookup(name);
    return id.has_value() ? FindSet(*id) : nullptr;
  }
  bool IsOldView(std::string_view name) const {
    auto id = TransVars::Lookup(name);
    return id.has_value() && IsOldView(*id);
  }

 private:
  static void SealOne(std::vector<OldImage>& v) {
    if (v.size() < 2) return;
    std::sort(v.begin(), v.end(), [](const OldImage& a, const OldImage& b) {
      return std::tie(a.item, a.key, a.seq) < std::tie(b.item, b.key, b.seq);
    });
    v.erase(std::unique(v.begin(), v.end(),
                        [](const OldImage& a, const OldImage& b) {
                          return a.item == b.item && a.key == b.key;
                        }),
            v.end());
  }
};

class ProcedureRegistry;

/// Everything expression evaluation / matching / execution needs.
/// Non-owning: the Database wires the pieces together.
///
/// Reads flow through `view` (src/storage/store_view.h): a zero-cost
/// LiveView for the writer / trigger path, or a SnapshotView pinned to a
/// committed epoch for lock-free reader threads (Database::QueryAt). The
/// ghost-aware Read* helpers consult the transaction's deleted-item images
/// first when a transaction is present; snapshot contexts have tx ==
/// nullptr (they are read-only by construction) and resolve directly
/// against the pinned view.
struct EvalContext {
  Transaction* tx = nullptr;  // null for read-only (txless) execution
  mutable StoreView view;     // lazily derived from tx when unset
  const Params* params = nullptr;
  LogicalClock* clock = nullptr;  // null in snapshot contexts
  const TransitionEnv* transition = nullptr;
  ProcedureRegistry* procedures = nullptr;

  /// Cooperative cancellation budget (docs/robustness.md). Null (the
  /// default, and always null when neither budget option is set) keeps
  /// every tick site at one predicted-not-taken branch. Non-null contexts
  /// share the statement's budget across cascaded trigger activations.
  ExecBudget* budget = nullptr;

  /// Guard invoked on every label set/remove performed by the executor;
  /// the trigger engine uses it to enforce the Section 4.2 rule that a
  /// trigger statement may not set/remove its target label.
  std::function<Status(LabelId, bool /*is_set*/)> label_write_guard;

  /// The read view. Contexts built around a transaction may omit `view`;
  /// it is derived (once) as the live view of the transaction's store.
  const StoreView* store() const {
    if (!view.valid() && tx != nullptr) {
      view = StoreView::Live(*tx->store());
    }
    return &view;
  }

  // --- Ghost-aware reads ---------------------------------------------------

  Value ReadNodeProp(NodeId id, PropKeyId key) const {
    if (tx != nullptr) return tx->ReadNodeProp(id, key);
    return store()->NodeProp(id, key);
  }
  Value ReadRelProp(RelId id, PropKeyId key) const {
    if (tx != nullptr) return tx->ReadRelProp(id, key);
    return store()->RelProp(id, key);
  }
  std::vector<LabelId> ReadNodeLabels(NodeId id) const {
    if (tx != nullptr) return tx->ReadNodeLabels(id);
    const std::vector<LabelId>* labels = store()->NodeLabels(id);
    return labels != nullptr ? *labels : std::vector<LabelId>{};
  }
  /// Zero-copy labels (see Transaction::ReadNodeLabelsView); nullptr when
  /// the node is unreadable in this context.
  const std::vector<LabelId>* ReadNodeLabelsView(NodeId id) const {
    if (tx != nullptr) return tx->ReadNodeLabelsView(id);
    return store()->NodeLabels(id);
  }
  const DeletedNodeImage* GhostNode(NodeId id) const {
    return tx != nullptr ? tx->GhostNode(id) : nullptr;
  }
  const DeletedRelImage* GhostRel(RelId id) const {
    return tx != nullptr ? tx->GhostRel(id) : nullptr;
  }
};

/// Applies a binary / unary operator to already-evaluated operands (Cypher
/// ternary logic, numeric coercion, string predicates, IN); `line`/`col`
/// feed the error text. Used by the plan executor (src/cypher/plan).
Result<Value> EvalBinaryOp(BinOp op, const Value& a, const Value& b, int line,
                           int col);
Result<Value> EvalUnaryOp(UnOp op, const Value& a, int line, int col);

/// True if the expression contains an aggregate call (COUNT/SUM/AVG/MIN/
/// MAX/COLLECT or COUNT(*)) outside any EXISTS subquery.
bool ContainsAggregate(const Expr& e);

/// True if `name` (case-insensitive) is an aggregate function name.
bool IsAggregateFunctionName(const std::string& name);

/// Ghost-aware item reads.
Value ReadItemProp(EvalContext& ctx, const Value& item, PropKeyId key);
std::vector<LabelId> ReadItemLabels(EvalContext& ctx, const Value& item);

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_EVAL_H_
