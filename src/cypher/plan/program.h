#ifndef PGTRIGGERS_CYPHER_PLAN_PROGRAM_H_
#define PGTRIGGERS_CYPHER_PLAN_PROGRAM_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/value.h"
#include "src/cypher/ast.h"
#include "src/cypher/scan_buffers.h"
#include "src/cypher/transition_vars.h"
#include "src/storage/graph_store.h"
#include "src/storage/store_view.h"

namespace pgt::cypher::plan {

// ============================================================================
// Frames — slot-addressed binding rows. A query is compiled against a fixed
// variable universe; every frame has one slot per variable, and binding
// state is tracked explicitly, so "unbound variable" semantics (errors,
// OPTIONAL MATCH padding, bound-var pattern constraints) hold per slot.
// ============================================================================

struct FrameSlot {
  Value v;
  bool bound = false;
};

struct Frame {
  std::vector<FrameSlot> slots;

  Frame() = default;
  explicit Frame(size_t n) : slots(n) {}

  bool Bound(int slot) const { return slots[slot].bound; }
  const Value* Get(int slot) const {
    return slots[slot].bound ? &slots[slot].v : nullptr;
  }
  void Set(int slot, Value v) {
    slots[slot].v = std::move(v);
    slots[slot].bound = true;
  }
  void Clear(int slot) {
    slots[slot].v = Value();
    slots[slot].bound = false;
  }
};

/// Recycler for the slot buffers behind Frames. A firing churns through
/// frames (seed, per-emitted-match copies, per-step pipelines); their slot
/// vectors are all the same length for a given program, so returning them
/// here instead of freeing makes steady-state frame traffic allocation-free
/// (docs/values.md "pooled activation lifecycle"). Owned by the Database /
/// engine and shared by every PlanExecutor; single-threaded by design (D7).
class FramePool {
 public:
  /// A frame of `n` default slots, reusing a recycled buffer when one fits.
  /// Fresh buffers reserve kMinSlotCapacity so recycled buffers are
  /// interchangeable across programs with different (small) slot counts.
  Frame Acquire(size_t n) {
    Frame f;
    if (free_.empty()) {
      f.slots.reserve(std::max(n, kMinSlotCapacity));
    } else {
      f.slots = std::move(free_.back());
      free_.pop_back();
      f.slots.clear();  // destroys old slot values, keeps the buffer
    }
    f.slots.resize(n);
    return f;
  }

  /// A copy of `src`, reusing a recycled buffer (vector copy-assign into
  /// retained capacity: no allocation once warm).
  Frame AcquireCopy(const Frame& src) {
    Frame f;
    if (free_.empty()) {
      f.slots.reserve(std::max(src.slots.size(), kMinSlotCapacity));
    } else {
      f.slots = std::move(free_.back());
      free_.pop_back();
    }
    f.slots = src.slots;
    return f;
  }

  void Recycle(Frame&& f) {
    if (f.slots.capacity() != 0 && free_.size() < kMaxFree) {
      // Destroy the Values now (banked buffers must not pin the last
      // execution's heap payloads); the capacity is what the pool keeps.
      f.slots.clear();
      free_.push_back(std::move(f.slots));
    }
  }

  void RecycleAll(std::vector<Frame>&& frames) {
    for (Frame& f : frames) Recycle(std::move(f));
    frames.clear();
    // Bank the vector's own buffer as well: pipeline steps churn through
    // one frames-vector per step.
    if (frames.capacity() != 0 && free_vecs_.size() < kMaxFree) {
      free_vecs_.push_back(std::move(frames));
    }
  }

  /// An empty frames vector, reusing a banked buffer when available.
  std::vector<Frame> AcquireVec() {
    if (free_vecs_.empty()) return {};
    std::vector<Frame> v = std::move(free_vecs_.back());
    free_vecs_.pop_back();
    return v;
  }

  /// LIFO recycler for node-scan buffers (the matcher recurses while
  /// iterating candidates, so every MATCH level owns its own pair).
  NodeScanBuffers AcquireScanBufs() {
    if (free_scan_bufs_.empty()) return {};
    NodeScanBuffers b = std::move(free_scan_bufs_.back());
    free_scan_bufs_.pop_back();
    return b;
  }
  void ReleaseScanBufs(NodeScanBuffers&& b) {
    if (free_scan_bufs_.size() < 32) free_scan_bufs_.push_back(std::move(b));
  }

 private:
  // Bounds pool memory; deep pipelines simply fall back to malloc.
  static constexpr size_t kMaxFree = 256;
  static constexpr size_t kMinSlotCapacity = 8;
  std::vector<std::vector<FrameSlot>> free_;
  std::vector<std::vector<Frame>> free_vecs_;
  std::vector<NodeScanBuffers> free_scan_bufs_;
};

// ============================================================================
// Symbol references — names resolved to interned ids once, then cached.
//
// A plan is compiled once and executed many times, but a name it mentions
// may not be interned yet at compile time (the same late-interning problem
// DispatchIndex solves with its pending list). A SymbolRef carries the name
// and a cached id: read-side uses Resolve* (lookup, cache on success —
// interner ids are stable and never removed, so a cached id can never go
// stale), write-side uses Intern* (interning on first execution, when the
// write actually happens). Caches are mutable relaxed
// atomics so pool workers sharing a compiled plan may race benignly on
// them (see the struct comment below).
// ============================================================================

struct SymbolRef {
  std::string name;
  // Caches are mutable atomics: a trigger's compiled plans are shared with
  // async pool workers (docs/async.md), so concurrent executions may race
  // to fill a cache — benign (every racer writes the same stable id), but
  // atomics make the race defined. Relaxed suffices: the value is
  // self-validating (< 0 = retry the lookup).
  mutable std::atomic<int64_t> cached{-1};  // < 0 = not resolved yet
  // Id in the TransVars table, for names that may address a transition
  // set binding (pattern labels / label tests). Same pending discipline:
  // cached on first successful lookup; TransVars never forgets a name.
  mutable std::atomic<int64_t> trans_cached{-1};

  SymbolRef() = default;
  explicit SymbolRef(std::string n) : name(std::move(n)) {}
  SymbolRef(const SymbolRef& o)
      : name(o.name),
        cached(o.cached.load(std::memory_order_relaxed)),
        trans_cached(o.trans_cached.load(std::memory_order_relaxed)) {}
  SymbolRef(SymbolRef&& o) noexcept
      : name(std::move(o.name)),
        cached(o.cached.load(std::memory_order_relaxed)),
        trans_cached(o.trans_cached.load(std::memory_order_relaxed)) {}
  SymbolRef& operator=(const SymbolRef& o) {
    name = o.name;
    cached.store(o.cached.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    trans_cached.store(o.trans_cached.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
  SymbolRef& operator=(SymbolRef&& o) noexcept {
    name = std::move(o.name);
    cached.store(o.cached.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    trans_cached.store(o.trans_cached.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
};

inline std::optional<LabelId> ResolveLabel(const SymbolRef& ref,
                                           const StoreView& view) {
  if (ref.cached >= 0) return static_cast<LabelId>(ref.cached);
  auto id = view.LookupLabel(ref.name);
  if (id.has_value()) ref.cached = *id;
  return id;
}

inline std::optional<RelTypeId> ResolveRelType(const SymbolRef& ref,
                                               const StoreView& view) {
  if (ref.cached >= 0) return static_cast<RelTypeId>(ref.cached);
  auto id = view.LookupRelType(ref.name);
  if (id.has_value()) ref.cached = *id;
  return id;
}

inline std::optional<PropKeyId> ResolvePropKey(const SymbolRef& ref,
                                               const StoreView& view) {
  if (ref.cached >= 0) return static_cast<PropKeyId>(ref.cached);
  auto id = view.LookupPropKey(ref.name);
  if (id.has_value()) ref.cached = *id;
  return id;
}

inline LabelId InternLabel(const SymbolRef& ref, GraphStore& store) {
  if (ref.cached < 0) ref.cached = store.InternLabel(ref.name);
  return static_cast<LabelId>(ref.cached);
}

inline RelTypeId InternRelType(const SymbolRef& ref, GraphStore& store) {
  if (ref.cached < 0) ref.cached = store.InternRelType(ref.name);
  return static_cast<RelTypeId>(ref.cached);
}

inline PropKeyId InternPropKey(const SymbolRef& ref, GraphStore& store) {
  if (ref.cached < 0) ref.cached = store.InternPropKey(ref.name);
  return static_cast<PropKeyId>(ref.cached);
}

// ============================================================================
// Compiled expressions — structurally the parsed Expr with variables
// resolved to slots, property keys to SymbolRefs, and aggregate calls
// numbered for the projection's substitution pass. Runtime-dependent checks
// (transition pseudo-labels, OLD property views) keep the original names
// and re-check against the activation's TransitionEnv on every evaluation.
// ============================================================================

struct PPattern;  // fwd (EXISTS subqueries)

struct PExpr {
  Expr::Kind kind = Expr::Kind::kLiteral;
  int line = 0, col = 0;

  Value value;       // kLiteral
  std::string name;  // kParam / kVar (error text) / kFunc / kProp key /
                     // kListComp iteration variable
  int slot = -1;     // kVar; kListComp iteration slot
  SymbolRef prop;    // kProp
  // kProp whose base is a variable the compile env lists as an OLD-view
  // candidate; the executor then consults TransitionEnv overlays. The
  // base variable's TransVars id is interned at compile time so the
  // runtime re-check is an integer probe.
  bool old_view_candidate = false;
  TransVarId old_view_var = kInvalidTransVar;

  std::unique_ptr<PExpr> a, b, c;
  std::vector<std::unique_ptr<PExpr>> args;
  std::vector<std::pair<std::string, std::unique_ptr<PExpr>>> map_entries;
  std::vector<std::pair<std::unique_ptr<PExpr>, std::unique_ptr<PExpr>>>
      whens;
  BinOp bin_op = BinOp::kEq;
  UnOp un_op = UnOp::kNot;
  bool distinct = false;
  std::vector<SymbolRef> labels;  // kLabelTest (may name transition sets)

  // Aggregate substitution: kCountStar / aggregate kFunc nodes are numbered
  // in pre-order (a, b, c, args, map entries, whens; no descent into EXISTS
  // subqueries or aggregate arguments).
  int agg_index = -1;

  // kBinary kIn whose right side folded to a literal list: the compiler
  // pre-sorts the non-null elements so membership is a binary search
  // (TotalCompare == 0 coincides with Equals for every value pair except
  // NaN, which the executor routes to the linear path).
  bool const_in_probe = false;
  std::vector<Value> in_sorted;
  bool in_has_null = false;

  std::unique_ptr<PPattern> pattern;  // kExists
  std::unique_ptr<PExpr> pattern_where;
};

using PExprPtr = std::unique_ptr<PExpr>;

// ============================================================================
// Compiled patterns and scan templates.
// ============================================================================

struct PPropConstraint {
  SymbolRef key;
  PExprPtr expr;
};

struct PNodePattern {
  int slot = -1;             // -1 = anonymous
  std::string var;           // original variable name (diagnostics)
  std::vector<SymbolRef> labels;  // split real/transition at runtime
  std::vector<PPropConstraint> props;
  int line = 0, col = 0;
};

struct PRelPattern {
  int slot = -1;
  std::string var;
  std::vector<SymbolRef> types;
  std::vector<PPropConstraint> props;
  PatternDirection direction = PatternDirection::kUndirected;
  bool var_length = false;
  int64_t min_hops = 1;
  int64_t max_hops = 1;
};

/// Access-path template for a pattern part's first node, resolved at
/// compile time against the compiling view's indexes (the live catalog at
/// PlanProgram::epoch, or a snapshot's index image). The
/// probe *values* stay per-row (a trigger condition like
/// `{id: NEW.owner}` probes a different key every activation), so each
/// candidate carries a pointer to its compiled comparand expression; the
/// executor evaluates comparands per input row and picks the access path in
/// the same preference order as PlanNodeScan. Whatever is picked, scans
/// enumerate candidates in ascending id order, so results are identical
/// across access paths (the matcher's determinism contract).
struct PScanTemplate {
  struct EqProbe {
    IndexRef idx;        // as resolved in the view the plan compiled against
    LabelId label = 0;   // idx's (label, prop): re-resolution on snapshots
    PropKeyId prop = 0;
    PExprPtr comparand;  // owned copy; the planner evaluates it per row
    bool unique = false;
    // Index into the pattern node's props when this probe came from that
    // inline constraint (-1: WHERE conjunct). Index postings are exact
    // (alive nodes, exact indexed value), so when the executor takes this
    // probe with a probe-safe scalar it can skip re-checking the sourcing
    // constraint per candidate.
    int inline_prop_idx = -1;
  };
  struct RangeBound {
    BinOp op = BinOp::kLt;  // kLt / kLe / kGt / kGe
    PExprPtr comparand;
  };
  struct RangeGroup {                  // one sargable key with an ordered idx
    LabelId label = 0;
    PropKeyId prop = 0;
    IndexRef idx;
    std::vector<RangeBound> bounds;
  };

  // In planner consideration order: inline-prop probes first, then WHERE
  // conjuncts.
  std::vector<EqProbe> eq_probes;
  // Sorted by prop key id.
  std::vector<RangeGroup> range_groups;
};

struct PPatternPart {
  PNodePattern first;
  PScanTemplate scan;
  std::vector<std::pair<PRelPattern, PNodePattern>> chain;
};

struct PPattern {
  std::vector<PPatternPart> parts;
  // Slots this pattern may introduce, in PatternVariables order (OPTIONAL
  // MATCH padding).
  std::vector<int> intro_slots;
};

// ============================================================================
// Compiled clauses (steps) and whole programs.
// ============================================================================

struct PProjItem {
  PExprPtr expr;
  int slot = -1;  // alias slot
  std::string alias;
  bool has_aggregate = false;
};

struct PSortItem {
  PExprPtr expr;
  bool ascending = true;
};

struct PSetItem {
  SetItem::Kind kind = SetItem::Kind::kProperty;
  PExprPtr target;       // kProperty
  SymbolRef prop;        // kProperty (interned on first execution)
  PExprPtr value;        // kProperty / kMergeMap
  int var_slot = -1;     // kLabels / kMergeMap
  std::string var;       // error text
  std::vector<SymbolRef> labels;  // kLabels (interned on first execution)
};

struct PRemoveItem {
  RemoveItem::Kind kind = RemoveItem::Kind::kProperty;
  PExprPtr target;
  SymbolRef prop;        // lookup-only (REMOVE never interns)
  int var_slot = -1;
  std::string var;
  std::vector<SymbolRef> labels;  // lookup-only
};

/// The order in which a pipeline point's bound variables were bound — the
/// column order of `RETURN *` and of the row a CALL hands its procedure.
/// Each entry is one binding event: a single variable, or the variables an
/// OPTIONAL MATCH introduces, which bind in pattern-walk order (`matched`:
/// first node, then node before relationship per hop) when the pattern
/// matches but in declaration order (`padded`: relationship before node)
/// when the row is NULL-padded. Every frame at one pipeline point binds the
/// same variables, so the order is a compile-time fact up to that choice.
struct BindingOrder {
  struct Entry {
    std::vector<int> matched;
    std::vector<int> padded;  // empty unless an OPTIONAL MATCH group
  };
  std::vector<Entry> entries;

  /// The slots `f` binds, in binding order.
  std::vector<int> SlotsOf(const Frame& f) const {
    std::vector<int> out;
    for (const Entry& e : entries) {
      // A padded group binds NULL where a match binds a node or a
      // relationship (or a relationship list).
      const bool padded = !e.padded.empty() && f.Bound(e.matched.front()) &&
                          f.Get(e.matched.front())->is_null();
      for (int slot : padded ? e.padded : e.matched) {
        if (f.Bound(slot)) out.push_back(slot);
      }
    }
    return out;
  }
};

struct PStep {
  Clause::Kind kind = Clause::Kind::kMatch;
  int line = 0, col = 0;

  // Set on a RETURN where none may stand (a trigger action, or a RETURN
  // before the last clause): reaching the step fails with this message,
  // after the steps before it ran.
  std::string error;

  // kMatch / kCreate / kMerge
  bool optional_match = false;
  PPattern pattern;
  PExprPtr where;  // kMatch, kWith

  // kUnwind
  PExprPtr unwind_expr;
  int unwind_slot = -1;

  // kWith / kReturn
  bool is_return = false;
  bool star = false;  // RETURN * / WITH *: frames pass through unchanged
  bool distinct = false;
  std::vector<PProjItem> items;
  std::vector<PSortItem> order_by;
  PExprPtr skip, limit;
  bool any_aggregate = false;
  // Unique alias slots in first-occurrence order (result columns and
  // DISTINCT keys).
  std::vector<int> out_slots;
  std::vector<std::string> out_names;
  int agg_count = 0;  // aggregate calls across all items

  // kMerge
  std::vector<PSetItem> on_create, on_match;

  // kDelete
  bool detach = false;
  std::vector<PExprPtr> delete_exprs;

  // kSet / kRemove
  std::vector<PSetItem> set_items;
  std::vector<PRemoveItem> remove_items;

  // kForeach
  int foreach_slot = -1;
  PExprPtr foreach_list;
  std::vector<PStep> foreach_body;

  // kCall: the procedure resolves at run time (the registry may change
  // between compile and execution); yielded columns bind in YIELD order.
  std::string call_proc;
  std::vector<PExprPtr> call_args;
  std::vector<std::string> call_yield;
  std::vector<int> yield_slots;

  // Star projections (result columns) and CALL (the procedure's row).
  BindingOrder scope;
};

/// A compiled statement: the slot universe plus the step pipeline. Plans
/// are affine to the view they were compiled against (cached symbol ids,
/// index refs) and to the plan epoch (scan templates); callers compare
/// both before executing and recompile when stale. `store` is null for
/// plans compiled against a snapshot, which run once, on that snapshot.
struct PlanProgram {
  size_t slot_count = 0;
  std::vector<std::string> slot_names;
  std::vector<PStep> steps;
  const GraphStore* store = nullptr;
  uint64_t epoch = 0;
};

/// A compiled trigger: WHEN (expression or pipeline) and action share one
/// slot universe so condition bindings flow into the action
/// (docs/semantics.md D2).
struct TriggerProgram {
  size_t slot_count = 0;
  std::vector<std::string> slot_names;
  // Transition variables seeded before WHEN, as (TransVars id, slot) —
  // names are resolved to interned ids at compile time, so matching an
  // activation's env bindings to slots is integer compares. The engine
  // fills values from the activation's TransitionEnv and re-binds any slot
  // a WITH re-scope dropped before running the action.
  std::vector<std::pair<TransVarId, int>> seed_slots;
  PExprPtr when_expr;           // nullable
  std::vector<PStep> when_steps;
  std::vector<PStep> action_steps;
  const GraphStore* store = nullptr;
  uint64_t epoch = 0;
};

}  // namespace pgt::cypher::plan

#endif  // PGTRIGGERS_CYPHER_PLAN_PROGRAM_H_
