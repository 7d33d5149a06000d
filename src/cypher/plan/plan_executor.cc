#include "src/cypher/plan/plan_executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "src/common/macros.h"
#include "src/common/str_util.h"
#include "src/cypher/functions.h"
#include "src/cypher/plan/compiler.h"
#include "src/cypher/scan_plan.h"

namespace pgt::cypher {

std::string QueryResult::ToTable() const {
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < columns.size(); ++c) {
    widths[c] = columns[c].size();
  }
  for (const auto& row : rows) {
    std::vector<std::string> line;
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& vals) {
    os << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      std::string v = c < vals.size() ? vals[c] : "";
      os << " " << v << std::string(widths[c] - v.size(), ' ') << " |";
    }
    os << "\n";
  };
  emit_row(columns);
  os << "|";
  for (size_t c = 0; c < widths.size(); ++c) {
    os << std::string(widths[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& line : cells) emit_row(line);
  return os.str();
}

}  // namespace pgt::cypher

namespace pgt::cypher::plan {

namespace {

/// Reduces one aggregate call (count / collect / sum / avg / min / max)
/// over the evaluated per-row argument values, NULLs already removed;
/// applies DISTINCT dedup first when `distinct` is set.
Result<Value> FinishAggregate(const std::string& name, bool distinct,
                              std::vector<Value> vals) {
  const std::string fn = ToLower(name);
  if (distinct) {
    std::vector<Value> uniq;
    for (Value& v : vals) {
      bool dup = false;
      for (const Value& u : uniq) {
        if (u.Equals(v)) {
          dup = true;
          break;
        }
      }
      if (!dup) uniq.push_back(std::move(v));
    }
    vals = std::move(uniq);
  }
  if (fn == "count") return Value::Int(static_cast<int64_t>(vals.size()));
  if (fn == "collect") return Value::MakeList(std::move(vals));
  if (fn == "sum") {
    bool all_int = true;
    double acc = 0;
    int64_t iacc = 0;
    for (const Value& v : vals) {
      if (!v.is_numeric()) {
        return Status::TypeError("sum over non-numeric value");
      }
      if (v.is_int()) {
        iacc += v.int_value();
      } else {
        all_int = false;
      }
      acc += v.as_double();
    }
    return all_int ? Value::Int(iacc) : Value::Double(acc);
  }
  if (fn == "avg") {
    if (vals.empty()) return Value::Null();
    double acc = 0;
    for (const Value& v : vals) {
      if (!v.is_numeric()) {
        return Status::TypeError("avg over non-numeric value");
      }
      acc += v.as_double();
    }
    return Value::Double(acc / static_cast<double>(vals.size()));
  }
  if (fn == "min" || fn == "max") {
    if (vals.empty()) return Value::Null();
    Value best = vals[0];
    for (size_t i = 1; i < vals.size(); ++i) {
      const int c = vals[i].TotalCompare(best);
      if ((fn == "min" && c < 0) || (fn == "max" && c > 0)) best = vals[i];
    }
    return best;
  }
  return Status::InvalidArgument("unknown aggregate " + name);
}

Status TypeErrAt(int line, int col, const std::string& msg) {
  return Status::TypeError(msg + " at " + std::to_string(line) + ":" +
                           std::to_string(col));
}

Status ExecErrAt(const PStep& s, const std::string& msg) {
  return Status::InvalidArgument(msg + " at " + std::to_string(s.line) + ":" +
                                 std::to_string(s.col));
}

bool InSet(const TransitionEnv::SetBinding& set, uint64_t id) {
  return std::find(set.ids.begin(), set.ids.end(), id) != set.ids.end();
}

/// Transition-set binding for a (pattern label / label test) symbol, with
/// the name -> TransVarId resolution cached on the SymbolRef. A lookup
/// miss is not cached: the name may be interned later by a new trigger
/// (same pending discipline as label resolution).
const TransitionEnv::SetBinding* FindTransSet(const SymbolRef& ref,
                                              const TransitionEnv* env) {
  if (env == nullptr) return nullptr;
  if (ref.trans_cached < 0) {
    auto id = TransVars::Lookup(ref.name);
    if (!id.has_value()) return nullptr;
    ref.trans_cached = *id;
  }
  return env->FindSet(static_cast<TransVarId>(ref.trans_cached));
}

/// Probe values for which TotalCompare-equality provably coincides with
/// Equals: scalars, excluding NaN. Lists/maps are excluded wholesale — a
/// NaN *nested* inside them would compare "equal" to any number under
/// TotalCompare while Equals says false — and take the linear reference
/// path instead. (The probe list itself is NaN-free: it folds from parsed
/// literals, and the lexer only produces finite numbers.)
bool ProbeSafeScalar(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
    case ValueType::kInt:
    case ValueType::kString:
    case ValueType::kDate:
    case ValueType::kDateTime:
    case ValueType::kNode:
    case ValueType::kRel:
      return true;
    case ValueType::kDouble:
      return !std::isnan(v.double_value());
    default:
      return false;
  }
}

/// Probe values for which index-key equality (SameBand / band ordering)
/// provably coincides with Equals, so a candidate from an exact posting
/// list needs no per-candidate re-check of the sourcing constraint.
/// Stricter than ProbeSafeScalar: huge int64s collapse to the same double
/// band as their neighbors beyond 2^53, where only the re-check's exact
/// int comparison separates them.
bool IndexProbeExact(const Value& v) {
  switch (v.type()) {
    case ValueType::kBool:
    case ValueType::kString:
    case ValueType::kDate:
    case ValueType::kDateTime:
    case ValueType::kNode:
    case ValueType::kRel:
      return true;
    case ValueType::kDouble:
      // Any stored int sharing the band compares Equals via as_double too.
      return !std::isnan(v.double_value());
    case ValueType::kInt: {
      const int64_t i = v.int_value();
      return i > -(int64_t{1} << 53) && i < (int64_t{1} << 53);
    }
    default:
      return false;
  }
}

/// Sentinel used to stop enumeration early in PatternExists.
const char kFoundSentinel[] = "__pgt_plan_match_found__";

/// Restores one frame slot on scope exit (list comprehensions bind their
/// iteration variable in place instead of copying the whole frame per
/// item; evaluation is otherwise read-only, so this is equivalent to a
/// per-item copy).
class SlotSaver {
 public:
  SlotSaver(Frame& f, int slot)
      : f_(f), slot_(slot), saved_(f.slots[slot]) {}
  ~SlotSaver() { f_.slots[slot_] = std::move(saved_); }

 private:
  Frame& f_;
  int slot_;
  FrameSlot saved_;
};

/// A node pattern's labels split into real labels and transition
/// pseudo-labels (docs/semantics.md D6).
struct PLabelSplit {
  std::vector<LabelId> real;
  std::vector<const TransitionEnv::SetBinding*> trans;
  bool impossible = false;
};

}  // namespace

// ============================================================================
// Expression evaluation.
// ============================================================================

Result<Value> PlanExecutor::Eval(const PExpr& e, Frame& f) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.value;
    case Expr::Kind::kParam: {
      if (ctx_.params != nullptr) {
        auto it = ctx_.params->find(e.name);
        if (it != ctx_.params->end()) return it->second;
      }
      return Status::InvalidArgument("unbound parameter $" + e.name);
    }
    case Expr::Kind::kVar: {
      const Value* v = f.Get(e.slot);
      if (v != nullptr) return *v;
      return Status::InvalidArgument("unbound variable '" + e.name + "' at " +
                                     std::to_string(e.line) + ":" +
                                     std::to_string(e.col));
    }
    case Expr::Kind::kProp: {
      PGT_ASSIGN_OR_RETURN(Value base, Eval(*e.a, f));
      if (base.is_null()) return Value::Null();
      if (base.is_map()) {
        auto it = base.map_value().find(e.name);
        return it == base.map_value().end() ? Value::Null() : it->second;
      }
      if (!base.is_node() && !base.is_rel()) {
        return TypeErrAt(e.line, e.col,
                         "property access on " +
                             std::string(base.type_name()));
      }
      auto key = ResolvePropKey(e.prop, *ctx_.store());
      if (!key.has_value()) return Value::Null();
      if (e.old_view_candidate && ctx_.transition != nullptr &&
          ctx_.transition->IsOldView(e.old_view_var)) {
        const uint64_t id =
            base.is_node() ? base.node_id().value : base.rel_id().value;
        const Value* old =
            ctx_.transition->FindOldProp(base.is_node(), id, *key);
        if (old != nullptr) return *old;
      }
      return ReadItemProp(ctx_, base, *key);
    }
    case Expr::Kind::kBinary: {
      PGT_ASSIGN_OR_RETURN(Value a, Eval(*e.a, f));
      // Short-circuit when possible (left false AND, left true OR).
      if (e.bin_op == BinOp::kAnd && a.is_bool() && !a.bool_value()) {
        return Value::Bool(false);
      }
      if (e.bin_op == BinOp::kOr && a.is_bool() && a.bool_value()) {
        return Value::Bool(true);
      }
      if (e.const_in_probe) {
        // Binary-search membership in the pre-sorted literal list; values
        // where TotalCompare and Equals could diverge fall through to the
        // linear reference path below.
        if (a.is_null()) return Value::Null();
        if (ProbeSafeScalar(a)) {
          const bool found =
              std::binary_search(e.in_sorted.begin(), e.in_sorted.end(), a,
                                 ValueLess{});
          if (found) return Value::Bool(true);
          return e.in_has_null ? Value::Null() : Value::Bool(false);
        }
      }
      PGT_ASSIGN_OR_RETURN(Value b, Eval(*e.b, f));
      return EvalBinaryOp(e.bin_op, a, b, e.line, e.col);
    }
    case Expr::Kind::kUnary: {
      PGT_ASSIGN_OR_RETURN(Value a, Eval(*e.a, f));
      return EvalUnaryOp(e.un_op, a, e.line, e.col);
    }
    case Expr::Kind::kFunc: {
      if (IsAggregateFunctionName(e.name)) {
        if (agg_results_ != nullptr && e.agg_index >= 0) {
          return (*agg_results_)[static_cast<size_t>(e.agg_index)];
        }
        return Status::InvalidArgument(
            "aggregate function " + e.name +
            " is only allowed in WITH/RETURN projections");
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const PExprPtr& arg : e.args) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*arg, f));
        args.push_back(std::move(v));
      }
      return CallBuiltin(e.name, args, ctx_, e.line, e.col);
    }
    case Expr::Kind::kCountStar:
      if (agg_results_ != nullptr && e.agg_index >= 0) {
        return (*agg_results_)[static_cast<size_t>(e.agg_index)];
      }
      return Status::InvalidArgument(
          "COUNT(*) is only allowed in WITH/RETURN projections");
    case Expr::Kind::kList: {
      Value::List items;
      items.reserve(e.args.size());
      for (const PExprPtr& arg : e.args) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*arg, f));
        items.push_back(std::move(v));
      }
      return Value::MakeList(std::move(items));
    }
    case Expr::Kind::kMap: {
      Value::Map m;
      for (const auto& [k, ve] : e.map_entries) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*ve, f));
        m[k] = std::move(v);
      }
      return Value::MakeMap(std::move(m));
    }
    case Expr::Kind::kIndex: {
      PGT_ASSIGN_OR_RETURN(Value base, Eval(*e.a, f));
      PGT_ASSIGN_OR_RETURN(Value idx, Eval(*e.b, f));
      if (base.is_null() || idx.is_null()) return Value::Null();
      if (base.is_list()) {
        if (!idx.is_int()) {
          return TypeErrAt(e.line, e.col, "list index must be an integer");
        }
        int64_t i = idx.int_value();
        const auto& list = base.list_value();
        const int64_t n = static_cast<int64_t>(list.size());
        if (i < 0) i += n;
        if (i < 0 || i >= n) return Value::Null();
        return list[static_cast<size_t>(i)];
      }
      if (base.is_map()) {
        if (!idx.is_string()) {
          return TypeErrAt(e.line, e.col, "map key must be a string");
        }
        auto it = base.map_value().find(idx.string_value());
        return it == base.map_value().end() ? Value::Null() : it->second;
      }
      return TypeErrAt(e.line, e.col, "indexing requires a list or map");
    }
    case Expr::Kind::kCase: {
      if (e.a) {
        PGT_ASSIGN_OR_RETURN(Value operand, Eval(*e.a, f));
        for (const auto& [w, t] : e.whens) {
          PGT_ASSIGN_OR_RETURN(Value wv, Eval(*w, f));
          if (!operand.is_null() && !wv.is_null() && operand.Equals(wv)) {
            return Eval(*t, f);
          }
        }
      } else {
        for (const auto& [w, t] : e.whens) {
          PGT_ASSIGN_OR_RETURN(Value wv, Eval(*w, f));
          if (wv.is_bool() && wv.bool_value()) {
            return Eval(*t, f);
          }
        }
      }
      if (e.c) return Eval(*e.c, f);
      return Value::Null();
    }
    case Expr::Kind::kExists: {
      PGT_ASSIGN_OR_RETURN(
          bool found, PatternExists(*e.pattern, e.pattern_where.get(), f));
      return Value::Bool(found);
    }
    case Expr::Kind::kListComp: {
      PGT_ASSIGN_OR_RETURN(Value list, Eval(*e.a, f));
      if (list.is_null()) return Value::Null();
      if (!list.is_list()) {
        return TypeErrAt(e.line, e.col, "list comprehension requires a list");
      }
      Value::List out;
      SlotSaver saver(f, e.slot);
      for (const Value& item : list.list_value()) {
        f.Set(e.slot, item);
        if (e.b != nullptr) {
          PGT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*e.b, f));
          if (!pass) continue;
        }
        if (e.c != nullptr) {
          PGT_ASSIGN_OR_RETURN(Value projected, Eval(*e.c, f));
          out.push_back(std::move(projected));
        } else {
          out.push_back(item);
        }
      }
      return Value::MakeList(std::move(out));
    }
    case Expr::Kind::kLabelTest: {
      PGT_ASSIGN_OR_RETURN(Value base, Eval(*e.a, f));
      if (base.is_null()) return Value::Null();
      if (!base.is_node()) {
        return TypeErrAt(e.line, e.col, "label test requires a node");
      }
      std::vector<LabelId> labels = ReadItemLabels(ctx_, base);
      for (const SymbolRef& ref : e.labels) {
        const TransitionEnv::SetBinding* set =
            FindTransSet(ref, ctx_.transition);
        if (set != nullptr) {
          const uint64_t id = base.node_id().value;
          const bool member = set->is_node && InSet(*set, id);
          if (!member) return Value::Bool(false);
          continue;
        }
        auto lid = ResolveLabel(ref, *ctx_.store());
        if (!lid.has_value() ||
            !std::binary_search(labels.begin(), labels.end(), *lid)) {
          return Value::Bool(false);
        }
      }
      return Value::Bool(true);
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> PlanExecutor::EvalPredicate(const PExpr& e, Frame& f) {
  PGT_ASSIGN_OR_RETURN(Value v, Eval(e, f));
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return TypeErrAt(e.line, e.col,
                     "predicate must be boolean, got " +
                         std::string(v.type_name()));
  }
  return v.bool_value();
}

Status PlanExecutor::ComputeAggregates(const PExpr& e,
                                       std::vector<Frame>& group,
                                       std::vector<Value>* results) {
  if (e.kind == Expr::Kind::kCountStar ||
      (e.kind == Expr::Kind::kFunc && IsAggregateFunctionName(e.name))) {
    if (e.kind == Expr::Kind::kCountStar) {
      (*results)[static_cast<size_t>(e.agg_index)] =
          Value::Int(static_cast<int64_t>(group.size()));
      return Status::OK();
    }
    if (e.args.size() != 1) {
      return Status::InvalidArgument("aggregate " + e.name +
                                     " expects one argument");
    }
    std::vector<Value> vals;
    vals.reserve(group.size());
    for (Frame& row : group) {
      PGT_ASSIGN_OR_RETURN(Value v, Eval(*e.args[0], row));
      if (!v.is_null()) vals.push_back(std::move(v));
    }
    PGT_ASSIGN_OR_RETURN(Value agg,
                         FinishAggregate(e.name, e.distinct, std::move(vals)));
    (*results)[static_cast<size_t>(e.agg_index)] = std::move(agg);
    return Status::OK();
  }
  if (e.kind == Expr::Kind::kExists) return Status::OK();
  if (e.a) PGT_RETURN_IF_ERROR(ComputeAggregates(*e.a, group, results));
  if (e.b) PGT_RETURN_IF_ERROR(ComputeAggregates(*e.b, group, results));
  if (e.c) PGT_RETURN_IF_ERROR(ComputeAggregates(*e.c, group, results));
  for (const PExprPtr& arg : e.args) {
    PGT_RETURN_IF_ERROR(ComputeAggregates(*arg, group, results));
  }
  for (const auto& [k, v] : e.map_entries) {
    (void)k;
    PGT_RETURN_IF_ERROR(ComputeAggregates(*v, group, results));
  }
  for (const auto& [w, t] : e.whens) {
    PGT_RETURN_IF_ERROR(ComputeAggregates(*w, group, results));
    PGT_RETURN_IF_ERROR(ComputeAggregates(*t, group, results));
  }
  return Status::OK();
}

// ============================================================================
// Access-path selection.
// ============================================================================

namespace {

/// Resolves a compile-time index ref for (label, prop) against the
/// executing view. Refs work as compiled on the view they were resolved
/// in; a live ref executing on a snapshot (a trigger plan pre-evaluated by
/// an async worker) re-resolves to the epoch-versioned posting sidecar —
/// invalid when the pinned image predates the index, in which case the
/// caller falls through to the next access path. The live index itself is
/// never touched off the writer thread.
IndexRef ResolveIndex(const IndexRef& ref, LabelId label, PropKeyId prop,
                      const StoreView& view) {
  if (!view.is_snapshot() || !ref.is_live()) return ref;
  return view.FindIndex(label, prop);
}

}  // namespace

NodeScanPlan PlanExecutor::SelectScan(const PScanTemplate& t,
                                      const std::vector<LabelId>& real_labels,
                                      Frame& row, int* satisfied_prop_idx) {
  NodeScanPlan plan;
  *satisfied_prop_idx = -1;
  if (real_labels.empty()) return plan;  // kFullScan

  const StoreView& view = *ctx_.store();
  auto take_eq = [&](const PScanTemplate::EqProbe& probe, IndexRef ref,
                     Value value) {
    plan.kind = NodeScanPlan::Kind::kIndexEquality;
    plan.idx = ref;
    if (probe.inline_prop_idx >= 0 && IndexProbeExact(value)) {
      *satisfied_prop_idx = probe.inline_prop_idx;
    }
    plan.eq_value = std::move(value);
  };
  const PScanTemplate::EqProbe* first_any = nullptr;
  IndexRef first_any_ref;
  Value first_any_value;
  for (const PScanTemplate::EqProbe& probe : t.eq_probes) {
    auto r = Eval(*probe.comparand, row);
    if (!r.ok()) continue;  // the normal evaluation path surfaces errors
    IndexRef ref = ResolveIndex(probe.idx, probe.label, probe.prop, view);
    if (!ref) continue;  // index absent at this snapshot's epoch
    if (probe.unique) {
      take_eq(probe, ref, std::move(r).value());
      return plan;
    }
    if (first_any == nullptr) {
      first_any = &probe;
      first_any_ref = ref;
      first_any_value = std::move(r).value();
    }
  }
  if (first_any != nullptr) {
    take_eq(*first_any, first_any_ref, std::move(first_any_value));
    return plan;
  }

  for (const PScanTemplate::RangeGroup& group : t.range_groups) {
    IndexRef ref = ResolveIndex(group.idx, group.label, group.prop, view);
    if (!ref || !ref.SupportsRange()) continue;  // live-only access path
    RangeBounds bounds;
    for (const PScanTemplate::RangeBound& b : group.bounds) {
      auto r = Eval(*b.comparand, row);
      if (!r.ok()) continue;
      const Value v = std::move(r).value();
      if (index::CompareClassOf(v) == index::CompareClass::kOther) continue;
      bounds.Tighten(b.op, v);
    }
    if (!bounds.lo.has_value() && !bounds.hi.has_value()) continue;
    plan.kind = NodeScanPlan::Kind::kIndexRange;
    plan.idx = ref;
    plan.lo = bounds.lo;
    plan.hi = bounds.hi;
    plan.lo_inclusive = bounds.lo_inclusive;
    plan.hi_inclusive = bounds.hi_inclusive;
    return plan;
  }

  LabelId best = real_labels.front();
  size_t best_card = view.LabelCardinality(best);
  for (size_t i = 1; i < real_labels.size(); ++i) {
    const size_t card = view.LabelCardinality(real_labels[i]);
    if (card < best_card) {
      best = real_labels[i];
      best_card = card;
    }
  }
  plan.kind = NodeScanPlan::Kind::kLabelScan;
  plan.label = best;
  return plan;
}

// ============================================================================
// Frame matcher.
//
// openCypher semantics: comma-separated parts match left to right in one
// binding scope; variables already bound constrain the match; one MATCH
// never binds the same relationship twice (variable-length paths
// included); `-[*min..max]-` binds its variable to the list of traversed
// relationships; names that denote a transition set act as pseudo-labels
// restricting candidates to that set (docs/semantics.md D6), and deleted
// items in OLD sets match node patterns but traverse no relationships.
//
// Determinism contract: candidates for a part's first node enumerate in
// ascending id order whatever access path SelectScan picks (full scan,
// label index, property index), so results and their order are identical
// across plans. Transition-set scans enumerate in event-recording order,
// itself deterministic. Tombstoned nodes never appear in any scan.
// ============================================================================

namespace {

class FrameMatcher {
 public:
  FrameMatcher(const PPattern& pattern, PlanExecutor* exec,
               const std::function<Status(Frame&)>* emit)
      : pattern_(pattern), exec_(exec), emit_(emit), ctx_(exec->ctx()) {}

  /// Matching binds slots *in place* on one working frame and restores them
  /// on backtrack (the binding discipline is strictly LIFO), so a candidate
  /// costs zero frame copies; one copy per *emitted* row remains (the
  /// result the caller keeps).
  Status Run(const Frame& row) {
    work_ = exec_->CopyFrame(row);  // pooled buffer, copy-assigned in place
    Status st = MatchPart(0);
    exec_->Recycle(std::move(work_));
    return st;
  }

 private:
  PLabelSplit SplitLabels(const std::vector<SymbolRef>& refs, bool for_node) {
    PLabelSplit out;
    for (const SymbolRef& ref : refs) {
      const TransitionEnv::SetBinding* set =
          FindTransSet(ref, ctx_.transition);
      if (set != nullptr) {
        if (set->is_node != for_node) {
          out.impossible = true;
          return out;
        }
        out.trans.push_back(set);
        continue;
      }
      auto id = ResolveLabel(ref, *ctx_.store());
      if (!id.has_value()) {
        out.impossible = true;  // label never interned: nothing carries it
        return out;
      }
      out.real.push_back(*id);
    }
    return out;
  }

  /// `skip_prop_idx` names an inline constraint already proven by the
  /// chosen index-equality access path (exact postings + probe-safe
  /// scalar); re-evaluating it per candidate is redundant.
  Result<bool> NodeMatches(const PNodePattern& np, const PLabelSplit& split,
                           NodeId id, int skip_prop_idx = -1) {
    if (split.impossible) return false;
    // Zero-copy label membership (same sorted vector ReadNodeLabels would
    // have copied).
    if (!split.real.empty()) {
      const std::vector<LabelId>* labels = ctx_.ReadNodeLabelsView(id);
      if (labels == nullptr) return false;
      for (LabelId l : split.real) {
        if (!std::binary_search(labels->begin(), labels->end(), l)) {
          return false;
        }
      }
    }
    for (const TransitionEnv::SetBinding* set : split.trans) {
      if (!InSet(*set, id.value)) return false;
    }
    for (size_t i = 0; i < np.props.size(); ++i) {
      if (static_cast<int>(i) == skip_prop_idx) continue;
      const PPropConstraint& pc = np.props[i];
      PGT_ASSIGN_OR_RETURN(Value want, exec_->Eval(*pc.expr, work_));
      auto pk = ResolvePropKey(pc.key, *ctx_.store());
      Value have =
          pk.has_value() ? ctx_.ReadNodeProp(id, *pk) : Value::Null();
      if (want.is_null() || have.is_null() || !have.Equals(want)) {
        return false;
      }
    }
    return true;
  }

  Result<bool> RelMatches(const PRelPattern& rp, RelId id) {
    const StoreView::RelInfo r = ctx_.store()->Rel(id);
    if (!r.exists) return false;
    if (!rp.types.empty()) {
      bool any = false;
      for (const SymbolRef& t : rp.types) {
        auto tid = ResolveRelType(t, *ctx_.store());
        if (tid.has_value() && r.type == *tid) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    for (const PPropConstraint& pc : rp.props) {
      PGT_ASSIGN_OR_RETURN(Value want, exec_->Eval(*pc.expr, work_));
      auto pk = ResolvePropKey(pc.key, *ctx_.store());
      Value have =
          pk.has_value() ? ctx_.ReadRelProp(id, *pk) : Value::Null();
      if (want.is_null() || have.is_null() || !have.Equals(want)) {
        return false;
      }
    }
    return true;
  }

  Status MatchPart(size_t part_idx) {
    if (part_idx >= pattern_.parts.size()) {
      // The one copy per emitted row (into a pooled buffer).
      Frame result = exec_->CopyFrame(work_);
      return (*emit_)(result);
    }
    const PPatternPart& part = pattern_.parts[part_idx];
    return MatchFirstNode(part, part_idx);
  }

  Status MatchFirstNode(const PPatternPart& part, size_t part_idx) {
    const PNodePattern& np = part.first;
    PLabelSplit split = SplitLabels(np.labels, /*for_node=*/true);
    if (split.impossible) return Status::OK();

    int satisfied_prop_idx = -1;
    auto try_candidate = [&](NodeId id) -> Status {
      if (ctx_.budget != nullptr) {
        PGT_RETURN_IF_ERROR(ctx_.budget->Tick());
      }
      PGT_ASSIGN_OR_RETURN(bool ok,
                           NodeMatches(np, split, id, satisfied_prop_idx));
      if (!ok) return Status::OK();
      bool bound_here = false;
      if (np.slot >= 0 && !work_.Bound(np.slot)) {
        work_.Set(np.slot, Value::Node(id));
        bound_here = true;
      }
      Status st = MatchChain(part, part_idx, 0, id);
      if (bound_here) work_.Clear(np.slot);
      return st;
    };

    // Bound variable: single candidate.
    if (np.slot >= 0) {
      const Value* bound = work_.Get(np.slot);
      if (bound != nullptr) {
        if (bound->is_null()) return Status::OK();
        if (!bound->is_node()) return Status::OK();
        return try_candidate(bound->node_id());
      }
    }
    // Transition pseudo-label: scan that set (includes deleted items), in
    // event-recording order.
    if (!split.trans.empty()) {
      for (uint64_t raw : split.trans[0]->ids) {
        PGT_RETURN_IF_ERROR(try_candidate(NodeId{raw}));
      }
      return Status::OK();
    }
    const NodeScanPlan plan =
        exec_->SelectScan(part.scan, split.real, work_, &satisfied_prop_idx);
    // Pooled per-level buffers: the recursion below may run nested scans,
    // so each level owns its own (recycled) pair.
    NodeScanBuffers bufs = exec_->AcquireScanBufs();
    const std::vector<NodeId>& candidates =
        ExecuteNodeScanInto(plan, ctx_, bufs);
    assert(std::is_sorted(candidates.begin(), candidates.end()) &&
           "node scans must enumerate in ascending id order");
    for (NodeId id : candidates) {
      PGT_RETURN_IF_ERROR(try_candidate(id));
    }
    exec_->ReleaseScanBufs(std::move(bufs));
    return Status::OK();
  }

  Status MatchChain(const PPatternPart& part, size_t part_idx,
                    size_t chain_idx, NodeId at) {
    if (chain_idx >= part.chain.size()) {
      return MatchPart(part_idx + 1);
    }
    const auto& [rp, np] = part.chain[chain_idx];

    if (rp.var_length) {
      return MatchVarLength(part, part_idx, chain_idx, at);
    }

    Direction dir = Direction::kBoth;
    if (rp.direction == PatternDirection::kLeftToRight) {
      dir = Direction::kOutgoing;
    } else if (rp.direction == PatternDirection::kRightToLeft) {
      dir = Direction::kIncoming;
    }
    std::optional<RelTypeId> type_filter;
    if (rp.types.size() == 1) {
      auto tid = ResolveRelType(rp.types[0], *ctx_.store());
      if (!tid.has_value()) return Status::OK();  // type never used
      type_filter = *tid;
    }

    std::optional<uint64_t> bound_rel;
    if (rp.slot >= 0) {
      const Value* bound = work_.Get(rp.slot);
      if (bound != nullptr) {
        if (!bound->is_rel()) return Status::OK();
        bound_rel = bound->rel_id().value;
      }
    }

    PLabelSplit next_split = SplitLabels(np.labels, /*for_node=*/true);
    if (next_split.impossible) return Status::OK();

    for (RelId rid : ctx_.store()->RelsOf(at, dir, type_filter)) {
      if (ctx_.budget != nullptr) {
        PGT_RETURN_IF_ERROR(ctx_.budget->Tick());
      }
      if (bound_rel.has_value() && rid.value != *bound_rel) continue;
      if (RelUsed(rid.value)) continue;
      PGT_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(rp, rid));
      if (!rel_ok) continue;
      const StoreView::RelInfo r = ctx_.store()->Rel(rid);
      const NodeId other = r.src == at ? r.dst : r.src;
      PGT_ASSIGN_OR_RETURN(bool node_ok, NodeMatches(np, next_split, other));
      if (!node_ok) continue;
      bool bound_node = false, bound_rel_slot = false;
      if (np.slot >= 0) {
        const Value* bound = work_.Get(np.slot);
        if (bound != nullptr) {
          if (!bound->is_node() || !(bound->node_id() == other)) continue;
        } else {
          work_.Set(np.slot, Value::Node(other));
          bound_node = true;
        }
      }
      if (rp.slot >= 0 && !bound_rel.has_value()) {
        work_.Set(rp.slot, Value::Rel(rid));
        bound_rel_slot = true;
      }
      used_rels_.push_back(rid.value);
      Status st = MatchChain(part, part_idx, chain_idx + 1, other);
      used_rels_.pop_back();
      if (bound_node) work_.Clear(np.slot);
      if (bound_rel_slot) work_.Clear(rp.slot);
      PGT_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }

  Status MatchVarLength(const PPatternPart& part, size_t part_idx,
                        size_t chain_idx, NodeId start) {
    const auto& [rp, np] = part.chain[chain_idx];
    PLabelSplit next_split = SplitLabels(np.labels, /*for_node=*/true);
    if (next_split.impossible) return Status::OK();

    Direction dir = Direction::kBoth;
    if (rp.direction == PatternDirection::kLeftToRight) {
      dir = Direction::kOutgoing;
    } else if (rp.direction == PatternDirection::kRightToLeft) {
      dir = Direction::kIncoming;
    }
    std::optional<RelTypeId> type_filter;
    if (rp.types.size() == 1) {
      auto tid = ResolveRelType(rp.types[0], *ctx_.store());
      if (!tid.has_value()) return Status::OK();
      type_filter = *tid;
    }

    std::vector<RelId> path;
    std::function<Status(NodeId, int64_t)> dfs =
        [&](NodeId at, int64_t depth) -> Status {
      if (ctx_.budget != nullptr) {
        PGT_RETURN_IF_ERROR(ctx_.budget->Tick());
      }
      if (depth >= rp.min_hops) {
        PGT_ASSIGN_OR_RETURN(bool node_ok, NodeMatches(np, next_split, at));
        if (node_ok) {
          bool endpoint_ok = true;
          bool bound_node = false, bound_rels = false;
          if (np.slot >= 0) {
            const Value* bound = work_.Get(np.slot);
            if (bound != nullptr) {
              endpoint_ok = bound->is_node() && bound->node_id() == at;
            } else {
              work_.Set(np.slot, Value::Node(at));
              bound_node = true;
            }
          }
          if (endpoint_ok) {
            if (rp.slot >= 0) {
              Value::List rels;
              for (RelId r : path) rels.push_back(Value::Rel(r));
              work_.Set(rp.slot, Value::MakeList(std::move(rels)));
              bound_rels = true;
            }
            Status st = MatchChain(part, part_idx, chain_idx + 1, at);
            if (bound_rels) work_.Clear(rp.slot);
            if (bound_node) work_.Clear(np.slot);
            PGT_RETURN_IF_ERROR(st);
          } else if (bound_node) {
            work_.Clear(np.slot);
          }
        }
      }
      if (rp.max_hops != kMaxHopsUnbounded && depth >= rp.max_hops) {
        return Status::OK();
      }
      for (RelId rid : ctx_.store()->RelsOf(at, dir, type_filter)) {
        if (RelUsed(rid.value)) continue;
        PGT_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(rp, rid));
        if (!rel_ok) continue;
        const StoreView::RelInfo r = ctx_.store()->Rel(rid);
        const NodeId other = r.src == at ? r.dst : r.src;
        used_rels_.push_back(rid.value);
        path.push_back(rid);
        Status st = dfs(other, depth + 1);
        path.pop_back();
        used_rels_.pop_back();
        PGT_RETURN_IF_ERROR(st);
      }
      return Status::OK();
    };
    return dfs(start, 0);
  }

  const PPattern& pattern_;
  PlanExecutor* exec_;
  const std::function<Status(Frame&)>* emit_;
  EvalContext& ctx_;
  Frame work_;
  // Relationship-uniqueness set. Usage is strictly LIFO (insert before the
  // recursive call, erase right after), and patterns bind few rels, so a
  // vector-as-stack with linear membership beats a node-based set.
  std::vector<uint64_t> used_rels_;

  bool RelUsed(uint64_t id) const {
    return std::find(used_rels_.begin(), used_rels_.end(), id) !=
           used_rels_.end();
  }
};

}  // namespace

Status PlanExecutor::MatchPattern(const PPattern& pattern, const Frame& row,
                                  const std::function<Status(Frame&)>& emit) {
  FrameMatcher matcher(pattern, this, &emit);
  return matcher.Run(row);
}

Result<bool> PlanExecutor::PatternExists(const PPattern& pattern,
                                         const PExpr* where,
                                         const Frame& row) {
  bool found = false;
  Status st = MatchPattern(
      pattern, row, [&](Frame& match) -> Status {
        if (where != nullptr) {
          PGT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*where, match));
          if (!pass) return Status::OK();
        }
        found = true;
        return Status::Aborted(kFoundSentinel);  // early exit
      });
  if (!st.ok() && !(st.code() == StatusCode::kAborted &&
                    st.message() == kFoundSentinel)) {
    return st;
  }
  return found;
}

// ============================================================================
// Steps.
// ============================================================================

Result<std::vector<Frame>> PlanExecutor::ApplyStep(const PStep& s,
                                                   std::vector<Frame> frames,
                                                   QueryResult* table) {
  if (!s.error.empty()) return ExecErrAt(s, s.error);
  if (ctx_.budget != nullptr) {
    PGT_RETURN_IF_ERROR(ctx_.budget->Tick());
  }
  switch (s.kind) {
    case Clause::Kind::kMatch:
      return ApplyMatch(s, std::move(frames));
    case Clause::Kind::kUnwind:
      return ApplyUnwind(s, std::move(frames));
    case Clause::Kind::kWith:
    case Clause::Kind::kReturn:
      return ApplyProjection(s, std::move(frames));
    case Clause::Kind::kCreate:
      return ApplyCreate(s, std::move(frames));
    case Clause::Kind::kMerge:
      return ApplyMerge(s, std::move(frames));
    case Clause::Kind::kDelete:
      return ApplyDelete(s, std::move(frames));
    case Clause::Kind::kSet:
      return ApplySet(s, std::move(frames));
    case Clause::Kind::kRemove:
      return ApplyRemove(s, std::move(frames));
    case Clause::Kind::kForeach:
      return ApplyForeach(s, std::move(frames));
    case Clause::Kind::kCall:
      return ApplyCall(s, std::move(frames), table);
  }
  return Status::Internal("unhandled step kind");
}

Result<std::vector<Frame>> PlanExecutor::ApplyMatch(const PStep& s,
                                                    std::vector<Frame> frames) {
  std::vector<Frame> out = NewFrameVec();
  // One-pointer capture: fits std::function's inline buffer, so building
  // the emit callback costs no allocation per step.
  struct EmitCtx {
    PlanExecutor* self;
    const PStep* step;
    std::vector<Frame>* out;
  } ec{this, &s, &out};
  const std::function<Status(Frame&)> emit = [&ec](Frame& match) -> Status {
    if (ec.step->where != nullptr) {
      PGT_ASSIGN_OR_RETURN(bool pass,
                           ec.self->EvalPredicate(*ec.step->where, match));
      if (!pass) {
        ec.self->Recycle(std::move(match));
        return Status::OK();
      }
    }
    ec.out->push_back(std::move(match));
    return Status::OK();
  };
  for (const Frame& f : frames) {
    const size_t before = out.size();
    PGT_RETURN_IF_ERROR(MatchPattern(s.pattern, f, emit));
    if (s.optional_match && out.size() == before) {
      Frame padded = CopyFrame(f);
      for (int slot : s.pattern.intro_slots) {
        if (!padded.Bound(slot)) padded.Set(slot, Value::Null());
      }
      out.push_back(std::move(padded));
    }
  }
  RecycleAll(std::move(frames));
  return out;
}

Result<std::vector<Frame>> PlanExecutor::ApplyUnwind(
    const PStep& s, std::vector<Frame> frames) {
  std::vector<Frame> out = NewFrameVec();
  for (Frame& f : frames) {
    PGT_ASSIGN_OR_RETURN(Value list, Eval(*s.unwind_expr, f));
    if (list.is_null()) continue;
    if (list.is_list()) {
      for (const Value& v : list.list_value()) {
        Frame next = CopyFrame(f);
        next.Set(s.unwind_slot, v);
        out.push_back(std::move(next));
      }
    } else {
      Frame next = CopyFrame(f);
      next.Set(s.unwind_slot, list);
      out.push_back(std::move(next));
    }
  }
  RecycleAll(std::move(frames));
  return out;
}

Result<std::vector<Frame>> PlanExecutor::ApplyProjection(
    const PStep& s, std::vector<Frame> frames) {
  std::vector<Frame> projected = NewFrameVec();

  if (s.star) {
    RecycleAll(std::move(projected));
    projected = std::move(frames);  // keep all bindings (no copy)
  } else if (!s.any_aggregate) {
    for (Frame& f : frames) {
      Frame out = NewFrame();
      for (const PProjItem& item : s.items) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, f));
        out.Set(item.slot, std::move(v));
      }
      projected.push_back(std::move(out));
    }
    RecycleAll(std::move(frames));
  } else {
    // Group rows by the values of the non-aggregate items.
    std::vector<const PProjItem*> key_items;
    for (const PProjItem& item : s.items) {
      if (!item.has_aggregate) key_items.push_back(&item);
    }
    std::map<std::vector<Value>, std::vector<Frame>, ValueVectorLess> groups;
    for (Frame& f : frames) {
      std::vector<Value> key;
      for (const PProjItem* item : key_items) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*item->expr, f));
        key.push_back(std::move(v));
      }
      groups[std::move(key)].push_back(std::move(f));
    }
    if (groups.empty() && key_items.empty()) {
      groups[{}] = {};  // aggregates over an empty input: one global group
    }
    for (auto& [key, group] : groups) {
      (void)key;
      Frame rep = group.empty() ? NewFrame() : CopyFrame(group.front());
      Frame out = NewFrame();
      std::vector<Value> agg_results(static_cast<size_t>(s.agg_count));
      for (const PProjItem& item : s.items) {
        if (item.has_aggregate) {
          PGT_RETURN_IF_ERROR(
              ComputeAggregates(*item.expr, group, &agg_results));
          agg_results_ = &agg_results;
          auto v = Eval(*item.expr, rep);
          agg_results_ = nullptr;
          if (!v.ok()) return v.status();
          out.Set(item.slot, std::move(v).value());
        } else {
          PGT_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, rep));
          out.Set(item.slot, std::move(v));
        }
      }
      projected.push_back(std::move(out));
      Recycle(std::move(rep));
      RecycleAll(std::move(group));
    }
  }

  if (s.distinct) {
    std::set<std::vector<Value>, ValueVectorLess> seen;
    std::vector<Frame> uniq;
    for (Frame& f : projected) {
      std::vector<Value> key;
      if (s.star) {
        // Every frame here binds the same slots: compare them all.
        for (const FrameSlot& slot : f.slots) {
          if (slot.bound) key.push_back(slot.v);
        }
      }
      for (int slot : s.out_slots) {
        const Value* v = f.Get(slot);
        key.push_back(v == nullptr ? Value::Null() : *v);
      }
      if (seen.insert(std::move(key)).second) {
        uniq.push_back(std::move(f));
      } else {
        Recycle(std::move(f));
      }
    }
    projected = std::move(uniq);
  }

  if (s.where != nullptr) {
    std::vector<Frame> filtered;
    for (Frame& f : projected) {
      PGT_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*s.where, f));
      if (pass) {
        filtered.push_back(std::move(f));
      } else {
        Recycle(std::move(f));
      }
    }
    projected = std::move(filtered);
  }

  if (!s.order_by.empty()) {
    std::vector<std::pair<std::vector<Value>, size_t>> keyed;
    keyed.reserve(projected.size());
    for (size_t i = 0; i < projected.size(); ++i) {
      std::vector<Value> key;
      for (const PSortItem& item : s.order_by) {
        PGT_ASSIGN_OR_RETURN(Value v, Eval(*item.expr, projected[i]));
        key.push_back(std::move(v));
      }
      keyed.emplace_back(std::move(key), i);
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t k = 0; k < s.order_by.size(); ++k) {
                         const int cmp = a.first[k].TotalCompare(b.first[k]);
                         if (cmp != 0) {
                           return s.order_by[k].ascending ? cmp < 0 : cmp > 0;
                         }
                       }
                       return false;
                     });
    std::vector<Frame> sorted;
    sorted.reserve(projected.size());
    for (const auto& [key, idx] : keyed) {
      (void)key;
      sorted.push_back(std::move(projected[idx]));
    }
    projected = std::move(sorted);
  }

  if (s.skip != nullptr) {
    Frame empty = NewFrame();
    PGT_ASSIGN_OR_RETURN(Value v, Eval(*s.skip, empty));
    if (!v.is_int() || v.int_value() < 0) {
      return ExecErrAt(s, "SKIP requires a non-negative integer");
    }
    const size_t k = static_cast<size_t>(v.int_value());
    if (k >= projected.size()) {
      RecycleAll(std::move(projected));
    } else {
      for (size_t i = 0; i < k; ++i) Recycle(std::move(projected[i]));
      projected.erase(projected.begin(),
                      projected.begin() + static_cast<ptrdiff_t>(k));
    }
  }
  if (s.limit != nullptr) {
    Frame empty = NewFrame();
    PGT_ASSIGN_OR_RETURN(Value v, Eval(*s.limit, empty));
    if (!v.is_int() || v.int_value() < 0) {
      return ExecErrAt(s, "LIMIT requires a non-negative integer");
    }
    const size_t k = static_cast<size_t>(v.int_value());
    if (projected.size() > k) {
      for (size_t i = k; i < projected.size(); ++i) {
        Recycle(std::move(projected[i]));
      }
      projected.resize(k);
    }
  }
  return projected;
}

Result<Frame> PlanExecutor::CreatePatternPart(const PPatternPart& part,
                                              Frame row) {
  auto resolve_node = [&](const PNodePattern& np,
                          Frame& r) -> Result<NodeId> {
    if (np.slot >= 0) {
      const Value* bound = r.Get(np.slot);
      if (bound != nullptr) {
        if (!bound->is_node()) {
          return Status::TypeError("CREATE endpoint '" + np.var +
                                   "' is not a node");
        }
        if (!np.labels.empty() || !np.props.empty()) {
          return Status::InvalidArgument(
              "variable '" + np.var +
              "' already bound; cannot redeclare labels/properties in "
              "CREATE");
        }
        return bound->node_id();
      }
    }
    std::vector<LabelId> labels;
    for (const SymbolRef& ref : np.labels) {
      if (FindTransSet(ref, ctx_.transition) != nullptr) {
        return Status::InvalidArgument(
            "cannot CREATE with transition pseudo-label " + ref.name);
      }
      labels.push_back(InternLabel(ref, *ctx_.tx->store()));
    }
    PropMap props;
    for (const PPropConstraint& pc : np.props) {
      PGT_ASSIGN_OR_RETURN(Value v, Eval(*pc.expr, r));
      if (v.is_null()) continue;
      props[InternPropKey(pc.key, *ctx_.tx->store())] = std::move(v);
    }
    PGT_ASSIGN_OR_RETURN(NodeId id,
                         ctx_.tx->CreateNode(labels, std::move(props)));
    if (np.slot >= 0) r.Set(np.slot, Value::Node(id));
    return id;
  };

  PGT_ASSIGN_OR_RETURN(NodeId prev, resolve_node(part.first, row));
  for (const auto& [rp, np] : part.chain) {
    if (rp.direction == PatternDirection::kUndirected) {
      return Status::InvalidArgument(
          "CREATE requires a directed relationship");
    }
    if (rp.types.size() != 1) {
      return Status::InvalidArgument(
          "CREATE requires exactly one relationship type");
    }
    if (rp.var_length) {
      return Status::InvalidArgument(
          "CREATE cannot use variable-length relationships");
    }
    PGT_ASSIGN_OR_RETURN(NodeId next, resolve_node(np, row));
    PropMap props;
    for (const PPropConstraint& pc : rp.props) {
      PGT_ASSIGN_OR_RETURN(Value v, Eval(*pc.expr, row));
      if (v.is_null()) continue;
      props[InternPropKey(pc.key, *ctx_.tx->store())] = std::move(v);
    }
    const RelTypeId type = InternRelType(rp.types[0], *ctx_.tx->store());
    const NodeId src =
        rp.direction == PatternDirection::kLeftToRight ? prev : next;
    const NodeId dst =
        rp.direction == PatternDirection::kLeftToRight ? next : prev;
    PGT_ASSIGN_OR_RETURN(
        RelId rid, ctx_.tx->CreateRel(src, type, dst, std::move(props)));
    if (rp.slot >= 0) {
      if (row.Bound(rp.slot)) {
        return Status::InvalidArgument("relationship variable '" + rp.var +
                                       "' already bound in CREATE");
      }
      row.Set(rp.slot, Value::Rel(rid));
    }
    prev = next;
  }
  return row;
}

Result<std::vector<Frame>> PlanExecutor::ApplyCreate(
    const PStep& s, std::vector<Frame> frames) {
  std::vector<Frame> out = NewFrameVec();
  for (Frame& f : frames) {
    Frame current = std::move(f);
    for (const PPatternPart& part : s.pattern.parts) {
      PGT_ASSIGN_OR_RETURN(current,
                           CreatePatternPart(part, std::move(current)));
    }
    out.push_back(std::move(current));
  }
  return out;
}

Status PlanExecutor::ApplySetItems(const std::vector<PSetItem>& items,
                                   Frame& row) {
  for (const PSetItem& item : items) {
    if (item.kind == SetItem::Kind::kProperty) {
      PGT_ASSIGN_OR_RETURN(Value target,
                           Eval(*item.target, row));
      if (target.is_null()) continue;
      PGT_ASSIGN_OR_RETURN(Value v,
                           Eval(*item.value, row));
      const PropKeyId key = InternPropKey(item.prop, *ctx_.tx->store());
      if (target.is_node()) {
        PGT_RETURN_IF_ERROR(
            ctx_.tx->SetNodeProp(target.node_id(), key, std::move(v)));
      } else if (target.is_rel()) {
        PGT_RETURN_IF_ERROR(
            ctx_.tx->SetRelProp(target.rel_id(), key, std::move(v)));
      } else {
        return Status::TypeError("SET target must be a node or relationship");
      }
    } else if (item.kind == SetItem::Kind::kMergeMap) {
      const Value* target = row.Get(item.var_slot);
      if (target == nullptr) {
        return Status::InvalidArgument("unbound variable '" + item.var +
                                       "' in SET +=");
      }
      if (target->is_null()) continue;
      if (!target->is_node() && !target->is_rel()) {
        return Status::TypeError(
            "SET += target must be a node or relationship");
      }
      PGT_ASSIGN_OR_RETURN(Value map,
                           Eval(*item.value, row));
      if (map.is_null()) continue;
      if (!map.is_map()) {
        return Status::TypeError("SET += requires a map value");
      }
      for (const auto& [k, v] : map.map_value()) {
        const PropKeyId key = ctx_.tx->store()->InternPropKey(k);
        if (target->is_node()) {
          PGT_RETURN_IF_ERROR(ctx_.tx->SetNodeProp(target->node_id(), key, v));
        } else {
          PGT_RETURN_IF_ERROR(ctx_.tx->SetRelProp(target->rel_id(), key, v));
        }
      }
    } else {
      const Value* target = row.Get(item.var_slot);
      if (target == nullptr) {
        return Status::InvalidArgument("unbound variable '" + item.var +
                                       "' in SET");
      }
      if (target->is_null()) continue;
      if (!target->is_node()) {
        return Status::TypeError("SET labels target must be a node");
      }
      for (const SymbolRef& ref : item.labels) {
        const LabelId label = InternLabel(ref, *ctx_.tx->store());
        if (ctx_.label_write_guard) {
          PGT_RETURN_IF_ERROR(ctx_.label_write_guard(label, /*is_set=*/true));
        }
        PGT_RETURN_IF_ERROR(ctx_.tx->AddLabel(target->node_id(), label));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<Frame>> PlanExecutor::ApplyMerge(
    const PStep& s, std::vector<Frame> frames) {
  std::vector<Frame> out = NewFrameVec();
  const PPatternPart& part = s.pattern.parts.front();
  for (Frame& f : frames) {
    std::vector<Frame> matches;
    PGT_RETURN_IF_ERROR(
        MatchPattern(s.pattern, f, [&](Frame& m) -> Status {
          matches.push_back(std::move(m));
          return Status::OK();
        }));
    if (!matches.empty()) {
      for (Frame& m : matches) {
        PGT_RETURN_IF_ERROR(ApplySetItems(s.on_match, m));
        out.push_back(std::move(m));
      }
      Recycle(std::move(f));
    } else {
      PGT_ASSIGN_OR_RETURN(Frame created,
                           CreatePatternPart(part, std::move(f)));
      PGT_RETURN_IF_ERROR(ApplySetItems(s.on_create, created));
      out.push_back(std::move(created));
    }
  }
  return out;
}

Result<std::vector<Frame>> PlanExecutor::ApplyDelete(
    const PStep& s, std::vector<Frame> frames) {
  for (Frame& f : frames) {
    for (const PExprPtr& expr : s.delete_exprs) {
      PGT_ASSIGN_OR_RETURN(Value v, Eval(*expr, f));
      std::vector<Value> items;
      if (v.is_list()) {
        items = v.list_value();
      } else {
        items.push_back(std::move(v));
      }
      for (const Value& item : items) {
        if (item.is_null()) continue;
        if (item.is_node()) {
          if (!ctx_.store()->NodeAlive(item.node_id())) continue;
          PGT_RETURN_IF_ERROR(ctx_.tx->DeleteNode(item.node_id(), s.detach));
        } else if (item.is_rel()) {
          if (!ctx_.store()->RelAlive(item.rel_id())) continue;
          PGT_RETURN_IF_ERROR(ctx_.tx->DeleteRel(item.rel_id()));
        } else {
          return ExecErrAt(s, "DELETE requires nodes or relationships");
        }
      }
    }
  }
  return frames;
}

Result<std::vector<Frame>> PlanExecutor::ApplySet(const PStep& s,
                                                  std::vector<Frame> frames) {
  for (Frame& f : frames) {
    PGT_RETURN_IF_ERROR(ApplySetItems(s.set_items, f));
  }
  return frames;
}

Result<std::vector<Frame>> PlanExecutor::ApplyRemove(
    const PStep& s, std::vector<Frame> frames) {
  for (Frame& f : frames) {
    for (const PRemoveItem& item : s.remove_items) {
      if (item.kind == RemoveItem::Kind::kProperty) {
        PGT_ASSIGN_OR_RETURN(Value target, Eval(*item.target, f));
        if (target.is_null()) continue;
        auto key = ResolvePropKey(item.prop, *ctx_.store());
        if (!key.has_value()) continue;  // property key never used
        if (target.is_node()) {
          PGT_RETURN_IF_ERROR(ctx_.tx->RemoveNodeProp(target.node_id(), *key));
        } else if (target.is_rel()) {
          PGT_RETURN_IF_ERROR(ctx_.tx->RemoveRelProp(target.rel_id(), *key));
        } else {
          return ExecErrAt(s, "REMOVE target must be a node or relationship");
        }
      } else {
        const Value* target = f.Get(item.var_slot);
        if (target == nullptr) {
          return ExecErrAt(s, "unbound variable '" + item.var + "' in REMOVE");
        }
        if (target->is_null()) continue;
        if (!target->is_node()) {
          return ExecErrAt(s, "REMOVE labels target must be a node");
        }
        for (const SymbolRef& ref : item.labels) {
          auto label = ResolveLabel(ref, *ctx_.store());
          if (!label.has_value()) continue;
          if (ctx_.label_write_guard) {
            PGT_RETURN_IF_ERROR(
                ctx_.label_write_guard(*label, /*is_set=*/false));
          }
          PGT_RETURN_IF_ERROR(ctx_.tx->RemoveLabel(target->node_id(), *label));
        }
      }
    }
  }
  return frames;
}

Result<std::vector<Frame>> PlanExecutor::ApplyForeach(
    const PStep& s, std::vector<Frame> frames) {
  for (Frame& f : frames) {
    PGT_ASSIGN_OR_RETURN(Value list, Eval(*s.foreach_list, f));
    if (list.is_null()) continue;
    if (!list.is_list()) {
      return ExecErrAt(s, "FOREACH requires a list");
    }
    for (const Value& v : list.list_value()) {
      Frame scoped = CopyFrame(f);
      scoped.Set(s.foreach_slot, v);
      std::vector<Frame> seeded;
      seeded.push_back(std::move(scoped));
      PGT_RETURN_IF_ERROR(RunUpdates(s.foreach_body, std::move(seeded)));
    }
  }
  return frames;
}

Result<std::vector<Frame>> PlanExecutor::ApplyCall(const PStep& s,
                                                   std::vector<Frame> frames,
                                                   QueryResult* table) {
  if (ctx_.procedures == nullptr) {
    return ExecErrAt(s, "no procedures registered (CALL " + s.call_proc + ")");
  }
  const ProcedureRegistry::Entry* proc = ctx_.procedures->Lookup(s.call_proc);
  if (proc == nullptr) {
    return ExecErrAt(s, "unknown procedure " + s.call_proc);
  }
  for (const std::string& y : s.call_yield) {
    if (std::find(proc->outputs.begin(), proc->outputs.end(), y) ==
        proc->outputs.end()) {
      return ExecErrAt(s, "procedure " + s.call_proc +
                              " has no output column '" + y + "'");
    }
  }
  std::vector<Frame> out = NewFrameVec();
  for (Frame& f : frames) {
    std::vector<Value> args;
    args.reserve(s.call_args.size());
    for (const PExprPtr& arg : s.call_args) {
      PGT_ASSIGN_OR_RETURN(Value v, Eval(*arg, f));
      args.push_back(std::move(v));
    }
    // Procedures see the calling row by name, in binding order.
    Row row;
    for (int slot : s.scope.SlotsOf(f)) {
      row.Set(slot_names_[slot], f.slots[static_cast<size_t>(slot)].v);
    }
    PGT_ASSIGN_OR_RETURN(std::vector<Row> produced,
                         proc->fn(ctx_, args, row));
    if (s.call_yield.empty()) {
      // Side-effect call: the row passes through. As the whole statement,
      // the call answers with every declared output, as
      // `YIELD <all> RETURN <all>` would (an empty result has no columns).
      if (table != nullptr && !proc->outputs.empty()) {
        for (const Row& prow : produced) {
          std::vector<Value> line;
          line.reserve(proc->outputs.size());
          for (const std::string& col : proc->outputs) {
            const Value* v = prow.Get(col);
            line.push_back(v == nullptr ? Value::Null() : *v);
          }
          table->rows.push_back(std::move(line));
        }
        if (!table->rows.empty()) table->columns = proc->outputs;
      }
      out.push_back(std::move(f));
      continue;
    }
    for (const Row& prow : produced) {
      Frame merged = CopyFrame(f);
      for (size_t i = 0; i < s.call_yield.size(); ++i) {
        const Value* v = prow.Get(s.call_yield[i]);
        merged.Set(s.yield_slots[i], v == nullptr ? Value::Null() : *v);
      }
      out.push_back(std::move(merged));
    }
  }
  RecycleAll(std::move(frames));
  return out;
}

// ============================================================================
// Entry points.
// ============================================================================

Result<QueryResult> PlanExecutor::Run(const std::vector<PStep>& steps,
                                      Frame seed) {
  std::vector<Frame> frames = NewFrameVec();
  frames.push_back(std::move(seed));
  QueryResult result;
  QueryResult* table = steps.size() == 1 ? &result : nullptr;
  for (const PStep& s : steps) {
    PGT_ASSIGN_OR_RETURN(frames, ApplyStep(s, std::move(frames), table));
    if (s.is_return) {
      // Columns come from the rows actually produced, so an empty result
      // has no columns.
      if (!frames.empty()) {
        std::vector<int> star_slots;
        if (s.star) star_slots = s.scope.SlotsOf(frames.front());
        const std::vector<int>& slots = s.star ? star_slots : s.out_slots;
        if (s.star) {
          for (int slot : slots) result.columns.push_back(slot_names_[slot]);
        } else {
          result.columns = s.out_names;
        }
        for (const Frame& f : frames) {
          std::vector<Value> line;
          line.reserve(slots.size());
          for (int slot : slots) {
            const Value* v = f.Get(slot);
            line.push_back(v == nullptr ? Value::Null() : *v);
          }
          result.rows.push_back(std::move(line));
        }
      }
    }
  }
  RecycleAll(std::move(frames));
  return result;
}

Result<std::vector<Frame>> PlanExecutor::RunClauses(
    const std::vector<PStep>& steps, std::vector<Frame> frames) {
  for (const PStep& s : steps) {
    PGT_ASSIGN_OR_RETURN(frames, ApplyStep(s, std::move(frames)));
  }
  return frames;
}

Status PlanExecutor::RunUpdates(const std::vector<PStep>& steps,
                                std::vector<Frame> frames) {
  for (const PStep& s : steps) {
    PGT_ASSIGN_OR_RETURN(frames, ApplyStep(s, std::move(frames)));
  }
  RecycleAll(std::move(frames));
  return Status::OK();
}

Status RunSeeded(EvalContext ctx, const Query& q, const Row& seed,
                 FramePool* pool) {
  CompileEnv env;
  for (const auto& [name, v] : seed.cols) {
    (void)v;
    env.seed_vars.push_back(name);
  }
  PGT_ASSIGN_OR_RETURN(const PlanProgram program,
                       CompileQuery(q, env, *ctx.store(), /*epoch=*/0));
  PlanExecutor exec(ctx, program.slot_names, pool);
  // CompileQuery allots the seed variables the first slots, in order.
  Frame frame = exec.NewFrame();
  for (size_t i = 0; i < seed.cols.size(); ++i) {
    frame.Set(static_cast<int>(i), seed.cols[i].second);
  }
  std::vector<Frame> frames = exec.NewFrameVec();
  frames.push_back(std::move(frame));
  PGT_ASSIGN_OR_RETURN(frames, exec.RunClauses(program.steps,
                                               std::move(frames)));
  exec.RecycleAll(std::move(frames));
  return Status::OK();
}

}  // namespace pgt::cypher::plan
