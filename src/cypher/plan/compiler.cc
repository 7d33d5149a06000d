#include "src/cypher/plan/compiler.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "src/common/macros.h"
#include "src/cypher/eval.h"
#include "src/index/index_catalog.h"

namespace pgt::cypher::plan {

namespace {

/// True if `e` is `var.key` for the given variable; sets `key`.
bool IsVarProp(const Expr& e, const std::string& var, std::string* key) {
  if (e.kind != Expr::Kind::kProp || e.a == nullptr) return false;
  if (e.a->kind != Expr::Kind::kVar || e.a->name != var) return false;
  *key = e.name;
  return true;
}

/// One sargable WHERE conjunct found at compile time.
struct SargTemplate {
  std::string key;
  BinOp op = BinOp::kEq;
  const Expr* comparand = nullptr;
};

/// Where a RETURN may stand in a clause list. A misplaced RETURN compiles
/// to a step that fails when execution reaches it — after the clauses
/// before it ran — never at compile time.
enum class ClauseMode {
  kTopLevel,  ///< RETURN allowed as the final clause only
  kNoReturn,  ///< trigger WHEN/action, FOREACH body: RETURN not allowed
};

class Compiler {
 public:
  Compiler(const CompileEnv& env, const StoreView& view)
      : env_(env), view_(view) {}

  // --- Slot universe --------------------------------------------------------

  int SlotOf(const std::string& name) {
    auto it = slot_of_.find(name);
    if (it != slot_of_.end()) return it->second;
    const int s = static_cast<int>(slot_names_.size());
    slot_of_.emplace(name, s);
    slot_names_.push_back(name);
    bound_.push_back(0);
    return s;
  }

  bool StaticallyBound(const std::string& name) const {
    auto it = slot_of_.find(name);
    return it != slot_of_.end() && bound_[it->second] != 0;
  }

  /// Binds `slot` (a no-op when already bound; a rebinding keeps its place
  /// in the binding order).
  void Bind(int slot) {
    char& b = bound_[static_cast<size_t>(slot)];
    if (b != 0) return;
    b = 1;
    order_.entries.push_back(BindingOrder::Entry{{slot}, {}});
  }

  /// Static binding state: which slots are bound, and in what order.
  struct Scope {
    std::vector<char> bound;
    BindingOrder order;
  };
  Scope SaveBound() const { return Scope{bound_, order_}; }
  void RestoreBound(Scope saved) {
    saved.bound.resize(bound_.size(), 0);
    bound_ = std::move(saved.bound);
    order_ = std::move(saved.order);
  }
  void ClearBound() {
    std::fill(bound_.begin(), bound_.end(), 0);
    order_.entries.clear();
  }

  const std::vector<std::string>& slot_names() const { return slot_names_; }

  // --- Expressions ----------------------------------------------------------

  Result<PExprPtr> CompileExpr(const Expr& e) {
    auto out = std::make_unique<PExpr>();
    out->kind = e.kind;
    out->line = e.line;
    out->col = e.col;
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        out->value = e.value;
        break;
      case Expr::Kind::kParam:
        out->name = e.name;
        break;
      case Expr::Kind::kVar:
        out->name = e.name;
        out->slot = SlotOf(e.name);
        break;
      case Expr::Kind::kProp: {
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        out->name = e.name;
        out->prop = SymbolRef(e.name);
        out->old_view_candidate = e.a->kind == Expr::Kind::kVar &&
                                  env_.old_view_vars.count(e.a->name) > 0;
        if (out->old_view_candidate) {
          out->old_view_var = TransVars::Intern(e.a->name);
        }
        break;
      }
      case Expr::Kind::kBinary: {
        out->bin_op = e.bin_op;
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        PGT_ASSIGN_OR_RETURN(out->b, CompileExpr(*e.b));
        // `x IN <folded literal list>`: pre-sort the elements once so the
        // executor probes in O(log n) instead of rebuilding + scanning the
        // list per evaluation (watchlist-style rule conditions).
        if (e.bin_op == BinOp::kIn &&
            out->b->kind == Expr::Kind::kLiteral &&
            out->b->value.is_list()) {
          out->const_in_probe = true;
          for (const Value& v : out->b->value.list_value()) {
            if (v.is_null()) {
              out->in_has_null = true;
            } else {
              out->in_sorted.push_back(v);
            }
          }
          std::sort(out->in_sorted.begin(), out->in_sorted.end(),
                    ValueLess{});
        }
        break;
      }
      case Expr::Kind::kUnary: {
        out->un_op = e.un_op;
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        break;
      }
      case Expr::Kind::kFunc: {
        out->name = e.name;
        out->distinct = e.distinct;
        for (const ExprPtr& arg : e.args) {
          PGT_ASSIGN_OR_RETURN(PExprPtr p, CompileExpr(*arg));
          out->args.push_back(std::move(p));
        }
        break;
      }
      case Expr::Kind::kCountStar:
        break;
      case Expr::Kind::kList: {
        // Constant folding: a list of literals is itself a literal,
        // materialized once here instead of per evaluation. Construction of
        // literal lists cannot error, so folding is observationally pure.
        bool all_literal = true;
        for (const ExprPtr& arg : e.args) {
          PGT_ASSIGN_OR_RETURN(PExprPtr p, CompileExpr(*arg));
          all_literal = all_literal && p->kind == Expr::Kind::kLiteral;
          out->args.push_back(std::move(p));
        }
        if (all_literal) {
          Value::List items;
          items.reserve(out->args.size());
          for (const PExprPtr& arg : out->args) items.push_back(arg->value);
          out->kind = Expr::Kind::kLiteral;
          out->value = Value::MakeList(std::move(items));
          out->args.clear();
        }
        break;
      }
      case Expr::Kind::kMap: {
        bool all_literal = true;
        for (const auto& [k, v] : e.map_entries) {
          PGT_ASSIGN_OR_RETURN(PExprPtr p, CompileExpr(*v));
          all_literal = all_literal && p->kind == Expr::Kind::kLiteral;
          out->map_entries.emplace_back(k, std::move(p));
        }
        if (all_literal) {  // same folding argument as kList
          Value::Map m;
          for (const auto& [k, v] : out->map_entries) m[k] = v->value;
          out->kind = Expr::Kind::kLiteral;
          out->value = Value::MakeMap(std::move(m));
          out->map_entries.clear();
        }
        break;
      }
      case Expr::Kind::kIndex: {
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        PGT_ASSIGN_OR_RETURN(out->b, CompileExpr(*e.b));
        break;
      }
      case Expr::Kind::kCase: {
        if (e.a) {
          PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        }
        for (const auto& [w, t] : e.whens) {
          PGT_ASSIGN_OR_RETURN(PExprPtr pw, CompileExpr(*w));
          PGT_ASSIGN_OR_RETURN(PExprPtr pt, CompileExpr(*t));
          out->whens.emplace_back(std::move(pw), std::move(pt));
        }
        if (e.c) {
          PGT_ASSIGN_OR_RETURN(out->c, CompileExpr(*e.c));
        }
        break;
      }
      case Expr::Kind::kExists: {
        // Own scope: bindings inside the subquery never escape. Pattern
        // variables still share the query-wide slot universe (an outer
        // binding of the same name constrains the match).
        Scope saved = SaveBound();
        PGT_ASSIGN_OR_RETURN(
            PPattern pp,
            CompilePattern(*e.pattern, e.pattern_where.get(),
                           /*scan_templates=*/true));
        if (e.pattern_where) {
          PGT_ASSIGN_OR_RETURN(out->pattern_where,
                               CompileExpr(*e.pattern_where));
        }
        RestoreBound(std::move(saved));
        out->pattern = std::make_unique<PPattern>(std::move(pp));
        break;
      }
      case Expr::Kind::kListComp: {
        out->name = e.name;
        out->slot = SlotOf(e.name);
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        Scope saved = SaveBound();
        Bind(out->slot);
        if (e.b) {
          PGT_ASSIGN_OR_RETURN(out->b, CompileExpr(*e.b));
        }
        if (e.c) {
          PGT_ASSIGN_OR_RETURN(out->c, CompileExpr(*e.c));
        }
        RestoreBound(std::move(saved));
        break;
      }
      case Expr::Kind::kLabelTest: {
        PGT_ASSIGN_OR_RETURN(out->a, CompileExpr(*e.a));
        for (const std::string& l : e.labels) out->labels.emplace_back(l);
        break;
      }
    }
    return out;
  }

  // --- Patterns and scan templates ------------------------------------------

  Result<PNodePattern> CompileNodePattern(const NodePattern& np) {
    PNodePattern out;
    out.var = np.var;
    out.slot = np.var.empty() ? -1 : SlotOf(np.var);
    out.line = np.line;
    out.col = np.col;
    for (const std::string& l : np.labels) out.labels.emplace_back(l);
    for (const auto& [k, expr] : np.props) {
      PPropConstraint pc;
      pc.key = SymbolRef(k);
      PGT_ASSIGN_OR_RETURN(pc.expr, CompileExpr(*expr));
      out.props.push_back(std::move(pc));
    }
    return out;
  }

  Result<PRelPattern> CompileRelPattern(const RelPattern& rp) {
    PRelPattern out;
    out.var = rp.var;
    out.slot = rp.var.empty() ? -1 : SlotOf(rp.var);
    for (const std::string& t : rp.types) out.types.emplace_back(t);
    for (const auto& [k, expr] : rp.props) {
      PPropConstraint pc;
      pc.key = SymbolRef(k);
      PGT_ASSIGN_OR_RETURN(pc.expr, CompileExpr(*expr));
      out.props.push_back(std::move(pc));
    }
    out.direction = rp.direction;
    out.var_length = rp.var_length;
    out.min_hops = rp.min_hops;
    out.max_hops = rp.max_hops;
    return out;
  }

  /// Whether the scan planner may evaluate `e` up front (a literal, a
  /// parameter, or a read of an already-bound variable), decided against
  /// the compile-time bound set, which matches runtime boundness.
  bool StaticPlannerEvaluable(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
      case Expr::Kind::kParam:
        return true;
      case Expr::Kind::kVar:
        return StaticallyBound(e.name);
      case Expr::Kind::kProp:
        return e.a != nullptr && e.a->kind == Expr::Kind::kVar &&
               StaticallyBound(e.a->name);
      case Expr::Kind::kUnary:
        return e.un_op == UnOp::kNeg && e.a != nullptr &&
               StaticPlannerEvaluable(*e.a);
      default:
        return false;
    }
  }

  /// Collects sargable `var.key <op> comparand` conjuncts: walks top-level
  /// AND conjuncts only.
  void CollectSargTemplates(const Expr& e, const std::string& var,
                            std::vector<SargTemplate>* out) const {
    if (e.kind == Expr::Kind::kBinary && e.bin_op == BinOp::kAnd) {
      if (e.a != nullptr) CollectSargTemplates(*e.a, var, out);
      if (e.b != nullptr) CollectSargTemplates(*e.b, var, out);
      return;
    }
    if (e.kind != Expr::Kind::kBinary || e.a == nullptr || e.b == nullptr) {
      return;
    }
    switch (e.bin_op) {
      case BinOp::kEq:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        break;
      default:
        return;
    }
    std::string key;
    const Expr* comparand = nullptr;
    BinOp op = e.bin_op;
    if (IsVarProp(*e.a, var, &key) && StaticPlannerEvaluable(*e.b)) {
      comparand = e.b.get();
    } else if (IsVarProp(*e.b, var, &key) && StaticPlannerEvaluable(*e.a)) {
      comparand = e.a.get();
      op = MirrorOp(op);
    } else {
      return;
    }
    out->push_back(SargTemplate{std::move(key), op, comparand});
  }

  /// Resolves the access-path template for a part's first node against the
  /// compiling view's indexes. Probes keep owned compiled copies of their
  /// comparand expressions; live index refs stay valid until the next index
  /// DDL, which bumps the catalog epoch and invalidates the whole plan.
  Result<PScanTemplate> BuildScanTemplate(const NodePattern& np,
                                          const Expr* where_hint) {
    PScanTemplate t;
    if (!view_.HasIndexes()) return t;

    // Compile-time-resolvable real labels, in pattern order. Names that are
    // transition seeds resolve as pseudo-labels at runtime and never reach
    // the planner; unresolvable names can only gain an index through index
    // DDL, which recompiles the plan.
    std::vector<LabelId> labels;
    for (const std::string& name : np.labels) {
      if (std::find(env_.seed_vars.begin(), env_.seed_vars.end(), name) !=
          env_.seed_vars.end()) {
        continue;
      }
      auto id = view_.LookupLabel(name);
      if (id.has_value()) labels.push_back(*id);
    }
    if (labels.empty()) return t;  // indexes are label-scoped

    std::map<PropKeyId, PScanTemplate::RangeGroup> range_groups;

    auto consider_eq = [&](const std::string& key, const Expr& comparand,
                           int inline_prop_idx) -> Status {
      auto pk = view_.LookupPropKey(key);
      if (!pk.has_value()) return Status::OK();
      for (LabelId l : labels) {
        const IndexRef idx = view_.FindIndex(l, *pk);
        if (!idx) continue;
        PScanTemplate::EqProbe probe;
        probe.idx = idx;
        probe.label = l;
        probe.prop = *pk;
        probe.unique = idx.unique();
        probe.inline_prop_idx = inline_prop_idx;
        PGT_ASSIGN_OR_RETURN(probe.comparand, CompileExpr(comparand));
        t.eq_probes.push_back(std::move(probe));
      }
      return Status::OK();
    };
    auto consider_range = [&](const std::string& key, BinOp op,
                              const Expr& comparand) -> Status {
      auto pk = view_.LookupPropKey(key);
      if (!pk.has_value()) return Status::OK();
      for (LabelId l : labels) {
        const IndexRef idx = view_.FindIndex(l, *pk);
        if (!idx.SupportsRange()) continue;
        auto [it, inserted] =
            range_groups.try_emplace(*pk, PScanTemplate::RangeGroup{});
        if (inserted) {
          it->second.label = l;
          it->second.prop = *pk;
          it->second.idx = idx;
        }
        PScanTemplate::RangeBound bound;
        bound.op = op;
        PGT_ASSIGN_OR_RETURN(bound.comparand, CompileExpr(comparand));
        it->second.bounds.push_back(std::move(bound));
        break;  // bounds are per-key; one ordered index suffices
      }
      return Status::OK();
    };

    {
      int prop_idx = 0;
      for (const auto& [key, expr] : np.props) {
        const int this_idx = prop_idx++;
        if (expr == nullptr || !StaticPlannerEvaluable(*expr)) continue;
        PGT_RETURN_IF_ERROR(consider_eq(key, *expr, this_idx));
      }
    }
    if (where_hint != nullptr && !np.var.empty() &&
        !StaticallyBound(np.var)) {
      std::vector<SargTemplate> sargs;
      CollectSargTemplates(*where_hint, np.var, &sargs);
      for (const SargTemplate& s : sargs) {
        if (s.op == BinOp::kEq) {
          PGT_RETURN_IF_ERROR(consider_eq(s.key, *s.comparand, -1));
        } else {
          PGT_RETURN_IF_ERROR(consider_range(s.key, s.op, *s.comparand));
        }
      }
    }
    for (auto& [pk, group] : range_groups) {
      (void)pk;
      t.range_groups.push_back(std::move(group));
    }
    return t;
  }

  Result<PPattern> CompilePattern(const Pattern& p, const Expr* where_hint,
                                  bool scan_templates) {
    PPattern out;
    // Introduced-variable slots in declaration order (the executor pads
    // only the ones unbound at runtime — OPTIONAL MATCH).
    auto add_intro = [&](const std::string& v) {
      if (v.empty()) return;
      const int s = SlotOf(v);
      if (std::find(out.intro_slots.begin(), out.intro_slots.end(), s) ==
          out.intro_slots.end()) {
        out.intro_slots.push_back(s);
      }
    };
    for (const PatternPart& part : p.parts) {
      add_intro(part.first.var);
      for (const auto& [rel, node] : part.chain) {
        add_intro(rel.var);
        add_intro(node.var);
      }
    }

    for (const PatternPart& part : p.parts) {
      PPatternPart pp;
      PGT_ASSIGN_OR_RETURN(pp.first, CompileNodePattern(part.first));
      if (scan_templates) {
        PGT_ASSIGN_OR_RETURN(pp.scan,
                             BuildScanTemplate(part.first, where_hint));
      }
      if (!part.first.var.empty()) Bind(SlotOf(part.first.var));
      for (const auto& [rp, np] : part.chain) {
        PGT_ASSIGN_OR_RETURN(PRelPattern prp, CompileRelPattern(rp));
        PGT_ASSIGN_OR_RETURN(PNodePattern pnp, CompileNodePattern(np));
        if (!np.var.empty()) Bind(SlotOf(np.var));
        if (!rp.var.empty()) Bind(SlotOf(rp.var));
        pp.chain.emplace_back(std::move(prp), std::move(pnp));
      }
      out.parts.push_back(std::move(pp));
    }
    return out;
  }

  // --- Clause items ---------------------------------------------------------

  Result<PSetItem> CompileSetItem(const SetItem& it) {
    PSetItem out;
    out.kind = it.kind;
    switch (it.kind) {
      case SetItem::Kind::kProperty: {
        PGT_ASSIGN_OR_RETURN(out.target, CompileExpr(*it.target));
        out.prop = SymbolRef(it.prop);
        PGT_ASSIGN_OR_RETURN(out.value, CompileExpr(*it.value));
        break;
      }
      case SetItem::Kind::kMergeMap: {
        out.var = it.var;
        out.var_slot = SlotOf(it.var);
        PGT_ASSIGN_OR_RETURN(out.value, CompileExpr(*it.value));
        break;
      }
      case SetItem::Kind::kLabels: {
        out.var = it.var;
        out.var_slot = SlotOf(it.var);
        for (const std::string& l : it.labels) out.labels.emplace_back(l);
        break;
      }
    }
    return out;
  }

  Result<PRemoveItem> CompileRemoveItem(const RemoveItem& it) {
    PRemoveItem out;
    out.kind = it.kind;
    if (it.kind == RemoveItem::Kind::kProperty) {
      PGT_ASSIGN_OR_RETURN(out.target, CompileExpr(*it.target));
      out.prop = SymbolRef(it.prop);
    } else {
      out.var = it.var;
      out.var_slot = SlotOf(it.var);
      for (const std::string& l : it.labels) out.labels.emplace_back(l);
    }
    return out;
  }

  // --- Clauses --------------------------------------------------------------

  Result<PStep> CompileClause(const Clause& c) {
    PStep s;
    s.kind = c.kind;
    s.line = c.line;
    s.col = c.col;
    switch (c.kind) {
      case Clause::Kind::kMatch: {
        s.optional_match = c.optional_match;
        const size_t mark = order_.entries.size();
        PGT_ASSIGN_OR_RETURN(
            s.pattern,
            CompilePattern(c.pattern, c.where.get(), /*scan_templates=*/true));
        if (c.optional_match && order_.entries.size() > mark) {
          // One entry for the variables this OPTIONAL MATCH introduces: a
          // match binds them in walk order, the padding in declaration
          // order (intro_slots).
          BindingOrder::Entry group;
          for (size_t i = mark; i < order_.entries.size(); ++i) {
            group.matched.push_back(order_.entries[i].matched.front());
          }
          for (int slot : s.pattern.intro_slots) {
            if (std::find(group.matched.begin(), group.matched.end(), slot) !=
                group.matched.end()) {
              group.padded.push_back(slot);
            }
          }
          order_.entries.resize(mark);
          order_.entries.push_back(std::move(group));
        }
        if (c.where) {
          PGT_ASSIGN_OR_RETURN(s.where, CompileExpr(*c.where));
        }
        break;
      }
      case Clause::Kind::kUnwind: {
        PGT_ASSIGN_OR_RETURN(s.unwind_expr, CompileExpr(*c.unwind_expr));
        s.unwind_slot = SlotOf(c.unwind_var);
        Bind(s.unwind_slot);
        break;
      }
      case Clause::Kind::kWith:
      case Clause::Kind::kReturn: {
        s.is_return = c.kind == Clause::Kind::kReturn;
        s.star = c.return_star;
        s.distinct = c.distinct;
        // A star projection keeps every binding, so the rest of the clause
        // compiles in the current scope.
        if (s.star) s.scope = order_;
        for (const ProjItem& item : c.items) {
          PProjItem pi;
          PGT_ASSIGN_OR_RETURN(pi.expr, CompileExpr(*item.expr));
          pi.alias = item.alias;
          pi.slot = SlotOf(item.alias);
          pi.has_aggregate = ContainsAggregate(*item.expr);
          if (pi.has_aggregate) s.any_aggregate = true;
          s.items.push_back(std::move(pi));
        }
        for (PProjItem& pi : s.items) {
          if (pi.has_aggregate) NumberAggregates(pi.expr.get(), &s.agg_count);
        }
        for (const PProjItem& pi : s.items) {
          if (std::find(s.out_slots.begin(), s.out_slots.end(), pi.slot) ==
              s.out_slots.end()) {
            s.out_slots.push_back(pi.slot);
            s.out_names.push_back(pi.alias);
          }
        }
        // WITH/RETURN re-scope the rows to the projected aliases.
        if (!s.star) {
          ClearBound();
          for (int slot : s.out_slots) Bind(slot);
        }
        if (c.where) {
          PGT_ASSIGN_OR_RETURN(s.where, CompileExpr(*c.where));
        }
        for (const SortItem& item : c.order_by) {
          PSortItem ps;
          PGT_ASSIGN_OR_RETURN(ps.expr, CompileExpr(*item.expr));
          ps.ascending = item.ascending;
          s.order_by.push_back(std::move(ps));
        }
        if (c.skip != nullptr || c.limit != nullptr) {
          // SKIP/LIMIT evaluate against an empty row.
          Scope saved = SaveBound();
          ClearBound();
          if (c.skip) {
            PGT_ASSIGN_OR_RETURN(s.skip, CompileExpr(*c.skip));
          }
          if (c.limit) {
            PGT_ASSIGN_OR_RETURN(s.limit, CompileExpr(*c.limit));
          }
          RestoreBound(std::move(saved));
        }
        break;
      }
      case Clause::Kind::kCreate: {
        PGT_ASSIGN_OR_RETURN(s.pattern,
                             CompilePattern(c.pattern, nullptr,
                                            /*scan_templates=*/false));
        break;
      }
      case Clause::Kind::kMerge: {
        PGT_ASSIGN_OR_RETURN(s.pattern,
                             CompilePattern(c.pattern, nullptr,
                                            /*scan_templates=*/true));
        for (const SetItem& it : c.on_create) {
          PGT_ASSIGN_OR_RETURN(PSetItem p, CompileSetItem(it));
          s.on_create.push_back(std::move(p));
        }
        for (const SetItem& it : c.on_match) {
          PGT_ASSIGN_OR_RETURN(PSetItem p, CompileSetItem(it));
          s.on_match.push_back(std::move(p));
        }
        break;
      }
      case Clause::Kind::kDelete: {
        s.detach = c.detach;
        for (const ExprPtr& e : c.delete_exprs) {
          PGT_ASSIGN_OR_RETURN(PExprPtr p, CompileExpr(*e));
          s.delete_exprs.push_back(std::move(p));
        }
        break;
      }
      case Clause::Kind::kSet: {
        for (const SetItem& it : c.set_items) {
          PGT_ASSIGN_OR_RETURN(PSetItem p, CompileSetItem(it));
          s.set_items.push_back(std::move(p));
        }
        break;
      }
      case Clause::Kind::kRemove: {
        for (const RemoveItem& it : c.remove_items) {
          PGT_ASSIGN_OR_RETURN(PRemoveItem p, CompileRemoveItem(it));
          s.remove_items.push_back(std::move(p));
        }
        break;
      }
      case Clause::Kind::kForeach: {
        PGT_ASSIGN_OR_RETURN(s.foreach_list, CompileExpr(*c.foreach_list));
        s.foreach_slot = SlotOf(c.foreach_var);
        Scope saved = SaveBound();
        Bind(s.foreach_slot);
        PGT_ASSIGN_OR_RETURN(
            s.foreach_body,
            CompileClauses(c.foreach_body, ClauseMode::kNoReturn));
        RestoreBound(std::move(saved));
        break;
      }
      case Clause::Kind::kCall: {
        s.call_proc = c.call_proc;
        for (const ExprPtr& arg : c.call_args) {
          PGT_ASSIGN_OR_RETURN(PExprPtr p, CompileExpr(*arg));
          s.call_args.push_back(std::move(p));
        }
        s.scope = order_;
        s.call_yield = c.call_yield;
        for (const std::string& y : c.call_yield) {
          s.yield_slots.push_back(SlotOf(y));
          Bind(s.yield_slots.back());
        }
        break;
      }
    }
    return s;
  }

  Result<std::vector<PStep>> CompileClauses(
      const std::vector<ClausePtr>& clauses, ClauseMode mode) {
    std::vector<PStep> steps;
    for (size_t i = 0; i < clauses.size(); ++i) {
      const Clause& c = *clauses[i];
      if (c.kind == Clause::Kind::kReturn &&
          (mode == ClauseMode::kNoReturn || i + 1 != clauses.size())) {
        // Nothing after this step can run, so the pipeline ends here.
        PStep raise;
        raise.kind = c.kind;
        raise.line = c.line;
        raise.col = c.col;
        raise.error = mode == ClauseMode::kNoReturn
                          ? "RETURN is not allowed here"
                          : "RETURN must be the final clause";
        steps.push_back(std::move(raise));
        break;
      }
      PGT_ASSIGN_OR_RETURN(PStep s, CompileClause(c));
      steps.push_back(std::move(s));
    }
    return steps;
  }

 private:
  /// Numbers aggregate calls in pre-order (a, b, c, args, map entries,
  /// whens; EXISTS subqueries excluded; no descent into aggregate
  /// arguments) — the order ComputeAggregates fills them in.
  void NumberAggregates(PExpr* e, int* counter) {
    if (e->kind == Expr::Kind::kCountStar ||
        (e->kind == Expr::Kind::kFunc && IsAggregateFunctionName(e->name))) {
      e->agg_index = (*counter)++;
      return;
    }
    if (e->kind == Expr::Kind::kExists) return;
    if (e->a) NumberAggregates(e->a.get(), counter);
    if (e->b) NumberAggregates(e->b.get(), counter);
    if (e->c) NumberAggregates(e->c.get(), counter);
    for (PExprPtr& arg : e->args) NumberAggregates(arg.get(), counter);
    for (auto& [k, v] : e->map_entries) {
      (void)k;
      NumberAggregates(v.get(), counter);
    }
    for (auto& [w, t] : e->whens) {
      NumberAggregates(w.get(), counter);
      NumberAggregates(t.get(), counter);
    }
  }

  const CompileEnv& env_;
  const StoreView& view_;
  std::unordered_map<std::string, int> slot_of_;
  std::vector<std::string> slot_names_;
  std::vector<char> bound_;
  BindingOrder order_;
};

}  // namespace

Result<PlanProgram> CompileQuery(const Query& q, const CompileEnv& env,
                                 const StoreView& view, uint64_t epoch) {
  Compiler c(env, view);
  for (const std::string& name : env.seed_vars) {
    c.Bind(c.SlotOf(name));
  }
  PlanProgram prog;
  PGT_ASSIGN_OR_RETURN(prog.steps,
                       c.CompileClauses(q.clauses, ClauseMode::kTopLevel));
  prog.slot_names = c.slot_names();
  prog.slot_count = prog.slot_names.size();
  prog.store = view.live_store();
  prog.epoch = epoch;
  return prog;
}

Result<TriggerProgram> CompileTrigger(const Expr* when_expr,
                                      const Query* when_query,
                                      const Query& action,
                                      const CompileEnv& env,
                                      const StoreView& view,
                                      uint64_t epoch) {
  Compiler c(env, view);
  TriggerProgram tp;
  for (const std::string& name : env.seed_vars) {
    const int slot = c.SlotOf(name);
    c.Bind(slot);
    tp.seed_slots.emplace_back(TransVars::Intern(name), slot);
  }
  if (when_expr != nullptr) {
    PGT_ASSIGN_OR_RETURN(tp.when_expr, c.CompileExpr(*when_expr));
  } else if (when_query != nullptr && !when_query->clauses.empty()) {
    PGT_ASSIGN_OR_RETURN(
        tp.when_steps,
        c.CompileClauses(when_query->clauses, ClauseMode::kNoReturn));
  }
  // Transition variables are re-seeded into the condition's result rows
  // before the action runs (Section 6.2 scope rule), so the action compiles
  // with them statically bound again.
  for (const auto& [var, slot] : tp.seed_slots) {
    (void)var;
    c.Bind(slot);
  }
  PGT_ASSIGN_OR_RETURN(tp.action_steps,
                       c.CompileClauses(action.clauses, ClauseMode::kNoReturn));
  tp.slot_names = c.slot_names();
  tp.slot_count = tp.slot_names.size();
  tp.store = view.live_store();
  tp.epoch = epoch;
  return tp;
}

}  // namespace pgt::cypher::plan
