#include "src/ivm/ivm_plan.h"

#include <set>
#include <utility>

#include "src/cypher/transition_vars.h"

namespace pgt::ivm {

namespace {

using cypher::BinOp;
using cypher::plan::PExpr;

/// `x.<key>` — a property of the pattern node, read from the live store
/// (never through an OLD overlay; the pattern node is not a transition
/// variable).
bool IsXProp(const PExpr& e, int x_slot) {
  return x_slot >= 0 && e.kind == cypher::Expr::Kind::kProp &&
         !e.old_view_candidate && e.a != nullptr &&
         e.a->kind == cypher::Expr::Kind::kVar && e.a->slot == x_slot;
}

/// Pure expression over seed (transition) variables only: literals, seed
/// variables, properties of seed variables (OLD overlays included — the
/// evaluator handles them), and pure binary/unary operators. These are
/// evaluated once per firing with the same evaluator the matcher would
/// have used per row, so any value- or error-semantics live in one place.
bool IsSeedExpr(const PExpr& e, const std::set<int>& seed_slots) {
  switch (e.kind) {
    case cypher::Expr::Kind::kLiteral:
      return true;
    case cypher::Expr::Kind::kVar:
      return seed_slots.count(e.slot) > 0;
    case cypher::Expr::Kind::kProp:
      return e.a != nullptr && e.a->kind == cypher::Expr::Kind::kVar &&
             seed_slots.count(e.a->slot) > 0;
    case cypher::Expr::Kind::kBinary:
      return e.a != nullptr && e.b != nullptr &&
             IsSeedExpr(*e.a, seed_slots) && IsSeedExpr(*e.b, seed_slots);
    case cypher::Expr::Kind::kUnary:
      return e.a != nullptr && IsSeedExpr(*e.a, seed_slots);
    default:
      // kFunc and friends are excluded: some functions consult runtime
      // state (logical clock), and per-row vs per-firing evaluation counts
      // must not be observable.
      return false;
  }
}

/// Flattens top-level ANDs into conjuncts. AND is eager and comparisons
/// never error, so `A AND B = true  <=>  A = true and B = true`; the only
/// error a conjunct can raise (TypeError on a non-bool operand) is
/// reproduced by the per-firing fallback path.
void Conjuncts(const PExpr* e, std::vector<const PExpr*>* out) {
  if (e->kind == cypher::Expr::Kind::kBinary && e->bin_op == BinOp::kAnd) {
    Conjuncts(e->a.get(), out);
    Conjuncts(e->b.get(), out);
    return;
  }
  out->push_back(e);
}

}  // namespace

IvmLowering LowerForIvm(const TriggerDef& def,
                        const cypher::plan::TriggerProgram& prog) {
  (void)def;
  IvmLowering out;
  auto reject = [&out](const char* why) -> IvmLowering& {
    out.supported = false;
    out.reason = why;
    return out;
  };

  if (prog.when_expr != nullptr || prog.when_steps.empty()) {
    return reject("WHEN is not a MATCH pipeline");
  }
  if (prog.when_steps.size() != 1) return reject("multi-step WHEN pipeline");
  const cypher::plan::PStep& s = prog.when_steps[0];
  if (s.kind != cypher::Clause::Kind::kMatch) {
    return reject("WHEN step is not MATCH");
  }
  if (s.optional_match) return reject("OPTIONAL MATCH");
  if (s.pattern.parts.size() != 1) return reject("multiple pattern parts");
  const cypher::plan::PPatternPart& part = s.pattern.parts[0];
  if (!part.chain.empty()) return reject("relationship chain");
  const cypher::plan::PNodePattern& np = part.first;

  std::set<int> seed_slots;
  std::set<std::string> seed_names;
  for (const auto& [var, slot] : prog.seed_slots) {
    seed_slots.insert(slot);
    seed_names.insert(cypher::TransVars::Name(var));
  }

  if (np.slot >= 0 && seed_slots.count(np.slot) > 0) {
    return reject("pattern node is a transition variable");
  }
  if (np.labels.empty()) return reject("unlabeled pattern node");

  IvmShape& shape = out.shape;
  shape.x_slot = np.slot;
  shape.x_var = np.var;
  for (const cypher::plan::SymbolRef& l : np.labels) {
    // A label spelled like a transition variable of this trigger is a
    // transition-set constraint at runtime, not a label test.
    if (seed_names.count(l.name) > 0) return reject("transition-set label");
    shape.labels.push_back(l.name);
  }

  auto add_keyed = [&](const std::string& key, bool inline_eq,
                       const PExpr* comparand) -> bool {
    if (shape.keyed) return false;
    shape.keyed = true;
    shape.key_pred.inline_eq = inline_eq;
    shape.key_pred.op = BinOp::kEq;
    shape.key_pred.key = key;
    shape.key_comparand = comparand;
    return true;
  };

  for (const cypher::plan::PPropConstraint& pc : np.props) {
    const PExpr& e = *pc.expr;
    if (e.kind == cypher::Expr::Kind::kLiteral) {
      IvmPred p;
      p.inline_eq = true;
      p.key = pc.key.name;
      p.literal = e.value;
      shape.preds.push_back(std::move(p));
    } else if (IsSeedExpr(e, seed_slots)) {
      if (!add_keyed(pc.key.name, /*inline_eq=*/true, &e)) {
        return reject("multiple keyed constraints");
      }
    } else {
      return reject("unsupported inline property constraint");
    }
  }

  if (s.where != nullptr) {
    std::vector<const PExpr*> conj;
    Conjuncts(s.where.get(), &conj);
    for (const PExpr* c : conj) {
      if (c->kind == cypher::Expr::Kind::kBinary &&
          cypher::IsComparison(c->bin_op) && c->a != nullptr &&
          c->b != nullptr) {
        const PExpr& l = *c->a;
        const PExpr& r = *c->b;
        const bool lx = IsXProp(l, np.slot);
        const bool rx = IsXProp(r, np.slot);
        if (lx && r.kind == cypher::Expr::Kind::kLiteral) {
          IvmPred p;
          p.op = c->bin_op;
          p.key = l.prop.name;
          p.literal = r.value;
          shape.preds.push_back(std::move(p));
          continue;
        }
        if (rx && l.kind == cypher::Expr::Kind::kLiteral) {
          IvmPred p;
          p.op = cypher::MirrorOp(c->bin_op);
          p.key = r.prop.name;
          p.literal = l.value;
          shape.preds.push_back(std::move(p));
          continue;
        }
        if (c->bin_op == BinOp::kEq) {
          if (lx && IsSeedExpr(r, seed_slots)) {
            if (!add_keyed(l.prop.name, /*inline_eq=*/false, &r)) {
              return reject("multiple keyed constraints");
            }
            continue;
          }
          if (rx && IsSeedExpr(l, seed_slots)) {
            if (!add_keyed(r.prop.name, /*inline_eq=*/false, &l)) {
              return reject("multiple keyed constraints");
            }
            continue;
          }
        }
      }
      if (IsSeedExpr(*c, seed_slots)) {
        shape.residuals.push_back(c);
        continue;
      }
      return reject("unsupported WHERE conjunct");
    }
  }

  out.supported = true;
  out.reason.clear();
  return out;
}

}  // namespace pgt::ivm
