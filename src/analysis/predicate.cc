#include "src/analysis/predicate.h"

#include <sstream>

#include "src/cypher/eval.h"

namespace pgt::analysis {

namespace {

using cypher::BinOp;
using cypher::Expr;

/// Is `e` the monitored property access `NEW.p` (canonical NEW or the
/// trigger's REFERENCING alias)?
bool IsMonitoredProp(const Expr* e, const TriggerDef& def) {
  if (e == nullptr || e->kind != Expr::Kind::kProp) return false;
  if (e->name != def.property) return false;
  const Expr* base = e->a.get();
  if (base == nullptr || base->kind != Expr::Kind::kVar) return false;
  return base->name == "NEW" || base->name == def.NewVarName();
}

void ScanConjunct(const Expr* e, const TriggerDef& def, PropGuard* out) {
  if (e == nullptr || e->kind != Expr::Kind::kBinary) return;
  if (e->bin_op == BinOp::kAnd) {
    ScanConjunct(e->a.get(), def, out);
    ScanConjunct(e->b.get(), def, out);
    return;
  }
  if (!cypher::IsComparison(e->bin_op)) return;
  BinOp op = e->bin_op;
  const Expr* lit = nullptr;
  if (IsMonitoredProp(e->a.get(), def) &&
      e->b != nullptr && e->b->kind == Expr::Kind::kLiteral) {
    lit = e->b.get();
  } else if (IsMonitoredProp(e->b.get(), def) &&
             e->a != nullptr && e->a->kind == Expr::Kind::kLiteral) {
    lit = e->a.get();
    op = cypher::MirrorOp(op);  // normalize to NEW.p <op> literal
  }
  if (lit == nullptr || lit->value.is_null()) return;
  out->constraints.push_back({op, lit->value});
  switch (op) {
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      out->bounds.Tighten(op, lit->value);
      break;
    default:
      break;
  }
}

}  // namespace

std::string PropGuard::ToString(const std::string& prop) const {
  if (!usable) return "-";
  std::ostringstream os;
  bool first = true;
  for (const Constraint& c : constraints) {
    if (!first) os << " AND ";
    first = false;
    os << "NEW." << prop << " " << cypher::BinOpText(c.op) << " "
       << c.literal.ToString();
  }
  return os.str();
}

PropGuard ExtractPropGuard(const TriggerDef& def) {
  PropGuard g;
  if (def.event != TriggerEvent::kSet || def.property.empty()) return g;
  if (def.granularity != Granularity::kEach) return g;
  if (def.when_expr == nullptr) return g;
  ScanConjunct(def.when_expr.get(), def, &g);
  g.usable = !g.constraints.empty();
  return g;
}

bool RefutesGuard(const PropGuard& guard, const Value& written) {
  if (!guard.usable) return false;
  // A constraint refutes the write unless the comparison is boolean true
  // (false, NULL, and incomparable operands all refute).
  for (const PropGuard::Constraint& c : guard.constraints) {
    auto r = cypher::EvalBinaryOp(c.op, written, c.literal, 0, 0);
    if (!r.ok() || !r.value().is_bool() || !r.value().bool_value()) {
      return true;
    }
  }
  return false;
}

}  // namespace pgt::analysis
