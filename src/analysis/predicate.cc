#include "src/analysis/predicate.h"

#include <sstream>

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

/// Ternary comparison mirroring cypher/eval.cc: 1 = true, 0 = false,
/// -1 = null (null operand, or range comparison across value classes).
int EvalCompare(BinOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return -1;
  if (op == BinOp::kEq) return a.Equals(b) ? 1 : 0;
  if (op == BinOp::kNe) return a.Equals(b) ? 0 : 1;
  const bool comparable =
      (a.is_numeric() && b.is_numeric()) ||
      (a.is_string() && b.is_string()) ||
      (a.is_bool() && b.is_bool()) ||
      (a.type() == ValueType::kDate && b.type() == ValueType::kDate) ||
      (a.type() == ValueType::kDateTime && b.type() == ValueType::kDateTime);
  if (!comparable) return -1;
  const int c = a.TotalCompare(b);
  switch (op) {
    case BinOp::kLt:
      return c < 0 ? 1 : 0;
    case BinOp::kLe:
      return c <= 0 ? 1 : 0;
    case BinOp::kGt:
      return c > 0 ? 1 : 0;
    default:
      return c >= 0 ? 1 : 0;  // kGe
  }
}

const char* OpText(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    default:
      return ">=";
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
    os << "NEW." << prop << " " << OpText(c.op) << " " << c.literal.ToString();
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
  for (const PropGuard::Constraint& c : guard.constraints) {
    if (EvalCompare(c.op, written, c.literal) != 1) return true;
  }
  return false;
}

}  // namespace pgt::analysis
