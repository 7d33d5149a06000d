#include "src/cypher/eval.h"

#include <cmath>
#include <cstdint>

#include "src/common/str_util.h"

namespace pgt::cypher {

const Value* Row::Get(std::string_view name) const {
  for (const auto& [k, v] : cols) {
    if (k == name) return &v;
  }
  return nullptr;
}

void Row::Set(std::string_view name, Value v) {
  for (auto& [k, val] : cols) {
    if (k == name) {
      val = std::move(v);
      return;
    }
  }
  cols.emplace_back(std::string(name), std::move(v));
}

bool IsAggregateFunctionName(const std::string& name) {
  const std::string lower = ToLower(name);
  return lower == "count" || lower == "sum" || lower == "avg" ||
         lower == "min" || lower == "max" || lower == "collect";
}

bool ContainsAggregate(const Expr& e) {
  if (e.kind == Expr::Kind::kCountStar) return true;
  if (e.kind == Expr::Kind::kFunc && IsAggregateFunctionName(e.name)) {
    return true;
  }
  if (e.kind == Expr::Kind::kExists) return false;  // own scope
  if (e.a && ContainsAggregate(*e.a)) return true;
  if (e.b && ContainsAggregate(*e.b)) return true;
  if (e.c && ContainsAggregate(*e.c)) return true;
  for (const ExprPtr& arg : e.args) {
    if (ContainsAggregate(*arg)) return true;
  }
  for (const auto& [k, v] : e.map_entries) {
    (void)k;
    if (ContainsAggregate(*v)) return true;
  }
  for (const auto& [w, t] : e.whens) {
    if (ContainsAggregate(*w) || ContainsAggregate(*t)) return true;
  }
  return false;
}

Value ReadItemProp(EvalContext& ctx, const Value& item, PropKeyId key) {
  if (item.is_node()) return ctx.ReadNodeProp(item.node_id(), key);
  if (item.is_rel()) return ctx.ReadRelProp(item.rel_id(), key);
  return Value::Null();
}

std::vector<LabelId> ReadItemLabels(EvalContext& ctx, const Value& item) {
  if (item.is_node()) return ctx.ReadNodeLabels(item.node_id());
  return {};
}

namespace {

Status TypeErrAt(int line, int col, const std::string& msg) {
  return Status::TypeError(msg + " at " + std::to_string(line) + ":" +
                           std::to_string(col));
}

/// Three-valued logic encoding: -1 = null, 0 = false, 1 = true.
int Tri(const Value& v) {
  if (v.is_null()) return -1;
  return v.bool_value() ? 1 : 0;
}

}  // namespace

Result<Value> EvalBinaryOp(BinOp op, const Value& a, const Value& b, int line,
                           int col) {
  auto TypeErr = [&](const std::string& msg) {
    return TypeErrAt(line, col, msg);
  };
  switch (op) {
    case BinOp::kAnd: {
      const int x = Tri(a), y = Tri(b);
      if (!a.is_null() && !a.is_bool()) {
        return TypeErr("AND requires booleans");
      }
      if (!b.is_null() && !b.is_bool()) {
        return TypeErr("AND requires booleans");
      }
      if (x == 0 || y == 0) return Value::Bool(false);
      if (x == 1 && y == 1) return Value::Bool(true);
      return Value::Null();
    }
    case BinOp::kOr: {
      const int x = Tri(a), y = Tri(b);
      if (!a.is_null() && !a.is_bool()) {
        return TypeErr("OR requires booleans");
      }
      if (!b.is_null() && !b.is_bool()) {
        return TypeErr("OR requires booleans");
      }
      if (x == 1 || y == 1) return Value::Bool(true);
      if (x == 0 && y == 0) return Value::Bool(false);
      return Value::Null();
    }
    case BinOp::kXor: {
      const int x = Tri(a), y = Tri(b);
      if (x < 0 || y < 0) return Value::Null();
      return Value::Bool((x == 1) != (y == 1));
    }
    case BinOp::kEq:
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Bool(a.Equals(b));
    case BinOp::kNe:
      if (a.is_null() || b.is_null()) return Value::Null();
      return Value::Bool(!a.Equals(b));
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      if (a.is_null() || b.is_null()) return Value::Null();
      const bool comparable =
          (a.is_numeric() && b.is_numeric()) ||
          (a.is_string() && b.is_string()) ||
          (a.is_bool() && b.is_bool()) ||
          (a.type() == ValueType::kDate && b.type() == ValueType::kDate) ||
          (a.type() == ValueType::kDateTime &&
           b.type() == ValueType::kDateTime);
      if (!comparable) return Value::Null();
      const int c = a.TotalCompare(b);
      switch (op) {
        case BinOp::kLt:
          return Value::Bool(c < 0);
        case BinOp::kLe:
          return Value::Bool(c <= 0);
        case BinOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinOp::kAdd: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (a.is_string() || b.is_string()) {
        auto raw = [](const Value& v) {
          return v.is_string() ? std::string(v.string_value()) : v.ToString();
        };
        return Value::String(raw(a) + raw(b));
      }
      if (a.is_list() || b.is_list()) {
        Value::List out;
        if (a.is_list()) {
          out = a.list_value();
        } else {
          out.push_back(a);
        }
        if (b.is_list()) {
          for (const Value& v : b.list_value()) out.push_back(v);
        } else {
          out.push_back(b);
        }
        return Value::MakeList(std::move(out));
      }
      if (a.is_int() && b.is_int()) {
        int64_t sum;
        if (__builtin_add_overflow(a.int_value(), b.int_value(), &sum)) {
          return TypeErr("integer overflow in '+'");
        }
        return Value::Int(sum);
      }
      if (a.is_numeric() && b.is_numeric()) {
        return Value::Double(a.as_double() + b.as_double());
      }
      return TypeErr(std::string("cannot add ") + a.type_name() + " and " +
                            b.type_name());
    }
    case BinOp::kSub: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (a.is_int() && b.is_int()) {
        int64_t diff;
        if (__builtin_sub_overflow(a.int_value(), b.int_value(), &diff)) {
          return TypeErr("integer overflow in '-'");
        }
        return Value::Int(diff);
      }
      if (a.is_numeric() && b.is_numeric()) {
        return Value::Double(a.as_double() - b.as_double());
      }
      return TypeErr("subtraction requires numbers");
    }
    case BinOp::kMul: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (a.is_int() && b.is_int()) {
        int64_t product;
        if (__builtin_mul_overflow(a.int_value(), b.int_value(), &product)) {
          return TypeErr("integer overflow in '*'");
        }
        return Value::Int(product);
      }
      if (a.is_numeric() && b.is_numeric()) {
        return Value::Double(a.as_double() * b.as_double());
      }
      return TypeErr("multiplication requires numbers");
    }
    case BinOp::kDiv: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (a.is_int() && b.is_int()) {
        if (b.int_value() == 0) return TypeErr("division by zero");
        // The one quotient that does not fit (and traps on x86).
        if (a.int_value() == INT64_MIN && b.int_value() == -1) {
          return TypeErr("integer overflow in '/'");
        }
        return Value::Int(a.int_value() / b.int_value());
      }
      if (a.is_numeric() && b.is_numeric()) {
        if (b.as_double() == 0.0) return TypeErr("division by zero");
        return Value::Double(a.as_double() / b.as_double());
      }
      return TypeErr("division requires numbers");
    }
    case BinOp::kMod: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (a.is_int() && b.is_int()) {
        if (b.int_value() == 0) return TypeErr("modulo by zero");
        // Every remainder of division by -1 is 0, but INT64_MIN % -1 traps
        // on x86.
        if (b.int_value() == -1) return Value::Int(0);
        return Value::Int(a.int_value() % b.int_value());
      }
      if (a.is_numeric() && b.is_numeric()) {
        return Value::Double(std::fmod(a.as_double(), b.as_double()));
      }
      return TypeErr("modulo requires numbers");
    }
    case BinOp::kPow: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_numeric() || !b.is_numeric()) {
        return TypeErr("exponentiation requires numbers");
      }
      return Value::Double(std::pow(a.as_double(), b.as_double()));
    }
    case BinOp::kIn: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!b.is_list()) return TypeErr("IN requires a list");
      bool saw_null = false;
      for (const Value& v : b.list_value()) {
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (a.Equals(v)) return Value::Bool(true);
      }
      return saw_null ? Value::Null() : Value::Bool(false);
    }
    case BinOp::kStartsWith:
    case BinOp::kEndsWith:
    case BinOp::kContains: {
      if (a.is_null() || b.is_null()) return Value::Null();
      if (!a.is_string() || !b.is_string()) {
        return TypeErr("string predicate requires strings");
      }
      const std::string_view s = a.string_value();
      const std::string_view t = b.string_value();
      bool r = false;
      if (op == BinOp::kStartsWith) {
        r = s.size() >= t.size() && s.compare(0, t.size(), t) == 0;
      } else if (op == BinOp::kEndsWith) {
        r = s.size() >= t.size() &&
            s.compare(s.size() - t.size(), t.size(), t) == 0;
      } else {
        r = s.find(t) != std::string::npos;
      }
      return Value::Bool(r);
    }
  }
  return TypeErr("unknown binary operator");
}

Result<Value> EvalUnaryOp(UnOp op, const Value& a, int line, int col) {
  auto TypeErr = [&](const std::string& msg) {
    return TypeErrAt(line, col, msg);
  };
  switch (op) {
    case UnOp::kNot: {
      const int t = Tri(a);
      if (!a.is_null() && !a.is_bool()) {
        return TypeErr("NOT requires a boolean");
      }
      if (t < 0) return Value::Null();
      return Value::Bool(t == 0);
    }
    case UnOp::kNeg:
      if (a.is_null()) return Value::Null();
      if (a.is_int()) {
        if (a.int_value() == INT64_MIN) {
          return TypeErr("integer overflow in unary '-'");
        }
        return Value::Int(-a.int_value());
      }
      if (a.is_double()) return Value::Double(-a.double_value());
      return TypeErr("negation requires a number");
    case UnOp::kIsNull:
      return Value::Bool(a.is_null());
    case UnOp::kIsNotNull:
      return Value::Bool(!a.is_null());
  }
  return TypeErr("unknown unary operator");
}

}  // namespace pgt::cypher
