#include "src/cypher/ast.h"

#include <sstream>

namespace pgt::cypher {

namespace {

std::string RenameVar(const std::string& name, const RenameMap* renames) {
  if (renames != nullptr) {
    auto it = renames->find(name);
    if (it != renames->end()) return it->second;
  }
  return name;
}

std::string PropsToString(
    const std::vector<std::pair<std::string, ExprPtr>>& props,
    const RenameMap* renames) {
  if (props.empty()) return "";
  std::string out = " {";
  bool first = true;
  for (const auto& [k, v] : props) {
    if (!first) out += ", ";
    first = false;
    out += k + ": " + ExprToString(*v, renames);
  }
  out += "}";
  return out;
}

std::string NodePatternToString(const NodePattern& n,
                                const RenameMap* renames) {
  std::string out = "(" + RenameVar(n.var, renames);
  for (const std::string& l : n.labels) {
    out += ":" + RenameVar(l, renames);
  }
  out += PropsToString(n.props, renames);
  out += ")";
  return out;
}

std::string RelPatternToString(const RelPattern& r, const RenameMap* renames) {
  std::string inner = RenameVar(r.var, renames);
  for (size_t i = 0; i < r.types.size(); ++i) {
    inner += (i == 0 ? ":" : "|") + r.types[i];
  }
  if (r.var_length) {
    inner += "*";
    if (!(r.min_hops == 1 && r.max_hops == kMaxHopsUnbounded)) {
      inner += std::to_string(r.min_hops) + "..";
      if (r.max_hops != kMaxHopsUnbounded) inner += std::to_string(r.max_hops);
    }
  }
  inner += PropsToString(r.props, renames);
  std::string body = inner.empty() ? "" : "[" + inner + "]";
  switch (r.direction) {
    case PatternDirection::kLeftToRight:
      return "-" + body + "->";
    case PatternDirection::kRightToLeft:
      return "<-" + body + "-";
    case PatternDirection::kUndirected:
      return "-" + body + "-";
  }
  return "-" + body + "-";
}

std::string SetItemToString(const SetItem& s, const RenameMap* renames) {
  if (s.kind == SetItem::Kind::kProperty) {
    return ExprToString(*s.target, renames) + "." + s.prop + " = " +
           ExprToString(*s.value, renames);
  }
  if (s.kind == SetItem::Kind::kMergeMap) {
    return RenameVar(s.var, renames) + " += " +
           ExprToString(*s.value, renames);
  }
  std::string out = RenameVar(s.var, renames);
  for (const std::string& l : s.labels) out += ":" + l;
  return out;
}

std::string RemoveItemToString(const RemoveItem& r, const RenameMap* renames) {
  if (r.kind == RemoveItem::Kind::kProperty) {
    return ExprToString(*r.target, renames) + "." + r.prop;
  }
  std::string out = RenameVar(r.var, renames);
  for (const std::string& l : r.labels) out += ":" + l;
  return out;
}

}  // namespace

bool IsComparison(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

const char* BinOpText(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kPow:
      return "^";
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
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
    case BinOp::kXor:
      return "XOR";
    case BinOp::kIn:
      return "IN";
    case BinOp::kStartsWith:
      return "STARTS WITH";
    case BinOp::kEndsWith:
      return "ENDS WITH";
    case BinOp::kContains:
      return "CONTAINS";
  }
  return "?";
}

BinOp MirrorOp(BinOp op) {
  switch (op) {
    case BinOp::kLt:
      return BinOp::kGt;
    case BinOp::kLe:
      return BinOp::kGe;
    case BinOp::kGt:
      return BinOp::kLt;
    case BinOp::kGe:
      return BinOp::kLe;
    default:
      return op;
  }
}

std::string PatternPartToString(const PatternPart& p,
                                const RenameMap* renames) {
  std::string out = NodePatternToString(p.first, renames);
  for (const auto& [rel, node] : p.chain) {
    out += RelPatternToString(rel, renames);
    out += NodePatternToString(node, renames);
  }
  return out;
}

std::string PatternToString(const Pattern& p, const RenameMap* renames) {
  std::string out;
  for (size_t i = 0; i < p.parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += PatternPartToString(p.parts[i], renames);
  }
  return out;
}

std::string ExprToString(const Expr& e, const RenameMap* renames) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.value.ToString();
    case Expr::Kind::kParam:
      return "$" + e.name;
    case Expr::Kind::kVar:
      return RenameVar(e.name, renames);
    case Expr::Kind::kProp:
      return ExprToString(*e.a, renames) + "." + e.name;
    case Expr::Kind::kBinary: {
      return "(" + ExprToString(*e.a, renames) + " " + BinOpText(e.bin_op) +
             " " + ExprToString(*e.b, renames) + ")";
    }
    case Expr::Kind::kUnary:
      switch (e.un_op) {
        case UnOp::kNot:
          return "NOT (" + ExprToString(*e.a, renames) + ")";
        case UnOp::kNeg:
          return "-(" + ExprToString(*e.a, renames) + ")";
        case UnOp::kIsNull:
          return ExprToString(*e.a, renames) + " IS NULL";
        case UnOp::kIsNotNull:
          return ExprToString(*e.a, renames) + " IS NOT NULL";
      }
      return "?";
    case Expr::Kind::kFunc: {
      std::string out = e.name + "(";
      if (e.distinct) out += "DISTINCT ";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToString(*e.args[i], renames);
      }
      out += ")";
      return out;
    }
    case Expr::Kind::kCountStar:
      return "COUNT(*)";
    case Expr::Kind::kList: {
      std::string out = "[";
      for (size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToString(*e.args[i], renames);
      }
      out += "]";
      return out;
    }
    case Expr::Kind::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : e.map_entries) {
        if (!first) out += ", ";
        first = false;
        out += k + ": " + ExprToString(*v, renames);
      }
      out += "}";
      return out;
    }
    case Expr::Kind::kIndex:
      return ExprToString(*e.a, renames) + "[" + ExprToString(*e.b, renames) +
             "]";
    case Expr::Kind::kCase: {
      std::string out = "CASE";
      if (e.a) out += " " + ExprToString(*e.a, renames);
      for (const auto& [w, t] : e.whens) {
        out += " WHEN " + ExprToString(*w, renames) + " THEN " +
               ExprToString(*t, renames);
      }
      if (e.c) out += " ELSE " + ExprToString(*e.c, renames);
      out += " END";
      return out;
    }
    case Expr::Kind::kExists: {
      std::string out = "EXISTS { MATCH " + PatternToString(*e.pattern,
                                                            renames);
      if (e.pattern_where) {
        out += " WHERE " + ExprToString(*e.pattern_where, renames);
      }
      out += " }";
      return out;
    }
    case Expr::Kind::kLabelTest: {
      std::string out = ExprToString(*e.a, renames);
      for (const std::string& l : e.labels) {
        out += ":" + RenameVar(l, renames);
      }
      return out;
    }
    case Expr::Kind::kListComp: {
      std::string out = "[" + RenameVar(e.name, renames) + " IN " +
                        ExprToString(*e.a, renames);
      if (e.b) out += " WHERE " + ExprToString(*e.b, renames);
      if (e.c) out += " | " + ExprToString(*e.c, renames);
      out += "]";
      return out;
    }
  }
  return "?";
}

std::string ClauseToString(const Clause& c, const RenameMap* renames) {
  std::ostringstream os;
  switch (c.kind) {
    case Clause::Kind::kMatch:
      os << (c.optional_match ? "OPTIONAL MATCH " : "MATCH ")
         << PatternToString(c.pattern, renames);
      if (c.where) os << " WHERE " << ExprToString(*c.where, renames);
      break;
    case Clause::Kind::kUnwind:
      os << "UNWIND " << ExprToString(*c.unwind_expr, renames) << " AS "
         << RenameVar(c.unwind_var, renames);
      break;
    case Clause::Kind::kWith:
    case Clause::Kind::kReturn: {
      os << (c.kind == Clause::Kind::kWith ? "WITH " : "RETURN ");
      if (c.distinct) os << "DISTINCT ";
      if (c.return_star) {
        os << "*";
      } else {
        for (size_t i = 0; i < c.items.size(); ++i) {
          if (i > 0) os << ", ";
          os << ExprToString(*c.items[i].expr, renames);
          if (!c.items[i].alias.empty()) os << " AS " << c.items[i].alias;
        }
      }
      if (!c.order_by.empty()) {
        os << " ORDER BY ";
        for (size_t i = 0; i < c.order_by.size(); ++i) {
          if (i > 0) os << ", ";
          os << ExprToString(*c.order_by[i].expr, renames)
             << (c.order_by[i].ascending ? "" : " DESC");
        }
      }
      if (c.skip) os << " SKIP " << ExprToString(*c.skip, renames);
      if (c.limit) os << " LIMIT " << ExprToString(*c.limit, renames);
      if (c.where) os << " WHERE " << ExprToString(*c.where, renames);
      break;
    }
    case Clause::Kind::kCreate:
      os << "CREATE " << PatternToString(c.pattern, renames);
      break;
    case Clause::Kind::kMerge:
      os << "MERGE " << PatternToString(c.pattern, renames);
      for (const SetItem& s : c.on_create) {
        os << " ON CREATE SET " << SetItemToString(s, renames);
      }
      for (const SetItem& s : c.on_match) {
        os << " ON MATCH SET " << SetItemToString(s, renames);
      }
      break;
    case Clause::Kind::kDelete:
      os << (c.detach ? "DETACH DELETE " : "DELETE ");
      for (size_t i = 0; i < c.delete_exprs.size(); ++i) {
        if (i > 0) os << ", ";
        os << ExprToString(*c.delete_exprs[i], renames);
      }
      break;
    case Clause::Kind::kSet:
      os << "SET ";
      for (size_t i = 0; i < c.set_items.size(); ++i) {
        if (i > 0) os << ", ";
        os << SetItemToString(c.set_items[i], renames);
      }
      break;
    case Clause::Kind::kRemove:
      os << "REMOVE ";
      for (size_t i = 0; i < c.remove_items.size(); ++i) {
        if (i > 0) os << ", ";
        os << RemoveItemToString(c.remove_items[i], renames);
      }
      break;
    case Clause::Kind::kForeach: {
      os << "FOREACH (" << RenameVar(c.foreach_var, renames) << " IN "
         << ExprToString(*c.foreach_list, renames) << " | ";
      for (size_t i = 0; i < c.foreach_body.size(); ++i) {
        if (i > 0) os << " ";
        os << ClauseToString(*c.foreach_body[i], renames);
      }
      os << ")";
      break;
    }
    case Clause::Kind::kCall: {
      os << "CALL " << c.call_proc << "(";
      for (size_t i = 0; i < c.call_args.size(); ++i) {
        if (i > 0) os << ", ";
        os << ExprToString(*c.call_args[i], renames);
      }
      os << ")";
      if (!c.call_yield.empty()) {
        os << " YIELD ";
        for (size_t i = 0; i < c.call_yield.size(); ++i) {
          if (i > 0) os << ", ";
          os << c.call_yield[i];
        }
      }
      break;
    }
  }
  return os.str();
}

std::string QueryToString(const Query& q, const RenameMap* renames) {
  std::string out;
  for (size_t i = 0; i < q.clauses.size(); ++i) {
    if (i > 0) out += "\n";
    out += ClauseToString(*q.clauses[i], renames);
  }
  return out;
}

// --- Clone --------------------------------------------------------------------

namespace {

std::vector<std::pair<std::string, ExprPtr>> CloneProps(
    const std::vector<std::pair<std::string, ExprPtr>>& props) {
  std::vector<std::pair<std::string, ExprPtr>> out;
  out.reserve(props.size());
  for (const auto& [k, v] : props) out.emplace_back(k, CloneExpr(*v));
  return out;
}

SetItem CloneSetItem(const SetItem& s) {
  SetItem out;
  out.kind = s.kind;
  if (s.target) out.target = CloneExpr(*s.target);
  out.prop = s.prop;
  if (s.value) out.value = CloneExpr(*s.value);
  out.var = s.var;
  out.labels = s.labels;
  return out;
}

RemoveItem CloneRemoveItem(const RemoveItem& r) {
  RemoveItem out;
  out.kind = r.kind;
  if (r.target) out.target = CloneExpr(*r.target);
  out.prop = r.prop;
  out.var = r.var;
  out.labels = r.labels;
  return out;
}

}  // namespace

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->line = e.line;
  out->col = e.col;
  out->value = e.value;
  out->name = e.name;
  if (e.a) out->a = CloneExpr(*e.a);
  if (e.b) out->b = CloneExpr(*e.b);
  if (e.c) out->c = CloneExpr(*e.c);
  for (const ExprPtr& arg : e.args) out->args.push_back(CloneExpr(*arg));
  for (const auto& [k, v] : e.map_entries) {
    out->map_entries.emplace_back(k, CloneExpr(*v));
  }
  for (const auto& [w, t] : e.whens) {
    out->whens.emplace_back(CloneExpr(*w), CloneExpr(*t));
  }
  out->bin_op = e.bin_op;
  out->un_op = e.un_op;
  out->distinct = e.distinct;
  out->labels = e.labels;
  if (e.pattern) {
    out->pattern = std::make_unique<Pattern>(ClonePattern(*e.pattern));
  }
  if (e.pattern_where) out->pattern_where = CloneExpr(*e.pattern_where);
  return out;
}

Pattern ClonePattern(const Pattern& p) {
  Pattern out;
  for (const PatternPart& part : p.parts) {
    PatternPart np;
    np.first.var = part.first.var;
    np.first.labels = part.first.labels;
    np.first.props = CloneProps(part.first.props);
    np.first.line = part.first.line;
    np.first.col = part.first.col;
    for (const auto& [rel, node] : part.chain) {
      RelPattern nr;
      nr.var = rel.var;
      nr.types = rel.types;
      nr.props = CloneProps(rel.props);
      nr.direction = rel.direction;
      nr.var_length = rel.var_length;
      nr.min_hops = rel.min_hops;
      nr.max_hops = rel.max_hops;
      NodePattern nn;
      nn.var = node.var;
      nn.labels = node.labels;
      nn.props = CloneProps(node.props);
      np.chain.emplace_back(std::move(nr), std::move(nn));
    }
    out.parts.push_back(std::move(np));
  }
  return out;
}

ClausePtr CloneClause(const Clause& c) {
  auto out = std::make_unique<Clause>();
  out->kind = c.kind;
  out->line = c.line;
  out->col = c.col;
  out->optional_match = c.optional_match;
  out->pattern = ClonePattern(c.pattern);
  if (c.where) out->where = CloneExpr(*c.where);
  if (c.unwind_expr) out->unwind_expr = CloneExpr(*c.unwind_expr);
  out->unwind_var = c.unwind_var;
  out->distinct = c.distinct;
  out->return_star = c.return_star;
  for (const ProjItem& it : c.items) {
    ProjItem ni;
    ni.expr = CloneExpr(*it.expr);
    ni.alias = it.alias;
    out->items.push_back(std::move(ni));
  }
  for (const SortItem& it : c.order_by) {
    SortItem ni;
    ni.expr = CloneExpr(*it.expr);
    ni.ascending = it.ascending;
    out->order_by.push_back(std::move(ni));
  }
  if (c.skip) out->skip = CloneExpr(*c.skip);
  if (c.limit) out->limit = CloneExpr(*c.limit);
  for (const SetItem& s : c.on_create) out->on_create.push_back(CloneSetItem(s));
  for (const SetItem& s : c.on_match) out->on_match.push_back(CloneSetItem(s));
  out->detach = c.detach;
  for (const ExprPtr& e : c.delete_exprs) {
    out->delete_exprs.push_back(CloneExpr(*e));
  }
  for (const SetItem& s : c.set_items) out->set_items.push_back(CloneSetItem(s));
  for (const RemoveItem& r : c.remove_items) {
    out->remove_items.push_back(CloneRemoveItem(r));
  }
  out->foreach_var = c.foreach_var;
  if (c.foreach_list) out->foreach_list = CloneExpr(*c.foreach_list);
  for (const ClausePtr& b : c.foreach_body) {
    out->foreach_body.push_back(CloneClause(*b));
  }
  out->call_proc = c.call_proc;
  for (const ExprPtr& e : c.call_args) out->call_args.push_back(CloneExpr(*e));
  out->call_yield = c.call_yield;
  return out;
}

Query CloneQuery(const Query& q) {
  Query out;
  for (const ClausePtr& c : q.clauses) out.clauses.push_back(CloneClause(*c));
  return out;
}

bool IsReadOnlyQuery(const Query& q) {
  for (const ClausePtr& c : q.clauses) {
    switch (c->kind) {
      case Clause::Kind::kMatch:
      case Clause::Kind::kUnwind:
      case Clause::Kind::kWith:
      case Clause::Kind::kReturn:
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace pgt::cypher
