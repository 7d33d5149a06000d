#include "src/cypher/parser.h"

#include <algorithm>

#include "src/common/macros.h"
#include "src/common/str_util.h"
#include "src/cypher/lexer.h"

namespace pgt::cypher {

namespace {

const std::set<std::string> kClauseKeywords = {
    "MATCH",  "OPTIONAL", "UNWIND", "WITH",    "RETURN", "CREATE", "MERGE",
    "DELETE", "DETACH",   "SET",    "REMOVE",  "FOREACH", "CALL"};

const std::set<std::string> kUpdateClauseKeywords = {
    "CREATE", "MERGE", "DELETE", "DETACH", "SET", "REMOVE", "FOREACH"};

}  // namespace

Result<Query> Parser::ParseQuery(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer::Tokenize(text));
  Parser p(std::move(toks));
  PGT_ASSIGN_OR_RETURN(Query q, p.ParseClauses({}));
  p.Accept(TokenType::kSemicolon);
  if (!p.AtEnd()) {
    return p.MakeError("unexpected " + TokenToString(p.Peek()) +
                       " after query");
  }
  if (q.clauses.empty()) {
    return p.MakeError("empty query");
  }
  for (size_t i = 0; i + 1 < q.clauses.size(); ++i) {
    if (q.clauses[i]->kind == Clause::Kind::kReturn) {
      return Status::SyntaxError("RETURN must be the final clause at " +
                                 std::to_string(q.clauses[i]->line) + ":" +
                                 std::to_string(q.clauses[i]->col));
    }
  }
  return q;
}

Result<ExprPtr> Parser::ParseExpressionText(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer::Tokenize(text));
  Parser p(std::move(toks));
  PGT_ASSIGN_OR_RETURN(ExprPtr e, p.ParseExpression());
  if (!p.AtEnd()) {
    return p.MakeError("unexpected " + TokenToString(p.Peek()) +
                       " after expression");
  }
  return e;
}

const Token& Parser::Peek(int ahead) const {
  const size_t i = pos_ + static_cast<size_t>(ahead);
  if (i >= toks_.size()) return toks_.back();  // kEnd sentinel
  return toks_[i];
}

bool Parser::PeekKeyword(std::string_view kw) const {
  const Token& t = Peek();
  return t.type == TokenType::kIdent && EqualsIgnoreCase(t.text, kw);
}

bool Parser::AcceptKeyword(std::string_view kw) {
  if (!PeekKeyword(kw)) return false;
  ++pos_;
  return true;
}

Status Parser::ExpectKeyword(std::string_view kw) {
  if (AcceptKeyword(kw)) return Status::OK();
  return MakeError("expected keyword " + std::string(kw) + ", found " +
                   TokenToString(Peek()));
}

bool Parser::Accept(TokenType t) {
  if (Peek().type != t) return false;
  ++pos_;
  return true;
}

Result<Token> Parser::Expect(TokenType t, std::string_view what) {
  if (Peek().type != t) {
    return MakeError("expected " + std::string(what) + ", found " +
                     TokenToString(Peek()));
  }
  Token tok = Peek();
  ++pos_;
  return tok;
}

Status Parser::MakeError(const std::string& msg) const {
  const Token& t = Peek();
  return Status::SyntaxError(msg + " at " + std::to_string(t.line) + ":" +
                             std::to_string(t.col));
}

Result<std::string> Parser::ParseNameOrString(std::string_view what) {
  if (Peek().type == TokenType::kIdent || Peek().type == TokenType::kString) {
    std::string s = Peek().text;
    ++pos_;
    return s;
  }
  return MakeError("expected " + std::string(what) + ", found " +
                   TokenToString(Peek()));
}

Status Parser::Deeper() {
  if (++depth_ <= kMaxNestingDepth) return Status::OK();
  const Token& t = Peek();
  return Status::InvalidArgument(
      "statement nesting exceeds the maximum depth of " +
      std::to_string(kMaxNestingDepth) + " at " + std::to_string(t.line) +
      ":" + std::to_string(t.col));
}

ExprPtr Parser::NewExpr(Expr::Kind k) const {
  auto e = std::make_unique<Expr>();
  e->kind = k;
  e->line = Peek().line;
  e->col = Peek().col;
  return e;
}

bool Parser::IsClauseKeyword() const {
  const Token& t = Peek();
  return t.type == TokenType::kIdent &&
         kClauseKeywords.count(ToUpper(t.text)) > 0;
}

// --- Clause parsing -----------------------------------------------------------

Result<Query> Parser::ParseClauses(const std::set<std::string>& stop_keywords) {
  Query q;
  while (true) {
    const Token& t = Peek();
    if (t.type == TokenType::kEnd || t.type == TokenType::kSemicolon) break;
    if (t.type == TokenType::kIdent &&
        stop_keywords.count(ToUpper(t.text)) > 0) {
      break;
    }
    if (!IsClauseKeyword()) {
      return MakeError("expected a clause keyword, found " +
                       TokenToString(t));
    }
    PGT_ASSIGN_OR_RETURN(ClausePtr c, ParseClause());
    q.clauses.push_back(std::move(c));
  }
  return q;
}

Result<ClausePtr> Parser::ParseClause() {
  if (AcceptKeyword("OPTIONAL")) {
    PGT_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
    return ParseMatch(/*optional_match=*/true);
  }
  if (AcceptKeyword("MATCH")) return ParseMatch(false);
  if (AcceptKeyword("UNWIND")) return ParseUnwind();
  if (AcceptKeyword("WITH")) return ParseWithOrReturn(/*is_return=*/false);
  if (AcceptKeyword("RETURN")) return ParseWithOrReturn(true);
  if (AcceptKeyword("CREATE")) return ParseCreate();
  if (AcceptKeyword("MERGE")) return ParseMerge();
  if (AcceptKeyword("DETACH")) {
    PGT_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
    return ParseDelete(/*detach=*/true);
  }
  if (AcceptKeyword("DELETE")) return ParseDelete(false);
  if (AcceptKeyword("SET")) return ParseSetClause();
  if (AcceptKeyword("REMOVE")) return ParseRemoveClause();
  if (AcceptKeyword("FOREACH")) return ParseForeach();
  if (AcceptKeyword("CALL")) return ParseCall();
  return MakeError("expected clause, found " + TokenToString(Peek()));
}

Result<ClausePtr> Parser::ParseMatch(bool optional_match) {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kMatch;
  c->optional_match = optional_match;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_ASSIGN_OR_RETURN(c->pattern, ParsePattern());
  if (AcceptKeyword("WHERE")) {
    PGT_ASSIGN_OR_RETURN(c->where, ParseExpression());
  }
  return c;
}

Result<ClausePtr> Parser::ParseUnwind() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kUnwind;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_ASSIGN_OR_RETURN(c->unwind_expr, ParseExpression());
  PGT_RETURN_IF_ERROR(ExpectKeyword("AS"));
  PGT_ASSIGN_OR_RETURN(Token var, Expect(TokenType::kIdent, "variable"));
  c->unwind_var = var.text;
  return c;
}

Result<ClausePtr> Parser::ParseWithOrReturn(bool is_return) {
  auto c = std::make_unique<Clause>();
  c->kind = is_return ? Clause::Kind::kReturn : Clause::Kind::kWith;
  c->line = Peek().line;
  c->col = Peek().col;
  if (AcceptKeyword("DISTINCT")) c->distinct = true;
  if (Accept(TokenType::kStar)) {
    c->return_star = true;
  } else {
    while (true) {
      ProjItem item;
      PGT_ASSIGN_OR_RETURN(item.expr, ParseExpression());
      if (AcceptKeyword("AS")) {
        PGT_ASSIGN_OR_RETURN(Token a, Expect(TokenType::kIdent, "alias"));
        item.alias = a.text;
      } else {
        // Canonical textual alias; a bare variable keeps its name.
        item.alias = ExprToString(*item.expr);
      }
      c->items.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
  }
  if (AcceptKeyword("ORDER")) {
    PGT_RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      SortItem s;
      PGT_ASSIGN_OR_RETURN(s.expr, ParseExpression());
      if (AcceptKeyword("DESC") || AcceptKeyword("DESCENDING")) {
        s.ascending = false;
      } else if (AcceptKeyword("ASC") || AcceptKeyword("ASCENDING")) {
        s.ascending = true;
      }
      c->order_by.push_back(std::move(s));
      if (!Accept(TokenType::kComma)) break;
    }
  }
  if (AcceptKeyword("SKIP")) {
    PGT_ASSIGN_OR_RETURN(c->skip, ParseExpression());
  }
  if (AcceptKeyword("LIMIT")) {
    PGT_ASSIGN_OR_RETURN(c->limit, ParseExpression());
  }
  if (!is_return && AcceptKeyword("WHERE")) {
    PGT_ASSIGN_OR_RETURN(c->where, ParseExpression());
  }
  return c;
}

Result<ClausePtr> Parser::ParseCreate() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kCreate;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_ASSIGN_OR_RETURN(c->pattern, ParsePattern());
  return c;
}

Result<ClausePtr> Parser::ParseMerge() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kMerge;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_ASSIGN_OR_RETURN(PatternPart part, ParsePatternPart());
  c->pattern.parts.push_back(std::move(part));
  while (PeekKeyword("ON")) {
    ++pos_;
    const bool on_create = AcceptKeyword("CREATE");
    if (!on_create) {
      PGT_RETURN_IF_ERROR(ExpectKeyword("MATCH"));
    }
    PGT_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      PGT_ASSIGN_OR_RETURN(SetItem item, ParseSetItem());
      (on_create ? c->on_create : c->on_match).push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
  }
  return c;
}

Result<ClausePtr> Parser::ParseDelete(bool detach) {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kDelete;
  c->detach = detach;
  c->line = Peek().line;
  c->col = Peek().col;
  while (true) {
    PGT_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression());
    c->delete_exprs.push_back(std::move(e));
    if (!Accept(TokenType::kComma)) break;
  }
  return c;
}

Result<SetItem> Parser::ParseSetItem() {
  SetItem item;
  // Map-merge form: IDENT '+=' map-or-expression.
  if (Peek().type == TokenType::kIdent &&
      Peek(1).type == TokenType::kPlusEq) {
    item.kind = SetItem::Kind::kMergeMap;
    item.var = Peek().text;
    pos_ += 2;
    PGT_ASSIGN_OR_RETURN(item.value, ParseExpression());
    return item;
  }
  // Label form: IDENT (':' label)+
  if (Peek().type == TokenType::kIdent &&
      Peek(1).type == TokenType::kColon) {
    item.kind = SetItem::Kind::kLabels;
    item.var = Peek().text;
    ++pos_;
    while (Accept(TokenType::kColon)) {
      PGT_ASSIGN_OR_RETURN(std::string label, ParseNameOrString("label"));
      item.labels.push_back(std::move(label));
    }
    return item;
  }
  // Property form: postfix '.' key '=' expr (label tests disabled).
  allow_label_test_ = false;
  auto target = ParsePostfix();
  allow_label_test_ = true;
  if (!target.ok()) return target.status();
  ExprPtr t = std::move(target).value();
  if (t->kind != Expr::Kind::kProp) {
    return MakeError("SET target must be item.property or variable:Label");
  }
  item.kind = SetItem::Kind::kProperty;
  item.prop = t->name;
  item.target = std::move(t->a);
  PGT_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='").status());
  PGT_ASSIGN_OR_RETURN(item.value, ParseExpression());
  return item;
}

Result<ClausePtr> Parser::ParseSetClause() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kSet;
  c->line = Peek().line;
  c->col = Peek().col;
  while (true) {
    PGT_ASSIGN_OR_RETURN(SetItem item, ParseSetItem());
    c->set_items.push_back(std::move(item));
    if (!Accept(TokenType::kComma)) break;
  }
  return c;
}

Result<RemoveItem> Parser::ParseRemoveItem() {
  RemoveItem item;
  if (Peek().type == TokenType::kIdent &&
      Peek(1).type == TokenType::kColon) {
    item.kind = RemoveItem::Kind::kLabels;
    item.var = Peek().text;
    ++pos_;
    while (Accept(TokenType::kColon)) {
      PGT_ASSIGN_OR_RETURN(std::string label, ParseNameOrString("label"));
      item.labels.push_back(std::move(label));
    }
    return item;
  }
  allow_label_test_ = false;
  auto target = ParsePostfix();
  allow_label_test_ = true;
  if (!target.ok()) return target.status();
  ExprPtr t = std::move(target).value();
  if (t->kind != Expr::Kind::kProp) {
    return MakeError("REMOVE target must be item.property or variable:Label");
  }
  item.kind = RemoveItem::Kind::kProperty;
  item.prop = t->name;
  item.target = std::move(t->a);
  return item;
}

Result<ClausePtr> Parser::ParseRemoveClause() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kRemove;
  c->line = Peek().line;
  c->col = Peek().col;
  while (true) {
    PGT_ASSIGN_OR_RETURN(RemoveItem item, ParseRemoveItem());
    c->remove_items.push_back(std::move(item));
    if (!Accept(TokenType::kComma)) break;
  }
  return c;
}

Result<ClausePtr> Parser::ParseForeach() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kForeach;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());
  PGT_ASSIGN_OR_RETURN(Token var, Expect(TokenType::kIdent, "variable"));
  c->foreach_var = var.text;
  PGT_RETURN_IF_ERROR(ExpectKeyword("IN"));
  PGT_ASSIGN_OR_RETURN(c->foreach_list, ParseExpression());
  PGT_RETURN_IF_ERROR(Expect(TokenType::kPipe, "'|'").status());
  DepthScope scope(this);
  PGT_RETURN_IF_ERROR(Deeper());
  while (Peek().type == TokenType::kIdent &&
         kUpdateClauseKeywords.count(ToUpper(Peek().text)) > 0) {
    PGT_ASSIGN_OR_RETURN(ClausePtr body, ParseClause());
    c->foreach_body.push_back(std::move(body));
  }
  if (c->foreach_body.empty()) {
    return MakeError("FOREACH requires at least one update clause");
  }
  PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
  return c;
}

Result<ClausePtr> Parser::ParseCall() {
  auto c = std::make_unique<Clause>();
  c->kind = Clause::Kind::kCall;
  c->line = Peek().line;
  c->col = Peek().col;
  PGT_ASSIGN_OR_RETURN(Token first, Expect(TokenType::kIdent, "procedure"));
  c->call_proc = first.text;
  while (Accept(TokenType::kDot)) {
    PGT_ASSIGN_OR_RETURN(Token seg, Expect(TokenType::kIdent, "name"));
    c->call_proc += "." + seg.text;
  }
  PGT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());
  if (!Accept(TokenType::kRParen)) {
    while (true) {
      PGT_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
      c->call_args.push_back(std::move(arg));
      if (!Accept(TokenType::kComma)) break;
    }
    PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
  }
  if (AcceptKeyword("YIELD")) {
    while (true) {
      PGT_ASSIGN_OR_RETURN(Token col, Expect(TokenType::kIdent, "column"));
      c->call_yield.push_back(col.text);
      if (!Accept(TokenType::kComma)) break;
    }
  }
  return c;
}

// --- Pattern parsing -----------------------------------------------------------

Result<Pattern> Parser::ParsePattern() {
  Pattern p;
  while (true) {
    PGT_ASSIGN_OR_RETURN(PatternPart part, ParsePatternPart());
    p.parts.push_back(std::move(part));
    if (!Accept(TokenType::kComma)) break;
    // Tolerate the paper's informal "MATCH (a), MATCH (b)" style by
    // allowing a redundant MATCH keyword after the comma.
    AcceptKeyword("MATCH");
  }
  return p;
}

Result<PatternPart> Parser::ParsePatternPart() {
  PatternPart part;
  PGT_ASSIGN_OR_RETURN(part.first, ParseNodePattern());
  while (Peek().type == TokenType::kMinus || Peek().type == TokenType::kLt) {
    // Lookahead: '<' must be followed by '-' to be a pattern arrow.
    if (Peek().type == TokenType::kLt &&
        Peek(1).type != TokenType::kMinus) {
      break;
    }
    PGT_ASSIGN_OR_RETURN(RelPattern rel, ParseRelPattern());
    PGT_ASSIGN_OR_RETURN(NodePattern node, ParseNodePattern());
    part.chain.emplace_back(std::move(rel), std::move(node));
  }
  return part;
}

Result<NodePattern> Parser::ParseNodePattern() {
  NodePattern n;
  n.line = Peek().line;
  n.col = Peek().col;
  PGT_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('").status());
  if (Peek().type == TokenType::kIdent &&
      (Peek(1).type == TokenType::kColon ||
       Peek(1).type == TokenType::kRParen ||
       Peek(1).type == TokenType::kLBrace)) {
    n.var = Peek().text;
    ++pos_;
  }
  while (Accept(TokenType::kColon)) {
    PGT_ASSIGN_OR_RETURN(std::string label, ParseNameOrString("label"));
    n.labels.push_back(std::move(label));
  }
  if (Peek().type == TokenType::kLBrace) {
    PGT_ASSIGN_OR_RETURN(n.props, ParsePropMap());
  }
  PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
  return n;
}

Result<RelPattern> Parser::ParseRelPattern() {
  RelPattern r;
  r.line = Peek().line;
  r.col = Peek().col;
  bool left = false;
  if (Accept(TokenType::kLt)) {
    left = true;
    PGT_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-'").status());
  } else {
    PGT_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-'").status());
  }
  if (Accept(TokenType::kLBracket)) {
    if (Peek().type == TokenType::kIdent &&
        (Peek(1).type == TokenType::kColon ||
         Peek(1).type == TokenType::kRBracket ||
         Peek(1).type == TokenType::kLBrace ||
         Peek(1).type == TokenType::kStar)) {
      r.var = Peek().text;
      ++pos_;
    }
    if (Accept(TokenType::kColon)) {
      while (true) {
        PGT_ASSIGN_OR_RETURN(std::string type,
                             ParseNameOrString("relationship type"));
        r.types.push_back(std::move(type));
        if (!Accept(TokenType::kPipe)) break;
        Accept(TokenType::kColon);  // tolerate the [:A|:B] variant
      }
    }
    if (Accept(TokenType::kStar)) {
      r.var_length = true;
      r.min_hops = 1;
      r.max_hops = kMaxHopsUnbounded;
      if (Peek().type == TokenType::kInt) {
        r.min_hops = Peek().int_value;
        r.max_hops = r.min_hops;  // single bound: *n means exactly n
        ++pos_;
        if (Accept(TokenType::kDotDot)) {
          r.max_hops = kMaxHopsUnbounded;
          if (Peek().type == TokenType::kInt) {
            r.max_hops = Peek().int_value;
            ++pos_;
          }
        }
      } else if (Accept(TokenType::kDotDot)) {
        if (Peek().type == TokenType::kInt) {
          r.max_hops = Peek().int_value;
          ++pos_;
        }
      }
    }
    if (Peek().type == TokenType::kLBrace) {
      PGT_ASSIGN_OR_RETURN(r.props, ParsePropMap());
    }
    PGT_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'").status());
  }
  PGT_RETURN_IF_ERROR(Expect(TokenType::kMinus, "'-'").status());
  bool right = false;
  if (Peek().type == TokenType::kGt) {
    right = true;
    ++pos_;
  }
  if (left && right) {
    return MakeError("relationship pattern cannot point both ways");
  }
  r.direction = left ? PatternDirection::kRightToLeft
               : right ? PatternDirection::kLeftToRight
                       : PatternDirection::kUndirected;
  return r;
}

Result<std::vector<std::pair<std::string, ExprPtr>>> Parser::ParsePropMap() {
  std::vector<std::pair<std::string, ExprPtr>> props;
  PGT_RETURN_IF_ERROR(Expect(TokenType::kLBrace, "'{'").status());
  if (Accept(TokenType::kRBrace)) return props;
  while (true) {
    PGT_ASSIGN_OR_RETURN(std::string key, ParseNameOrString("property key"));
    PGT_RETURN_IF_ERROR(Expect(TokenType::kColon, "':'").status());
    PGT_ASSIGN_OR_RETURN(ExprPtr value, ParseExpression());
    props.emplace_back(std::move(key), std::move(value));
    if (!Accept(TokenType::kComma)) break;
  }
  PGT_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'").status());
  return props;
}

// --- Expression parsing ---------------------------------------------------------

Result<ExprPtr> Parser::ParseExpression() {
  DepthScope scope(this);
  PGT_RETURN_IF_ERROR(Deeper());
  return ParseOr();
}

Result<ExprPtr> Parser::ParseOr() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseXor());
  while (PeekKeyword("OR")) {
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParseXor());
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = BinOp::kOr;
    e->a = std::move(left);
    e->b = std::move(right);
    left = std::move(e);
  }
  return left;
}

Result<ExprPtr> Parser::ParseXor() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (PeekKeyword("XOR")) {
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = BinOp::kXor;
    e->a = std::move(left);
    e->b = std::move(right);
    left = std::move(e);
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (PeekKeyword("AND")) {
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = BinOp::kAnd;
    e->a = std::move(left);
    e->b = std::move(right);
    left = std::move(e);
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (PeekKeyword("NOT")) {
    ++pos_;
    DepthScope scope(this);
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
    auto e = NewExpr(Expr::Kind::kUnary);
    e->un_op = UnOp::kNot;
    e->a = std::move(inner);
    return e;
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseAddSub());
  ExprPtr combined;
  ExprPtr prev = std::move(left);
  while (true) {
    BinOp op;
    const TokenType tt = Peek().type;
    if (tt == TokenType::kEq) {
      op = BinOp::kEq;
      ++pos_;
    } else if (tt == TokenType::kNeq) {
      op = BinOp::kNe;
      ++pos_;
    } else if (tt == TokenType::kLt) {
      op = BinOp::kLt;
      ++pos_;
    } else if (tt == TokenType::kLe) {
      op = BinOp::kLe;
      ++pos_;
    } else if (tt == TokenType::kGt) {
      op = BinOp::kGt;
      ++pos_;
    } else if (tt == TokenType::kGe) {
      op = BinOp::kGe;
      ++pos_;
    } else if (PeekKeyword("IN")) {
      op = BinOp::kIn;
      ++pos_;
    } else if (PeekKeyword("STARTS")) {
      ++pos_;
      PGT_RETURN_IF_ERROR(ExpectKeyword("WITH"));
      op = BinOp::kStartsWith;
    } else if (PeekKeyword("ENDS")) {
      ++pos_;
      PGT_RETURN_IF_ERROR(ExpectKeyword("WITH"));
      op = BinOp::kEndsWith;
    } else if (PeekKeyword("CONTAINS")) {
      op = BinOp::kContains;
      ++pos_;
    } else if (PeekKeyword("IS")) {
      ++pos_;
      const bool negated = AcceptKeyword("NOT");
      PGT_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      PGT_RETURN_IF_ERROR(Deeper());
      auto e = NewExpr(Expr::Kind::kUnary);
      e->un_op = negated ? UnOp::kIsNotNull : UnOp::kIsNull;
      e->a = std::move(prev);
      prev = std::move(e);
      continue;
    } else {
      break;
    }
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParseAddSub());
    // Build this comparison; chains (a < b < c) AND-fold.
    auto cmp = NewExpr(Expr::Kind::kBinary);
    cmp->bin_op = op;
    cmp->a = CloneExpr(*prev);
    cmp->b = CloneExpr(*right);
    if (combined) {
      auto land = NewExpr(Expr::Kind::kBinary);
      land->bin_op = BinOp::kAnd;
      land->a = std::move(combined);
      land->b = std::move(cmp);
      combined = std::move(land);
    } else {
      combined = std::move(cmp);
    }
    prev = std::move(right);
  }
  if (combined) return combined;
  return prev;
}

Result<ExprPtr> Parser::ParseAddSub() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseMulDiv());
  while (Peek().type == TokenType::kPlus ||
         Peek().type == TokenType::kMinus) {
    const BinOp op =
        Peek().type == TokenType::kPlus ? BinOp::kAdd : BinOp::kSub;
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParseMulDiv());
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = op;
    e->a = std::move(left);
    e->b = std::move(right);
    left = std::move(e);
  }
  return left;
}

Result<ExprPtr> Parser::ParseMulDiv() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParsePower());
  while (Peek().type == TokenType::kStar ||
         Peek().type == TokenType::kSlash ||
         Peek().type == TokenType::kPercent) {
    BinOp op = BinOp::kMul;
    if (Peek().type == TokenType::kSlash) op = BinOp::kDiv;
    if (Peek().type == TokenType::kPercent) op = BinOp::kMod;
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = op;
    e->a = std::move(left);
    e->b = std::move(right);
    left = std::move(e);
  }
  return left;
}

Result<ExprPtr> Parser::ParsePower() {
  PGT_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  if (Peek().type == TokenType::kCaret) {
    ++pos_;
    DepthScope scope(this);
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());  // right-assoc
    auto e = NewExpr(Expr::Kind::kBinary);
    e->bin_op = BinOp::kPow;
    e->a = std::move(left);
    e->b = std::move(right);
    return e;
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  DepthScope scope(this);
  if (Peek().type == TokenType::kMinus) {
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    PGT_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    auto e = NewExpr(Expr::Kind::kUnary);
    e->un_op = UnOp::kNeg;
    e->a = std::move(inner);
    return e;
  }
  if (Peek().type == TokenType::kPlus) {
    ++pos_;
    PGT_RETURN_IF_ERROR(Deeper());
    return ParseUnary();
  }
  return ParsePostfix();
}

Result<ExprPtr> Parser::ParsePostfix() {
  DepthScope scope(this);
  PGT_ASSIGN_OR_RETURN(ExprPtr base, ParseAtom());
  while (true) {
    if (Peek().type == TokenType::kDot &&
        Peek(1).type == TokenType::kIdent) {
      PGT_RETURN_IF_ERROR(Deeper());
      ++pos_;
      auto e = NewExpr(Expr::Kind::kProp);
      e->name = Peek().text;
      ++pos_;
      e->a = std::move(base);
      base = std::move(e);
      continue;
    }
    // ON 'Lineage'.'whoDesignation' style: quoted property key.
    if (Peek().type == TokenType::kDot &&
        Peek(1).type == TokenType::kString) {
      PGT_RETURN_IF_ERROR(Deeper());
      ++pos_;
      auto e = NewExpr(Expr::Kind::kProp);
      e->name = Peek().text;
      ++pos_;
      e->a = std::move(base);
      base = std::move(e);
      continue;
    }
    if (Peek().type == TokenType::kLBracket) {
      PGT_RETURN_IF_ERROR(Deeper());
      ++pos_;
      PGT_ASSIGN_OR_RETURN(ExprPtr idx, ParseExpression());
      PGT_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'").status());
      auto e = NewExpr(Expr::Kind::kIndex);
      e->a = std::move(base);
      e->b = std::move(idx);
      base = std::move(e);
      continue;
    }
    if (allow_label_test_ && Peek().type == TokenType::kColon &&
        (Peek(1).type == TokenType::kIdent ||
         Peek(1).type == TokenType::kString)) {
      PGT_RETURN_IF_ERROR(Deeper());
      auto e = NewExpr(Expr::Kind::kLabelTest);
      e->a = std::move(base);
      while (Peek().type == TokenType::kColon &&
             (Peek(1).type == TokenType::kIdent ||
              Peek(1).type == TokenType::kString)) {
        ++pos_;
        e->labels.push_back(Peek().text);
        ++pos_;
      }
      base = std::move(e);
      continue;
    }
    break;
  }
  return base;
}

Result<ExprPtr> Parser::ParseCase() {
  auto e = NewExpr(Expr::Kind::kCase);
  if (!PeekKeyword("WHEN")) {
    PGT_ASSIGN_OR_RETURN(e->a, ParseExpression());
  }
  while (AcceptKeyword("WHEN")) {
    PGT_ASSIGN_OR_RETURN(ExprPtr w, ParseExpression());
    PGT_RETURN_IF_ERROR(ExpectKeyword("THEN"));
    PGT_ASSIGN_OR_RETURN(ExprPtr t, ParseExpression());
    e->whens.emplace_back(std::move(w), std::move(t));
  }
  if (e->whens.empty()) {
    return MakeError("CASE requires at least one WHEN branch");
  }
  if (AcceptKeyword("ELSE")) {
    PGT_ASSIGN_OR_RETURN(e->c, ParseExpression());
  }
  PGT_RETURN_IF_ERROR(ExpectKeyword("END"));
  return e;
}

Result<ExprPtr> Parser::ParseExists() {
  // EXISTS { [MATCH] pattern [WHERE expr] }
  if (Accept(TokenType::kLBrace)) {
    AcceptKeyword("MATCH");
    auto e = NewExpr(Expr::Kind::kExists);
    PGT_ASSIGN_OR_RETURN(Pattern p, ParsePattern());
    e->pattern = std::make_unique<Pattern>(std::move(p));
    if (AcceptKeyword("WHERE")) {
      PGT_ASSIGN_OR_RETURN(e->pattern_where, ParseExpression());
    }
    PGT_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'").status());
    return e;
  }
  // EXISTS (pattern)  or the legacy  EXISTS(expr)  property form.
  if (Peek().type == TokenType::kLParen) {
    const size_t save = pos_;
    auto part = ParsePatternPart();
    if (part.ok() &&
        (!part.value().chain.empty() || !part.value().first.labels.empty() ||
         !part.value().first.props.empty())) {
      auto e = NewExpr(Expr::Kind::kExists);
      Pattern p;
      p.parts.push_back(std::move(part).value());
      e->pattern = std::make_unique<Pattern>(std::move(p));
      return e;
    }
    pos_ = save;
    ++pos_;  // consume '('
    PGT_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
    PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
    auto e = NewExpr(Expr::Kind::kFunc);
    e->name = "exists";
    e->args.push_back(std::move(inner));
    return e;
  }
  return MakeError("expected '{' or '(' after EXISTS");
}

Result<ExprPtr> Parser::ParseAtom() {
  const Token& t = Peek();
  switch (t.type) {
    case TokenType::kString: {
      auto e = NewExpr(Expr::Kind::kLiteral);
      e->value = Value::String(t.text);
      ++pos_;
      return e;
    }
    case TokenType::kInt: {
      auto e = NewExpr(Expr::Kind::kLiteral);
      e->value = Value::Int(t.int_value);
      ++pos_;
      return e;
    }
    case TokenType::kFloat: {
      auto e = NewExpr(Expr::Kind::kLiteral);
      e->value = Value::Double(t.float_value);
      ++pos_;
      return e;
    }
    case TokenType::kParam: {
      auto e = NewExpr(Expr::Kind::kParam);
      e->name = t.text;
      ++pos_;
      return e;
    }
    case TokenType::kLBracket: {
      // List comprehension: [x IN list WHERE pred | proj].
      if (Peek(1).type == TokenType::kIdent &&
          Peek(2).type == TokenType::kIdent &&
          EqualsIgnoreCase(Peek(2).text, "IN")) {
        auto e = NewExpr(Expr::Kind::kListComp);
        ++pos_;  // '['
        e->name = Peek().text;
        pos_ += 2;  // var, IN
        PGT_ASSIGN_OR_RETURN(e->a, ParseExpression());
        if (AcceptKeyword("WHERE")) {
          PGT_ASSIGN_OR_RETURN(e->b, ParseExpression());
        }
        if (Accept(TokenType::kPipe)) {
          PGT_ASSIGN_OR_RETURN(e->c, ParseExpression());
        }
        PGT_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'").status());
        return e;
      }
      auto e = NewExpr(Expr::Kind::kList);
      ++pos_;
      if (!Accept(TokenType::kRBracket)) {
        while (true) {
          PGT_ASSIGN_OR_RETURN(ExprPtr item, ParseExpression());
          e->args.push_back(std::move(item));
          if (!Accept(TokenType::kComma)) break;
        }
        PGT_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'").status());
      }
      return e;
    }
    case TokenType::kLBrace: {
      auto e = NewExpr(Expr::Kind::kMap);
      PGT_ASSIGN_OR_RETURN(e->map_entries, ParsePropMap());
      return e;
    }
    case TokenType::kLParen: {
      // Pattern predicate vs parenthesized expression: attempt a pattern
      // part first; accept it only when it looks like a real pattern.
      const size_t save = pos_;
      {
        auto part = ParsePatternPart();
        if (part.ok() && !part.value().chain.empty()) {
          auto e = NewExpr(Expr::Kind::kExists);
          Pattern p;
          p.parts.push_back(std::move(part).value());
          e->pattern = std::make_unique<Pattern>(std::move(p));
          return e;
        }
      }
      pos_ = save;
      ++pos_;  // consume '('
      PGT_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpression());
      PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
      return inner;
    }
    case TokenType::kIdent: {
      if (EqualsIgnoreCase(t.text, "TRUE")) {
        auto e = NewExpr(Expr::Kind::kLiteral);
        e->value = Value::Bool(true);
        ++pos_;
        return e;
      }
      if (EqualsIgnoreCase(t.text, "FALSE")) {
        auto e = NewExpr(Expr::Kind::kLiteral);
        e->value = Value::Bool(false);
        ++pos_;
        return e;
      }
      if (EqualsIgnoreCase(t.text, "NULL")) {
        auto e = NewExpr(Expr::Kind::kLiteral);
        ++pos_;
        return e;
      }
      if (EqualsIgnoreCase(t.text, "CASE")) {
        ++pos_;
        return ParseCase();
      }
      if (EqualsIgnoreCase(t.text, "EXISTS")) {
        ++pos_;
        return ParseExists();
      }
      // COUNT(*)
      if (EqualsIgnoreCase(t.text, "COUNT") &&
          Peek(1).type == TokenType::kLParen &&
          Peek(2).type == TokenType::kStar) {
        auto e = NewExpr(Expr::Kind::kCountStar);
        pos_ += 3;
        PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
        return e;
      }
      // Function call (allowing dotted names like apoc.coll.max).
      size_t look = 1;
      while (Peek(static_cast<int>(look)).type == TokenType::kDot &&
             Peek(static_cast<int>(look + 1)).type == TokenType::kIdent) {
        look += 2;
      }
      if (Peek(static_cast<int>(look)).type == TokenType::kLParen &&
          look >= 1) {
        // Only treat dotted chains as function names when followed by '('.
        auto e = NewExpr(Expr::Kind::kFunc);
        e->name = Peek().text;
        ++pos_;
        while (Peek().type == TokenType::kDot) {
          ++pos_;
          e->name += "." + Peek().text;
          ++pos_;
        }
        ++pos_;  // '('
        if (!Accept(TokenType::kRParen)) {
          if (AcceptKeyword("DISTINCT")) e->distinct = true;
          while (true) {
            PGT_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpression());
            e->args.push_back(std::move(arg));
            if (!Accept(TokenType::kComma)) break;
          }
          PGT_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'").status());
        }
        return e;
      }
      // Plain variable.
      auto e = NewExpr(Expr::Kind::kVar);
      e->name = t.text;
      ++pos_;
      return e;
    }
    default:
      return MakeError("expected expression, found " + TokenToString(t));
  }
}

}  // namespace pgt::cypher
