#ifndef PGTRIGGERS_CYPHER_PARSER_H_
#define PGTRIGGERS_CYPHER_PARSER_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/cypher/ast.h"
#include "src/cypher/token.h"

namespace pgt::cypher {

/// Recursive-descent parser for the Cypher subset.
///
/// The parser is also used as a component by the PG-Trigger DDL parser
/// (src/trigger/trigger_parser.cc), which drives it over a shared token
/// stream: trigger WHEN conditions and BEGIN...END statements are plain
/// Cypher fragments.
class Parser {
 public:
  /// Deepest nesting a statement may have (see Deeper()). The parser, the
  /// plan compiler, and the plan executor all recurse over the AST, so this
  /// one bound keeps every one of them within the stack, sanitizer builds
  /// and reader threads included.
  static constexpr int kMaxNestingDepth = 256;

  /// Parses a complete standalone query (must consume all input;
  /// a single trailing semicolon is allowed).
  static Result<Query> ParseQuery(std::string_view text);

  /// Parses a standalone expression (must consume all input).
  static Result<ExprPtr> ParseExpressionText(std::string_view text);

  // --- Token-stream interface (used by the trigger DDL parser) -------------

  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  /// Parses clauses until end-of-input, a semicolon, or one of
  /// `stop_keywords` (case-insensitive identifier) is reached. The stopping
  /// token is not consumed.
  Result<Query> ParseClauses(const std::set<std::string>& stop_keywords);

  /// Parses one expression starting at the current position.
  Result<ExprPtr> ParseExpression();

  /// Current token (kEnd at end of stream).
  const Token& Peek(int ahead = 0) const;

  /// True if the current token is the given keyword (case-insensitive).
  bool PeekKeyword(std::string_view kw) const;

  /// Consumes the current token if it is the given keyword.
  bool AcceptKeyword(std::string_view kw);

  /// Consumes the expected keyword or returns SyntaxError.
  Status ExpectKeyword(std::string_view kw);

  /// Consumes the current token if it has the given type.
  bool Accept(TokenType t);

  /// Consumes a token of the expected type or returns SyntaxError.
  Result<Token> Expect(TokenType t, std::string_view what);

  /// True at end of stream.
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  /// Parses an identifier-or-string (labels in the trigger ON clause are
  /// quoted in the paper: ON 'Mutation').
  Result<std::string> ParseNameOrString(std::string_view what);

  Status MakeError(const std::string& msg) const;

 private:
  // Clauses.
  Result<ClausePtr> ParseClause();
  Result<ClausePtr> ParseMatch(bool optional_match);
  Result<ClausePtr> ParseUnwind();
  Result<ClausePtr> ParseWithOrReturn(bool is_return);
  Result<ClausePtr> ParseCreate();
  Result<ClausePtr> ParseMerge();
  Result<ClausePtr> ParseDelete(bool detach);
  Result<ClausePtr> ParseSetClause();
  Result<ClausePtr> ParseRemoveClause();
  Result<ClausePtr> ParseForeach();
  Result<ClausePtr> ParseCall();
  Result<SetItem> ParseSetItem();
  Result<RemoveItem> ParseRemoveItem();

  // Patterns.
  Result<Pattern> ParsePattern();
  Result<PatternPart> ParsePatternPart();
  Result<NodePattern> ParseNodePattern();
  Result<RelPattern> ParseRelPattern();
  Result<std::vector<std::pair<std::string, ExprPtr>>> ParsePropMap();

  // Expressions (precedence climbing).
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseXor();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAddSub();
  Result<ExprPtr> ParseMulDiv();
  Result<ExprPtr> ParsePower();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePostfix();
  Result<ExprPtr> ParseAtom();
  Result<ExprPtr> ParseCase();
  Result<ExprPtr> ParseExists();

  bool IsClauseKeyword() const;

  ExprPtr NewExpr(Expr::Kind k) const;

  /// Restores the nesting depth when a parse function returns.
  class DepthScope {
   public:
    explicit DepthScope(Parser* p) : p_(p), saved_(p->depth_) {}
    ~DepthScope() { p_->depth_ = saved_; }
    DepthScope(const DepthScope&) = delete;
    DepthScope& operator=(const DepthScope&) = delete;

   private:
    Parser* p_;
    int saved_;
  };
  /// Counts one more level of nesting on the current parse path: a nested
  /// expression or FOREACH, or one more link of an operator, NOT/negation,
  /// or property/index chain (each adds a level to the AST). Fails with
  /// InvalidArgument beyond kMaxNestingDepth.
  Status Deeper();

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;
  // `SET n:Label` must not lex the target as a label-test expression.
  bool allow_label_test_ = true;
};

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_PARSER_H_
