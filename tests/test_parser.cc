// Tests for the Cypher parser: clause structure, patterns, expressions,
// unparse round-trips, and error reporting.

#include "src/cypher/parser.h"

#include <gtest/gtest.h>

namespace pgt::cypher {
namespace {

Query Parse(const std::string& text) {
  auto r = Parser::ParseQuery(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status();
  return std::move(r).value();
}

ExprPtr ParseExpr(const std::string& text) {
  auto r = Parser::ParseExpressionText(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status();
  return std::move(r).value();
}

TEST(ParserTest, SimpleMatchReturn) {
  Query q = Parse("MATCH (n:Person) RETURN n");
  ASSERT_EQ(q.clauses.size(), 2u);
  EXPECT_EQ(q.clauses[0]->kind, Clause::Kind::kMatch);
  EXPECT_EQ(q.clauses[1]->kind, Clause::Kind::kReturn);
  const NodePattern& np = q.clauses[0]->pattern.parts[0].first;
  EXPECT_EQ(np.var, "n");
  ASSERT_EQ(np.labels.size(), 1u);
  EXPECT_EQ(np.labels[0], "Person");
}

TEST(ParserTest, MultiLabelAndProps) {
  Query q = Parse("MATCH (p:A:B {x: 1, y: 'z'}) RETURN p");
  const NodePattern& np = q.clauses[0]->pattern.parts[0].first;
  EXPECT_EQ(np.labels.size(), 2u);
  EXPECT_EQ(np.props.size(), 2u);
  EXPECT_EQ(np.props[0].first, "x");
}

TEST(ParserTest, RelationshipDirections) {
  Query q = Parse("MATCH (a)-[r:R]->(b)<-[:S]-(c)--(d) RETURN a");
  const auto& chain = q.clauses[0]->pattern.parts[0].chain;
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].first.direction, PatternDirection::kLeftToRight);
  EXPECT_EQ(chain[0].first.var, "r");
  EXPECT_EQ(chain[1].first.direction, PatternDirection::kRightToLeft);
  EXPECT_EQ(chain[2].first.direction, PatternDirection::kUndirected);
  EXPECT_TRUE(chain[2].first.types.empty());
}

TEST(ParserTest, RelationshipTypeAlternatives) {
  Query q = Parse("MATCH (a)-[r:R1|R2|R3]-(b) RETURN r");
  EXPECT_EQ(q.clauses[0]->pattern.parts[0].chain[0].first.types.size(), 3u);
}

TEST(ParserTest, VariableLengthForms) {
  Query q = Parse("MATCH (a)-[:R*]->(b), (c)-[:R*2]->(d), (e)-[:R*1..3]->(f),"
                  " (g)-[:R*..4]->(h) RETURN a");
  const Pattern& p = q.clauses[0]->pattern;
  ASSERT_EQ(p.parts.size(), 4u);
  const RelPattern& any = p.parts[0].chain[0].first;
  EXPECT_TRUE(any.var_length);
  EXPECT_EQ(any.min_hops, 1);
  EXPECT_EQ(any.max_hops, kMaxHopsUnbounded);
  const RelPattern& exact = p.parts[1].chain[0].first;
  EXPECT_EQ(exact.min_hops, 2);
  EXPECT_EQ(exact.max_hops, 2);
  const RelPattern& range = p.parts[2].chain[0].first;
  EXPECT_EQ(range.min_hops, 1);
  EXPECT_EQ(range.max_hops, 3);
  const RelPattern& capped = p.parts[3].chain[0].first;
  EXPECT_EQ(capped.min_hops, 1);
  EXPECT_EQ(capped.max_hops, 4);
}

TEST(ParserTest, WhereAttachesToMatch) {
  Query q = Parse("MATCH (n) WHERE n.age > 18 RETURN n");
  EXPECT_NE(q.clauses[0]->where, nullptr);
}

TEST(ParserTest, OptionalMatch) {
  Query q = Parse("OPTIONAL MATCH (n:A) RETURN n");
  EXPECT_TRUE(q.clauses[0]->optional_match);
}

TEST(ParserTest, WithAggregationOrderSkipLimitWhere) {
  Query q = Parse(
      "MATCH (n) WITH n.dept AS dept, COUNT(*) AS c "
      "ORDER BY c DESC SKIP 1 LIMIT 5 WHERE c > 2 RETURN dept");
  const Clause& with = *q.clauses[1];
  EXPECT_EQ(with.kind, Clause::Kind::kWith);
  ASSERT_EQ(with.items.size(), 2u);
  EXPECT_EQ(with.items[0].alias, "dept");
  ASSERT_EQ(with.order_by.size(), 1u);
  EXPECT_FALSE(with.order_by[0].ascending);
  EXPECT_NE(with.skip, nullptr);
  EXPECT_NE(with.limit, nullptr);
  EXPECT_NE(with.where, nullptr);
}

TEST(ParserTest, ReturnStarAndDistinct) {
  EXPECT_TRUE(Parse("MATCH (n) RETURN *").clauses[1]->return_star);
  EXPECT_TRUE(Parse("MATCH (n) RETURN DISTINCT n").clauses[1]->distinct);
}

TEST(ParserTest, DefaultAliasIsExpressionText) {
  Query q = Parse("MATCH (n) RETURN n.age");
  EXPECT_EQ(q.clauses[1]->items[0].alias, "n.age");
}

TEST(ParserTest, CreateMergeDeleteSetRemove) {
  Query q = Parse(
      "MATCH (a:A), (b:B) "
      "CREATE (a)-[:R {w: 1}]->(b) "
      "MERGE (c:C {k: 1}) ON CREATE SET c.fresh = true ON MATCH SET "
      "c.seen = true "
      "SET a.x = 1, b:Extra "
      "REMOVE a.x, b:Extra "
      "DETACH DELETE a, b");
  ASSERT_EQ(q.clauses.size(), 6u);
  EXPECT_EQ(q.clauses[1]->kind, Clause::Kind::kCreate);
  const Clause& merge = *q.clauses[2];
  EXPECT_EQ(merge.kind, Clause::Kind::kMerge);
  EXPECT_EQ(merge.on_create.size(), 1u);
  EXPECT_EQ(merge.on_match.size(), 1u);
  const Clause& set = *q.clauses[3];
  ASSERT_EQ(set.set_items.size(), 2u);
  EXPECT_EQ(set.set_items[0].kind, SetItem::Kind::kProperty);
  EXPECT_EQ(set.set_items[1].kind, SetItem::Kind::kLabels);
  const Clause& rem = *q.clauses[4];
  ASSERT_EQ(rem.remove_items.size(), 2u);
  EXPECT_EQ(rem.remove_items[0].kind, RemoveItem::Kind::kProperty);
  EXPECT_EQ(rem.remove_items[1].kind, RemoveItem::Kind::kLabels);
  EXPECT_TRUE(q.clauses[5]->detach);
}

TEST(ParserTest, UnwindAndForeach) {
  Query q = Parse(
      "UNWIND [1, 2, 3] AS x "
      "FOREACH (y IN [x] | CREATE (:N {v: y}) SET y.seen = true)");
  EXPECT_EQ(q.clauses[0]->kind, Clause::Kind::kUnwind);
  EXPECT_EQ(q.clauses[0]->unwind_var, "x");
  const Clause& fe = *q.clauses[1];
  EXPECT_EQ(fe.kind, Clause::Kind::kForeach);
  EXPECT_EQ(fe.foreach_var, "y");
  EXPECT_EQ(fe.foreach_body.size(), 2u);
}

TEST(ParserTest, CallWithYield) {
  Query q = Parse(
      "CALL apoc.do.when(true, 'RETURN 1', '', {x: 1}) YIELD value "
      "RETURN *");
  const Clause& call = *q.clauses[0];
  EXPECT_EQ(call.kind, Clause::Kind::kCall);
  EXPECT_EQ(call.call_proc, "apoc.do.when");
  EXPECT_EQ(call.call_args.size(), 4u);
  ASSERT_EQ(call.call_yield.size(), 1u);
  EXPECT_EQ(call.call_yield[0], "value");
}

TEST(ParserTest, OperatorPrecedence) {
  ExprPtr e = ParseExpr("1 + 2 * 3 = 7 AND NOT false");
  EXPECT_EQ(e->kind, Expr::Kind::kBinary);
  EXPECT_EQ(e->bin_op, BinOp::kAnd);
  const Expr& cmp = *e->a;
  EXPECT_EQ(cmp.bin_op, BinOp::kEq);
  const Expr& add = *cmp.a;
  EXPECT_EQ(add.bin_op, BinOp::kAdd);
  EXPECT_EQ(add.b->bin_op, BinOp::kMul);
}

TEST(ParserTest, ComparisonChainsFoldToAnd) {
  ExprPtr e = ParseExpr("1 < 2 < 3");
  EXPECT_EQ(e->bin_op, BinOp::kAnd);
  EXPECT_EQ(e->a->bin_op, BinOp::kLt);
  EXPECT_EQ(e->b->bin_op, BinOp::kLt);
}

TEST(ParserTest, StringPredicatesAndIn) {
  EXPECT_EQ(ParseExpr("a STARTS WITH 'x'")->bin_op, BinOp::kStartsWith);
  EXPECT_EQ(ParseExpr("a ENDS WITH 'x'")->bin_op, BinOp::kEndsWith);
  EXPECT_EQ(ParseExpr("a CONTAINS 'x'")->bin_op, BinOp::kContains);
  EXPECT_EQ(ParseExpr("a IN [1, 2]")->bin_op, BinOp::kIn);
}

TEST(ParserTest, IsNullForms) {
  EXPECT_EQ(ParseExpr("a IS NULL")->un_op, UnOp::kIsNull);
  EXPECT_EQ(ParseExpr("a IS NOT NULL")->un_op, UnOp::kIsNotNull);
}

TEST(ParserTest, LabelTestExpression) {
  ExprPtr e = ParseExpr("n:Person:Employee AND n.age > 1");
  EXPECT_EQ(e->bin_op, BinOp::kAnd);
  EXPECT_EQ(e->a->kind, Expr::Kind::kLabelTest);
  EXPECT_EQ(e->a->labels.size(), 2u);
}

TEST(ParserTest, CaseExpressions) {
  ExprPtr simple = ParseExpr("CASE x WHEN 1 THEN 'a' ELSE 'b' END");
  EXPECT_EQ(simple->kind, Expr::Kind::kCase);
  EXPECT_NE(simple->a, nullptr);
  ExprPtr searched = ParseExpr("CASE WHEN x > 1 THEN 'a' END");
  EXPECT_EQ(searched->a, nullptr);
  EXPECT_EQ(searched->whens.size(), 1u);
  EXPECT_EQ(searched->c, nullptr);
}

TEST(ParserTest, ExistsSubquery) {
  ExprPtr e = ParseExpr("EXISTS { MATCH (a)-[:R]->(b) WHERE b.x = 1 }");
  EXPECT_EQ(e->kind, Expr::Kind::kExists);
  ASSERT_NE(e->pattern, nullptr);
  EXPECT_NE(e->pattern_where, nullptr);
}

TEST(ParserTest, ExistsPatternArgument) {
  // The paper's form: WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect).
  ExprPtr e = ParseExpr("EXISTS (NEW)-[:Risk]-(:CriticalEffect)");
  EXPECT_EQ(e->kind, Expr::Kind::kExists);
  EXPECT_EQ(e->pattern->parts[0].chain.size(), 1u);
}

TEST(ParserTest, ExistsLegacyPropertyForm) {
  ExprPtr e = ParseExpr("EXISTS(n.prop)");
  EXPECT_EQ(e->kind, Expr::Kind::kFunc);
  EXPECT_EQ(e->name, "exists");
}

TEST(ParserTest, PatternPredicateInWhere) {
  Query q = Parse("MATCH (a) WHERE (a)-[:R]->(:B) RETURN a");
  EXPECT_EQ(q.clauses[0]->where->kind, Expr::Kind::kExists);
}

TEST(ParserTest, ParenthesizedExprNotMistakenForPattern) {
  ExprPtr e = ParseExpr("(1 + 2) * 3");
  EXPECT_EQ(e->bin_op, BinOp::kMul);
}

TEST(ParserTest, CountStar) {
  ExprPtr e = ParseExpr("COUNT(*)");
  EXPECT_EQ(e->kind, Expr::Kind::kCountStar);
}

TEST(ParserTest, FunctionWithDistinct) {
  ExprPtr e = ParseExpr("COUNT(DISTINCT n.x)");
  EXPECT_EQ(e->kind, Expr::Kind::kFunc);
  EXPECT_TRUE(e->distinct);
}

TEST(ParserTest, ListIndexAndMapLiteral) {
  ExprPtr e = ParseExpr("{a: [1, 2][0], b: $p}");
  EXPECT_EQ(e->kind, Expr::Kind::kMap);
  EXPECT_EQ(e->map_entries[0].second->kind, Expr::Kind::kIndex);
  EXPECT_EQ(e->map_entries[1].second->kind, Expr::Kind::kParam);
}

TEST(ParserTest, QuotedPropertyAccess) {
  // ON 'Lineage'.'whoDesignation' style postfix access.
  ExprPtr e = ParseExpr("OLD.'whoDesignation'");
  EXPECT_EQ(e->kind, Expr::Kind::kProp);
  EXPECT_EQ(e->name, "whoDesignation");
}

TEST(ParserTest, ReturnMustBeLast) {
  EXPECT_FALSE(Parser::ParseQuery("RETURN 1 MATCH (n)").ok());
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto st = Parser::ParseQuery("MATCH (n RETURN n").status();
  EXPECT_EQ(st.code(), StatusCode::kSyntaxError);
  EXPECT_NE(st.message().find(":"), std::string::npos);
}

TEST(ParserTest, RejectsBidirectionalArrow) {
  EXPECT_FALSE(Parser::ParseQuery("MATCH (a)<-[:R]->(b) RETURN a").ok());
}

TEST(ParserTest, RejectsEmptyQuery) {
  EXPECT_FALSE(Parser::ParseQuery("").ok());
  EXPECT_FALSE(Parser::ParseQuery("  ;").ok());
}

TEST(ParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(Parser::ParseQuery("MATCH (n) RETURN n 42").ok());
}

// Unparse round-trip: parse -> print -> parse -> print must be stable.
class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, ParsePrintParsePrint) {
  auto q1 = Parser::ParseQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << GetParam() << ": " << q1.status();
  std::string text1 = QueryToString(q1.value());
  auto q2 = Parser::ParseQuery(text1);
  ASSERT_TRUE(q2.ok()) << text1 << ": " << q2.status();
  EXPECT_EQ(QueryToString(q2.value()), text1);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTrip,
    ::testing::Values(
        "MATCH (n:Person) RETURN n",
        "MATCH (a:A)-[r:R {w: 1}]->(b) WHERE a.x > 1 RETURN a, r, b",
        "MATCH (a)-[:R*1..3]->(b) RETURN b",
        "CREATE (a:A {x: 1})-[:R]->(b:B)",
        "MERGE (c:C {k: 1}) ON CREATE SET c.fresh = true",
        "MATCH (n) WITH n.d AS d, COUNT(*) AS c ORDER BY c DESC LIMIT 3 "
        "WHERE c > 1 RETURN d",
        "UNWIND [1, 2] AS x RETURN x",
        "MATCH (n) DETACH DELETE n",
        "MATCH (n) SET n.a = 1, n:L REMOVE n.b",
        "MATCH (n) FOREACH (x IN [1] | SET n.v = x)",
        "MATCH (n) WHERE n.x IS NOT NULL AND (n)-[:R]->(:B) RETURN n",
        "MATCH (n) RETURN CASE WHEN n.x > 1 THEN 'hi' ELSE 'lo' END AS c",
        "CALL apoc.do.when(true, 'x', '', {a: 1}) YIELD value RETURN *",
        "MATCH (n) RETURN COUNT(DISTINCT n.x) AS c, COLLECT(n.y) AS ys",
        "OPTIONAL MATCH (n:A) RETURN n"));

// Figure 1 conformance: every clause keyword must be recognized.
TEST(ParserTest, ClauseKeywordsCaseInsensitive) {
  EXPECT_TRUE(Parser::ParseQuery("match (n) return n").ok());
  EXPECT_TRUE(Parser::ParseQuery("Match (n) Return n").ok());
}

// --- Nesting limit ---------------------------------------------------------
// The parser bounds nesting (Parser::kMaxNestingDepth) so that no input can
// overflow the stack of the parser or of the recursive compiler/executor.

std::string Nested(int depth, const std::string& open,
                   const std::string& inner, const std::string& close) {
  std::string out;
  for (int i = 0; i < depth; ++i) out += open;
  out += inner;
  for (int i = 0; i < depth; ++i) out += close;
  return out;
}

std::string Chain(int terms, const std::string& term,
                  const std::string& op) {
  std::string out = term;
  for (int i = 1; i < terms; ++i) out += op + term;
  return out;
}

void ExpectTooDeep(const Result<Query>& r) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << r.status();
  EXPECT_NE(r.status().message().find("maximum depth"), std::string::npos)
      << r.status();
}

TEST(ParserTest, DeeplyNestedParenthesesAreRejected) {
  ExpectTooDeep(Parser::ParseQuery("RETURN " + Nested(10000, "(", "1", ")")));
}

TEST(ParserTest, DeeplyNestedListsAreRejected) {
  ExpectTooDeep(Parser::ParseQuery("RETURN " + Nested(10000, "[", "1", "]")));
}

TEST(ParserTest, LongOperatorAndUnaryChainsAreRejected) {
  // Left-associative chains and prefix operators nest the AST as deeply
  // as parentheses do.
  ExpectTooDeep(Parser::ParseQuery("RETURN " + Chain(10000, "1", " + ")));
  ExpectTooDeep(Parser::ParseQuery("RETURN " + Chain(10000, "true", " AND ")));
  ExpectTooDeep(
      Parser::ParseQuery("RETURN " + Nested(10000, "NOT ", "true", "")));
  ExpectTooDeep(Parser::ParseQuery("RETURN " + Nested(10000, "-", "1", "")));
  ExpectTooDeep(Parser::ParseQuery("RETURN {a: 1}" + Chain(10000, "", ".a")));
}

TEST(ParserTest, NestingWithinTheLimitParses) {
  const int ok = Parser::kMaxNestingDepth / 2;
  EXPECT_TRUE(Parser::ParseQuery("RETURN " + Nested(ok, "(", "1", ")")).ok());
  EXPECT_TRUE(Parser::ParseQuery("RETURN " + Nested(ok, "[", "1", "]")).ok());
  EXPECT_TRUE(Parser::ParseQuery("RETURN " + Chain(ok, "1", " + ")).ok());
  // Flat lists do not nest, whatever their length.
  EXPECT_TRUE(
      Parser::ParseQuery("RETURN [" + Chain(10000, "1", ", ") + "]").ok());
}

}  // namespace
}  // namespace pgt::cypher
