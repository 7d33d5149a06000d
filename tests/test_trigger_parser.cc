// PG-Trigger DDL parser tests: the full Figure 1 grammar, including a
// parameterized sweep over <time> x <event> x <granularity> x <item>.

#include "src/trigger/trigger_parser.h"

#include <gtest/gtest.h>

#include "src/common/str_util.h"
#include "src/cypher/statement_classifier.h"

namespace pgt {
namespace {

TriggerDef ParseOk(const std::string& ddl) {
  auto r = TriggerDdlParser::ParseCreate(ddl);
  EXPECT_TRUE(r.ok()) << ddl << "\n-> " << r.status();
  return r.ok() ? std::move(r).value() : TriggerDef{};
}

TEST(TriggerParserTest, MinimalTrigger) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
      "BEGIN CREATE (:Alert) END");
  EXPECT_EQ(def.name, "T");
  EXPECT_EQ(def.time, ActionTime::kAfter);
  EXPECT_EQ(def.event, TriggerEvent::kCreate);
  EXPECT_EQ(def.label, "L");
  EXPECT_TRUE(def.property.empty());
  EXPECT_EQ(def.granularity, Granularity::kEach);
  EXPECT_EQ(def.item, ItemKind::kNode);
  EXPECT_FALSE(def.HasWhen());
  EXPECT_EQ(def.statement.clauses.size(), 1u);
}

TEST(TriggerParserTest, IsTriggerDdlDetection) {
  auto kind = [](const char* s) { return ClassifyStatement(s); };
  EXPECT_EQ(kind("CREATE TRIGGER x ..."), StatementKind::kTriggerDdl);
  EXPECT_EQ(kind("  create trigger x"), StatementKind::kTriggerDdl);
  EXPECT_EQ(kind("DROP TRIGGER x"), StatementKind::kTriggerDdl);
  EXPECT_EQ(kind("ALTER TRIGGER x DISABLE"), StatementKind::kTriggerDdl);
  EXPECT_NE(kind("CREATE (n:Trigger)"), StatementKind::kTriggerDdl);
  EXPECT_NE(kind("MATCH (n) RETURN n"), StatementKind::kTriggerDdl);
}

TEST(TriggerParserTest, PropertyMonitor) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER SET ON 'Lineage'.'whoDesignation' "
      "FOR EACH NODE WHEN OLD.whoDesignation <> NEW.whoDesignation "
      "BEGIN CREATE (:Alert) END");
  EXPECT_EQ(def.label, "Lineage");
  EXPECT_EQ(def.property, "whoDesignation");
  EXPECT_NE(def.when_expr, nullptr);
}

TEST(TriggerParserTest, BareIdentifierLabels) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER DELETE ON Person FOR EACH NODE "
      "BEGIN CREATE (:Gone) END");
  EXPECT_EQ(def.label, "Person");
}

TEST(TriggerParserTest, ReferencingAliases) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'IcuPatient' "
      "REFERENCING NEWNODES AS admitted "
      "FOR ALL NODES BEGIN CREATE (:Alert) END");
  ASSERT_EQ(def.referencing.size(), 1u);
  EXPECT_EQ(def.referencing[0].var, TransitionVar::kNewNodes);
  EXPECT_EQ(def.referencing[0].alias, "admitted");
  EXPECT_EQ(def.NewVarName(), "admitted");
  EXPECT_EQ(def.OldVarName(), "OLDNODES");  // default keeps canonical name
}

TEST(TriggerParserTest, MultipleReferencingEntries) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER SET ON 'L'.'p' "
      "REFERENCING OLD AS before, NEW AS after "
      "FOR EACH NODE BEGIN CREATE (:A {was: before.p, is: after.p}) END");
  EXPECT_EQ(def.AliasFor(TransitionVar::kOld), "before");
  EXPECT_EQ(def.AliasFor(TransitionVar::kNew), "after");
}

TEST(TriggerParserTest, WhenPipelineCondition) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'IcuPatient' FOR ALL NODES "
      "WHEN MATCH (p:IcuPatient) WITH COUNT(p) AS c WHERE c > 50 "
      "BEGIN CREATE (:Alert) END");
  EXPECT_EQ(def.when_expr, nullptr);
  ASSERT_EQ(def.when_query.clauses.size(), 2u);
  EXPECT_EQ(def.when_query.clauses[0]->kind, cypher::Clause::Kind::kMatch);
}

TEST(TriggerParserTest, WhenExpressionWithExistsPattern) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'Mutation' FOR EACH NODE "
      "WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect) "
      "BEGIN CREATE (:Alert) END");
  ASSERT_NE(def.when_expr, nullptr);
  EXPECT_EQ(def.when_expr->kind, cypher::Expr::Kind::kExists);
}

TEST(TriggerParserTest, MultiClauseStatement) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE BEGIN "
      "MATCH (h:H) CREATE (NEW)-[:At]->(h) SET h.n = 1 END");
  EXPECT_EQ(def.statement.clauses.size(), 3u);
}

TEST(TriggerParserTest, DropAlterCommands) {
  auto drop = TriggerDdlParser::Parse("DROP TRIGGER Foo");
  ASSERT_TRUE(drop.ok());
  EXPECT_EQ(drop->kind, TriggerDdl::Kind::kDrop);
  EXPECT_EQ(drop->name, "Foo");
  auto enable = TriggerDdlParser::Parse("ALTER TRIGGER Foo ENABLE");
  EXPECT_EQ(enable->kind, TriggerDdl::Kind::kEnable);
  auto disable = TriggerDdlParser::Parse("ALTER TRIGGER Foo DISABLE;");
  EXPECT_EQ(disable->kind, TriggerDdl::Kind::kDisable);
}

TEST(TriggerParserTest, ErrorMissingBegin) {
  auto r = TriggerDdlParser::Parse(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE CREATE (:A) END");
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

TEST(TriggerParserTest, ErrorEmptyStatement) {
  auto r = TriggerDdlParser::Parse(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE BEGIN END");
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

TEST(TriggerParserTest, ErrorBadActionTime) {
  auto r = TriggerDdlParser::Parse(
      "CREATE TRIGGER T SOMETIME CREATE ON 'L' FOR EACH NODE "
      "BEGIN CREATE (:A) END");
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

TEST(TriggerParserTest, ErrorBadGranularity) {
  auto r = TriggerDdlParser::Parse(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR SOME NODE "
      "BEGIN CREATE (:A) END");
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

TEST(TriggerParserTest, ErrorTrailingGarbage) {
  auto r = TriggerDdlParser::Parse(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
      "BEGIN CREATE (:A) END AND MORE");
  EXPECT_EQ(r.status().code(), StatusCode::kSyntaxError);
}

// Figure 1 grammar sweep: every combination of action time, event,
// granularity, and item kind must parse and round-trip through ToDdl().
struct GrammarCase {
  const char* time;
  const char* event;
  const char* granularity;
  const char* item;
};

class Figure1Sweep : public ::testing::TestWithParam<
                         std::tuple<int, int, int, int>> {};

TEST_P(Figure1Sweep, ParsesAndRoundTrips) {
  static const char* kTimes[] = {"BEFORE", "AFTER", "ONCOMMIT", "DETACHED"};
  static const char* kEvents[] = {"CREATE", "DELETE", "SET", "REMOVE"};
  static const char* kGrans[] = {"EACH", "ALL"};
  static const char* kItems[] = {"NODE", "RELATIONSHIP"};
  const auto [t, e, g, i] = GetParam();
  std::string ddl = std::string("CREATE TRIGGER Sweep ") + kTimes[t] + " " +
                    kEvents[e] + " ON 'L' FOR " + kGrans[g] + " " +
                    kItems[i] + " BEGIN CREATE (:A) END";
  auto r = TriggerDdlParser::ParseCreate(ddl);
  ASSERT_TRUE(r.ok()) << ddl << "\n-> " << r.status();
  const TriggerDef& def = r.value();
  EXPECT_EQ(ActionTimeName(def.time), std::string(kTimes[t]));
  EXPECT_EQ(TriggerEventName(def.event), std::string(kEvents[e]));
  EXPECT_EQ(GranularityName(def.granularity), std::string(kGrans[g]));
  EXPECT_EQ(ItemKindName(def.item), std::string(kItems[i]));
  // Round-trip through the canonical unparse.
  auto r2 = TriggerDdlParser::ParseCreate(def.ToDdl());
  ASSERT_TRUE(r2.ok()) << def.ToDdl() << "\n-> " << r2.status();
  EXPECT_EQ(r2->ToDdl(), def.ToDdl());
}

INSTANTIATE_TEST_SUITE_P(Figure1, Figure1Sweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Range(0, 4),
                                            ::testing::Range(0, 2),
                                            ::testing::Range(0, 2)));

TEST(TriggerParserTest, PluralItemKeywordsAccepted) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T AFTER CREATE ON 'L' FOR ALL RELATIONSHIPS "
      "BEGIN CREATE (:A) END");
  EXPECT_EQ(def.item, ItemKind::kRelationship);
  EXPECT_EQ(def.granularity, Granularity::kAll);
}

TEST(TriggerParserTest, ToDdlContainsAllClauses) {
  TriggerDef def = ParseOk(
      "CREATE TRIGGER T ONCOMMIT SET ON 'L'.'p' "
      "REFERENCING OLD AS before FOR EACH NODE "
      "WHEN before.p IS NOT NULL BEGIN CREATE (:A) END");
  std::string ddl = def.ToDdl();
  EXPECT_NE(ddl.find("ONCOMMIT SET"), std::string::npos);
  EXPECT_NE(ddl.find("ON 'L'.'p'"), std::string::npos);
  EXPECT_NE(ddl.find("REFERENCING OLD AS before"), std::string::npos);
  EXPECT_NE(ddl.find("WHEN"), std::string::npos);
}

}  // namespace
}  // namespace pgt
