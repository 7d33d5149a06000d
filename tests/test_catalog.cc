// Trigger catalog tests: install-time legality rules (Section 4.2) and
// execution ordering (creation time vs PostgreSQL-style name order).

#include "src/trigger/catalog.h"

#include <gtest/gtest.h>

#include "src/trigger/trigger_parser.h"

namespace pgt {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  TriggerDef Parse(const std::string& ddl) {
    auto r = TriggerDdlParser::ParseCreate(ddl);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }
  Status Install(const std::string& ddl) {
    return catalog_.Install(Parse(ddl));
  }

  EngineOptions options_;
  TriggerCatalog catalog_{&options_};
};

TEST_F(CatalogTest, InstallAndFind) {
  ASSERT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                      "BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_NE(catalog_.Find("T"), nullptr);
  EXPECT_EQ(catalog_.Find("T")->seq, 1u);
  EXPECT_EQ(catalog_.size(), 1u);
  EXPECT_EQ(catalog_.Find("Missing"), nullptr);
}

TEST_F(CatalogTest, DuplicateNameRejected) {
  ASSERT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                      "BEGIN CREATE (:A) END")
                  .ok());
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER DELETE ON 'M' FOR EACH NODE "
                    "BEGIN CREATE (:B) END")
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, DropAndDisable) {
  ASSERT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                      "BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_TRUE(catalog_.SetEnabled("T", false).ok());
  EXPECT_EQ(catalog_.EnabledCount(ActionTime::kAfter), 0u);
  ASSERT_TRUE(catalog_.SetEnabled("T", true).ok());
  EXPECT_EQ(catalog_.EnabledCount(ActionTime::kAfter), 1u);
  ASSERT_TRUE(catalog_.Drop("T").ok());
  EXPECT_EQ(catalog_.Drop("T").code(), StatusCode::kNotFound);
}

TEST_F(CatalogTest, PropertyMonitorRequiresSetOrRemove) {
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L'.'p' FOR EACH "
                    "NODE BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(Install("CREATE TRIGGER T2 AFTER SET ON 'L'.'p' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
}

TEST_F(CatalogTest, RelationshipLabelEventsRejected) {
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER SET ON 'R' FOR EACH "
                    "RELATIONSHIP BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
  // Property events on relationships are fine.
  EXPECT_TRUE(Install("CREATE TRIGGER T2 AFTER SET ON 'R'.'w' FOR EACH "
                      "RELATIONSHIP BEGIN CREATE (:A) END")
                  .ok());
}

TEST_F(CatalogTest, StatementMayNotTouchTargetLabel) {
  // Section 4.2: the target label cannot be set or removed in the action.
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                    "BEGIN MATCH (n:M) SET n:L END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                    "BEGIN MATCH (n:L) REMOVE n:L END")
                .code(),
            StatusCode::kConstraintViolation);
  // Inside FOREACH too.
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                    "BEGIN FOREACH (x IN [NEW] | SET x:L) END")
                .code(),
            StatusCode::kConstraintViolation);
  // Other labels are fine.
  EXPECT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                      "BEGIN MATCH (n:M) SET n:Other END")
                  .ok());
}

TEST_F(CatalogTest, WhenPipelineMustBeReadOnly) {
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                    "WHEN MATCH (n:M) CREATE (:Side) "
                    "BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
}

TEST_F(CatalogTest, BeforeTriggersOnlySetProperties) {
  EXPECT_TRUE(Install("CREATE TRIGGER B1 BEFORE CREATE ON 'L' FOR EACH "
                      "NODE BEGIN SET NEW.normalized = true END")
                  .ok());
  EXPECT_EQ(Install("CREATE TRIGGER B2 BEFORE CREATE ON 'L' FOR EACH NODE "
                    "BEGIN CREATE (:Side) END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Install("CREATE TRIGGER B3 BEFORE CREATE ON 'L' FOR EACH NODE "
                    "BEGIN SET NEW:Extra END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Install("CREATE TRIGGER B4 BEFORE DELETE ON 'L' FOR EACH NODE "
                    "BEGIN SET OLD.x = 1 END")
                .code(),
            StatusCode::kConstraintViolation);
}

TEST_F(CatalogTest, ReferencingMustMatchGranularityAndItem) {
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' "
                    "REFERENCING NEWNODES AS xs FOR EACH NODE "
                    "BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'L' "
                    "REFERENCING NEW AS x FOR ALL NODES "
                    "BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Install("CREATE TRIGGER T AFTER CREATE ON 'R' "
                    "REFERENCING NEWNODES AS xs FOR ALL RELATIONSHIPS "
                    "BEGIN CREATE (:A) END")
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'R' "
                      "REFERENCING NEWRELS AS xs FOR ALL RELATIONSHIPS "
                      "BEGIN CREATE (:A) END")
                  .ok());
}

TEST_F(CatalogTest, EnabledCountFiltersAndOrderIsByCreation) {
  ASSERT_TRUE(Install("CREATE TRIGGER Zeta AFTER CREATE ON 'L' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_TRUE(Install("CREATE TRIGGER Alpha AFTER CREATE ON 'L' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_TRUE(Install("CREATE TRIGGER Mid ONCOMMIT CREATE ON 'L' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_EQ(catalog_.EnabledCount(ActionTime::kAfter), 2u);
  const TriggerDef* zeta = catalog_.Find("Zeta");
  const TriggerDef* alpha = catalog_.Find("Alpha");
  // Creation order, not alphabetical.
  EXPECT_TRUE(TriggerCatalog::ExecutionOrderLess(options_.trigger_ordering,
                                                 *zeta, *alpha));
  EXPECT_FALSE(TriggerCatalog::ExecutionOrderLess(options_.trigger_ordering,
                                                  *alpha, *zeta));
  EXPECT_EQ(catalog_.EnabledCount(ActionTime::kOnCommit), 1u);
  EXPECT_EQ(catalog_.EnabledCount(ActionTime::kDetached), 0u);
}

TEST_F(CatalogTest, NameOrderingOption) {
  options_.trigger_ordering = TriggerOrdering::kName;
  ASSERT_TRUE(Install("CREATE TRIGGER Zeta AFTER CREATE ON 'L' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
  ASSERT_TRUE(Install("CREATE TRIGGER Alpha AFTER CREATE ON 'L' FOR EACH "
                      "NODE BEGIN CREATE (:A) END")
                  .ok());
  // PostgreSQL-style: Alpha runs first.
  EXPECT_TRUE(TriggerCatalog::ExecutionOrderLess(
      options_.trigger_ordering, *catalog_.Find("Alpha"),
      *catalog_.Find("Zeta")));
}

TEST_F(CatalogTest, DropAllClearsEverything) {
  ASSERT_TRUE(Install("CREATE TRIGGER T AFTER CREATE ON 'L' FOR EACH NODE "
                      "BEGIN CREATE (:A) END")
                  .ok());
  catalog_.DropAll();
  EXPECT_EQ(catalog_.size(), 0u);
}

}  // namespace
}  // namespace pgt
