// Cross-module integration tests: mixed trigger sets over realistic flows,
// runtime swapping, survey registry, and whole-pipeline sanity.

#include <gtest/gtest.h>

#include "src/covid/generator.h"
#include "src/covid/triggers.h"
#include "src/covid/workload.h"
#include "src/emul/apoc_emulator.h"
#include "src/survey/capability_registry.h"
#include "src/translate/apoc_translator.h"

namespace pgt {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  int64_t Count(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  }

  Database db_;
};

TEST_F(IntegrationTest, MixedActionTimesOnOneEvent) {
  Exec("CREATE TRIGGER B BEFORE CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v IS NULL BEGIN SET NEW.v = 0 END");
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:AfterMark {v: NEW.v}) END");
  Exec("CREATE TRIGGER C ONCOMMIT CREATE ON 'P' FOR ALL NODES "
       "BEGIN CREATE (:CommitMark {n: SIZE(NEWNODES)}) END");
  Exec("CREATE TRIGGER D DETACHED CREATE ON 'P' FOR ALL NODES "
       "BEGIN CREATE (:DetachedMark) END");
  Exec("CREATE (:P), (:P {v: 9})");
  // BEFORE conditioned the NEW state; AFTER saw the conditioned value.
  EXPECT_EQ(Count("MATCH (m:AfterMark {v: 0}) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (m:AfterMark {v: 9}) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (m:CommitMark {n: 2}) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (m:DetachedMark) RETURN COUNT(*) AS c"), 1);
}

TEST_F(IntegrationTest, CascadeAcrossActionTimes) {
  // AFTER creates Q; ONCOMMIT on Q creates R; DETACHED on R logs.
  Exec("CREATE TRIGGER S1 AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER S2 ONCOMMIT CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:R) END");
  Exec("CREATE TRIGGER S3 DETACHED CREATE ON 'R' FOR EACH NODE "
       "BEGIN CREATE (:Audit) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (q:Q) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (r:R) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (a:Audit) RETURN COUNT(*) AS c"), 1);
}

TEST_F(IntegrationTest, InferencePathChainCascades) {
  // The Section 5.1 motivation: "inferring properties of paths of
  // arbitrary length" needs correct cascading. Reachability propagation:
  // setting reach on a node propagates to its successors, transitively.
  Exec("CREATE (:N {id: 1})-[:E]->(:N {id: 2})");
  Exec("MATCH (b:N {id: 2}) CREATE (b)-[:E]->(:N {id: 3})");
  Exec("MATCH (c:N {id: 3}) CREATE (c)-[:E]->(:N {id: 4})");
  Exec("CREATE TRIGGER Propagate AFTER SET ON 'N'.'reach' FOR EACH NODE "
       "WHEN MATCH (NEW)-[:E]->(next:N) WHERE next.reach IS NULL "
       "BEGIN SET next.reach = true END");
  Exec("MATCH (n:N {id: 1}) SET n.reach = true");
  EXPECT_EQ(Count("MATCH (n:N) WHERE n.reach = true RETURN COUNT(*) AS c"),
            4);
}

TEST_F(IntegrationTest, NativeVersusApocOnInferenceChain) {
  // The same chain under APOC emulation stops after one step (cascade
  // blocked), reproducing the Section 5.1 limitation.
  Database apoc_db;
  auto owner = std::make_unique<emul::ApocEmulator>(&apoc_db);
  emul::ApocEmulator* apoc = owner.get();
  apoc_db.SetRuntime(std::move(owner));
  ASSERT_TRUE(apoc_db
                  .Execute("CREATE (:N {id: 1})-[:E]->(:N {id: 2})")
                  .ok());
  ASSERT_TRUE(apoc_db
                  .Execute("MATCH (b:N {id: 2}) CREATE (b)-[:E]->"
                           "(:N {id: 3})")
                  .ok());
  ASSERT_TRUE(
      apoc
          ->Install("propagate",
                    "UNWIND keys($assignedNodeProperties) AS k "
                    "UNWIND $assignedNodeProperties[k] AS aProp "
                    "WITH aProp.node AS n "
                    "MATCH (n)-[:E]->(next:N) WHERE next.reach IS NULL "
                    "SET next.reach = true",
                    "afterAsync")
          .ok());
  ASSERT_TRUE(
      apoc_db.Execute("MATCH (n:N {id: 1}) SET n.reach = true").ok());
  auto r = apoc_db.Execute(
      "MATCH (n:N) WHERE n.reach = true RETURN COUNT(*) AS c");
  ASSERT_TRUE(r.ok());
  // One step only: node 1 (user) + node 2 (trigger); node 3 never marked
  // because trigger transactions never re-activate triggers.
  EXPECT_EQ(r->rows[0][0].int_value(), 2);
}

TEST_F(IntegrationTest, RuntimeSwapRestoresNativeEngine) {
  auto owner = std::make_unique<emul::ApocEmulator>(&db_);
  db_.SetRuntime(std::move(owner));
  EXPECT_STREQ(db_.runtime().name(), "apoc-emulation");
  db_.SetRuntime(nullptr);
  EXPECT_STREQ(db_.runtime().name(), "pg-triggers");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Log) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
}

TEST_F(IntegrationTest, TerminationAnalysisOverInstalledCatalog) {
  Exec("CREATE TRIGGER Ping AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER Pong AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  auto report = db_.AnalyzeTriggers();
  EXPECT_FALSE(report.guaranteed_termination);
  ASSERT_EQ(report.cycles.size(), 1u);
  // And the runtime backstop catches the actual runaway.
  db_.options().max_cascade_depth = 10;
  auto st = db_.Execute("CREATE (:P)");
  EXPECT_EQ(st.status().code(), StatusCode::kCascadeLimitExceeded);
}

TEST_F(IntegrationTest, Table1RegistryMatchesPaper) {
  const auto& systems = survey::Table1Systems();
  EXPECT_EQ(systems.size(), 15u);
  int graph_triggers = 0, relational_triggers = 0, listeners = 0;
  for (const auto& s : systems) {
    if (s.triggers_graph != survey::Support::kNone) ++graph_triggers;
    if (s.triggers_relational != survey::Support::kNone) {
      ++relational_triggers;
    }
    if (s.event_listener != survey::Support::kNone) ++listeners;
  }
  // Paper Table 1: only Neo4j and Memgraph have graph triggers; the three
  // mixed-relational systems have relational triggers; seven systems
  // expose event listeners (JanusGraph, Dgraph, Neptune, Stardog,
  // Cosmos DB, OrientDB, ArangoDB).
  EXPECT_EQ(graph_triggers, 2);
  EXPECT_EQ(relational_triggers, 3);
  EXPECT_EQ(listeners, 7);
  std::string table = survey::RenderTable1();
  EXPECT_NE(table.find("Neo4j"), std::string::npos);
  EXPECT_NE(table.find("ArangoDB"), std::string::npos);
}

TEST_F(IntegrationTest, CovidScenarioWithTranslatedTriggersUnderApoc) {
  // Full pipeline: generate data, translate two paper triggers to APOC,
  // run a surveillance slice under the APOC emulator.
  Database apoc_db;
  covid::GenerateCovidData(apoc_db.store());
  auto owner = std::make_unique<emul::ApocEmulator>(&apoc_db);
  emul::ApocEmulator* apoc = owner.get();
  apoc_db.SetRuntime(std::move(owner));
  for (const std::string& ddl : covid::PaperTriggerDdl()) {
    auto def = TriggerDdlParser::ParseCreate(ddl);
    ASSERT_TRUE(def.ok());
    if (def->name != "NewCriticalMutation" &&
        def->name != "WhoDesignationChange") {
      continue;
    }
    auto translated = translate::TranslateToApoc(def.value());
    ASSERT_TRUE(translated.ok()) << translated.status();
    ASSERT_TRUE(apoc->Install(*translated).ok());
  }
  ASSERT_TRUE(
      covid::RegisterMutation(apoc_db, "Spike:Z1", "Spike", true).ok());
  ASSERT_TRUE(covid::ChangeWhoDesignation(apoc_db, "B.1.1", "Kappa").ok());
  ASSERT_TRUE(covid::ChangeWhoDesignation(apoc_db, "B.1.1", "Delta").ok());
  auto alerts = covid::CountAlerts(apoc_db);
  ASSERT_TRUE(alerts.ok());
  // One critical-mutation alert plus one or two designation-change alerts
  // (the generator may have pre-assigned a designation to B.1.1, in which
  // case the first change also fires).
  EXPECT_GE(*alerts, 2);
  EXPECT_LE(*alerts, 3);
}

TEST_F(IntegrationTest, StressManyTriggersManyStatements) {
  for (int i = 0; i < 16; ++i) {
    Exec("CREATE TRIGGER T" + std::to_string(i) +
         " AFTER CREATE ON 'P" + std::to_string(i % 4) +
         "' FOR EACH NODE BEGIN CREATE (:Log {t: " + std::to_string(i) +
         "}) END");
  }
  for (int i = 0; i < 20; ++i) {
    Exec("CREATE (:P" + std::to_string(i % 4) + ")");
  }
  // 4 triggers per label x 20 statements / 4 labels = 5 events each.
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 16 * 5);
}

}  // namespace
}  // namespace pgt
