// Termination analysis tests (Section 6.2.3, docs/analysis.md): cycle
// detection and the guardedness report, the paper's Section 6 triggers,
// and which trigger writes wake which events (created nodes and
// relationships, property and label writes, transition variables, MERGE,
// DELETE widening, FOREACH shadowing), all checked against the
// plan-grounded analysis::Analyzer through Database::AnalyzeTriggers.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "src/covid/triggers.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

using EdgeSet = std::set<std::pair<std::string, std::string>>;

class TerminationTest : public ::testing::Test {
 protected:

  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }

  // Syncs the graph (Analyze calls EnsureSynced) and returns the edges.
  EdgeSet Edges() {
    (void)db_.AnalyzeTriggers();
    return db_.analyzer().Edges();
  }

  Database db_;
};

TEST_F(TerminationTest, AcyclicChainIsGuaranteedTerminating) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER B AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:R) END");
  auto report = db_.AnalyzeTriggers();
  EXPECT_TRUE(report.guaranteed_termination);
  EXPECT_EQ(report.edge_count, 1u);  // A -> B only
  EXPECT_NE(report.ToString().find("acyclic"), std::string::npos);
}

TEST_F(TerminationTest, SelfLoopDetected) {
  Exec("CREATE TRIGGER Loop AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  auto report = db_.AnalyzeTriggers();
  EXPECT_FALSE(report.guaranteed_termination);
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_EQ(report.cycles[0].first[0], "Loop");
  EXPECT_FALSE(report.cycles[0].second);  // unguarded (no WHEN)
}

TEST_F(TerminationTest, GuardedCycleFlagged) {
  Exec("CREATE TRIGGER Guarded AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v > 0 BEGIN CREATE (:P {v: NEW.v - 1}) END");
  auto report = db_.AnalyzeTriggers();
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_TRUE(report.cycles[0].second);  // guarded by WHEN
  EXPECT_NE(report.ToString().find("guarded"), std::string::npos);
}

TEST_F(TerminationTest, PaperRelocationTriggerIsCyclic) {
  // The Section 6.2.3 cascading relocation: its action creates TreatedAt
  // relationships, its event is TreatedAt creation -> self-loop.
  Exec(covid::UnguardedMoveTriggerDdl());
  auto report = db_.AnalyzeTriggers();
  EXPECT_FALSE(report.guaranteed_termination);
  ASSERT_FALSE(report.cycles.empty());
}

TEST_F(TerminationTest, PaperSectionSixTriggersTerminate) {
  // All Section 6.2 triggers together: the relocation triggers create
  // TreatedAt edges but no trigger monitors TreatedAt, and alerts trigger
  // nothing.
  for (const std::string& ddl : covid::PaperTriggerDdl()) Exec(ddl);
  auto report = db_.AnalyzeTriggers();
  EXPECT_TRUE(report.guaranteed_termination) << report.ToString();
}

TEST_F(TerminationTest, LabelEventEdges) {
  Exec("CREATE TRIGGER S AFTER CREATE ON 'A' FOR EACH NODE "
       "BEGIN MATCH (n:B) SET n:Flagged END");
  Exec("CREATE TRIGGER W AFTER SET ON 'Flagged' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EXPECT_TRUE(Edges().count({"S", "W"}));
}

TEST_F(TerminationTest, CreatedNodesAndRelsWakeCreateMonitors) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Alert {v: 1})-[:Causes]->(:Incident) END");
  Exec("CREATE TRIGGER OnAlert AFTER CREATE ON 'Alert' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnCauses AFTER CREATE ON 'Causes' "
       "FOR EACH RELATIONSHIP BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnDelete AFTER DELETE ON 'Alert' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnOther AFTER CREATE ON 'C' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"T", "OnAlert"}));
  EXPECT_TRUE(e.count({"T", "OnCauses"}));
  EXPECT_FALSE(e.count({"T", "OnDelete"}));
  EXPECT_FALSE(e.count({"T", "OnOther"}));
}

TEST_F(TerminationTest, PropertyWritesMatchOnlyTheirEvent) {
  Exec("CREATE TRIGGER S AFTER CREATE ON 'A' FOR EACH NODE "
       "BEGIN MATCH (h:H) SET h.x = NEW.seed END");
  Exec("CREATE TRIGGER W1 AFTER SET ON 'H'.'x' FOR EACH NODE "
       "BEGIN CREATE (:Y) END");
  Exec("CREATE TRIGGER W2 AFTER SET ON 'H'.'y' FOR EACH NODE "
       "BEGIN CREATE (:Y) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"S", "W1"}));
  EXPECT_FALSE(e.count({"S", "W2"}));
}

TEST_F(TerminationTest, TransitionVariableCarriesTargetLabel) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN SET NEW.seen = true END");
  Exec("CREATE TRIGGER OnSeen AFTER SET ON 'P'.'seen' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EXPECT_TRUE(Edges().count({"T", "OnSeen"}));
}

TEST_F(TerminationTest, MatchBoundWritesWidenCreateBoundStayExact) {
  // A MATCH-bound node may carry labels beyond the matched one (the
  // engine raises event keys for every label), so its writes reach other
  // labels' monitors; a CREATE-bound node has exactly its creation labels.
  Exec("CREATE TRIGGER Matched AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (h:Hospital) SET h.load = NEW.n END");
  Exec("CREATE TRIGGER Fresh AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (n:Fresh) SET n.load = NEW.n END");
  Exec("CREATE TRIGGER OnOther AFTER SET ON 'Other'.'load' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"Matched", "OnOther"}));
  EXPECT_FALSE(e.count({"Fresh", "OnOther"}));
}

TEST_F(TerminationTest, MergeMayCreateAndOnMatchWidens) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MERGE (m:Metric) ON MATCH SET m.n = NEW.n END");
  Exec("CREATE TRIGGER OnMetric AFTER CREATE ON 'Metric' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnOther AFTER SET ON 'Other'.'n' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"T", "OnMetric"}));  // MERGE may create the node
  EXPECT_TRUE(e.count({"T", "OnOther"}));   // ...or match one with more labels
}

TEST_F(TerminationTest, DeletesWidenThroughDetachAndUnknownTargets) {
  Exec("CREATE TRIGGER Detach AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (old:Stale) DETACH DELETE old END");
  Exec("CREATE TRIGGER Unknown AFTER CREATE ON 'P2' FOR EACH NODE "
       "WHEN MATCH (x) BEGIN DELETE x END");
  Exec("CREATE TRIGGER Untyped AFTER CREATE ON 'P3' FOR EACH NODE "
       "BEGIN MATCH (a:A)-[r]->(b:B) DELETE r END");
  Exec("CREATE TRIGGER OnStale AFTER DELETE ON 'Stale' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnOtherNode AFTER DELETE ON 'Other' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnAnyRel AFTER DELETE ON 'Link' "
       "FOR EACH RELATIONSHIP BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"Detach", "OnStale"}));
  EXPECT_TRUE(e.count({"Detach", "OnOtherNode"}));  // extra labels possible
  EXPECT_TRUE(e.count({"Detach", "OnAnyRel"}));     // detach widens
  EXPECT_TRUE(e.count({"Unknown", "OnOtherNode"}));
  EXPECT_TRUE(e.count({"Untyped", "OnAnyRel"}));
  EXPECT_FALSE(e.count({"Untyped", "OnStale"}));
}

TEST_F(TerminationTest, ForeachVariableShadowsOuterBinding) {
  // The FOREACH element variable shadows the CREATE-bound x: writes
  // through it must widen instead of inheriting the exact creation label.
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (x:Safe) FOREACH (x IN [1] | SET x.v = 2) END");
  Exec("CREATE TRIGGER OnOther AFTER SET ON 'Other'.'v' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EXPECT_TRUE(Edges().count({"T", "OnOther"}));
}

TEST_F(TerminationTest, WriteSetRendering) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:A) SET NEW.x = 1 END");
  const TriggerDef* t = db_.catalog().Find("T");
  ASSERT_NE(t, nullptr);
  const std::string s =
      analysis::InferWriteSet(*t, db_.store(), db_.PlanEpoch()).ToString();
  EXPECT_NE(s.find("+node{A}"), std::string::npos) << s;
  EXPECT_NE(s.find("P"), std::string::npos) << s;
  EXPECT_NE(s.find(".x"), std::string::npos) << s;
}

}  // namespace
}  // namespace pgt
