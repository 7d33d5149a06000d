// Event-matching tests: MatchActivations over the ten Section 4.2 event
// kinds ({node, relationship} x {create, delete} + {label, node-property,
// relationship-property} x {set, remove}), both granularities, and the two
// label-event semantics (docs/semantics.md D3).

#include <gtest/gtest.h>

#include "src/trigger/database.h"

namespace pgt {
namespace {

class EngineEventsTest : public ::testing::Test {
 protected:
  TriggerDef Def(const std::string& ddl) {
    auto r = TriggerDdlParser::ParseCreate(ddl);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  /// Runs `statement` and captures the statement delta by re-deriving it
  /// from the accumulated transaction delta (single statement per tx).
  GraphDelta RunAndCapture(Database& db, const std::string& statement) {
    auto tx = std::move(db.BeginTx()).value();
    tx->PushDeltaScope();
    auto stmt = db.Prepare(statement);
    EXPECT_TRUE(stmt.ok()) << stmt.status();
    const cypher::plan::PlanProgram& prog = *(*stmt)->program;
    cypher::EvalContext ctx = db.MakeEvalContext(tx.get(), nullptr, nullptr);
    cypher::plan::PlanExecutor exec(ctx, prog.slot_names);
    auto res = exec.Run(prog.steps, exec.NewFrame());
    EXPECT_TRUE(res.ok()) << statement << " -> " << res.status();
    GraphDelta delta = tx->PopDeltaScope();
    EXPECT_TRUE(db.CommitWithTriggers(std::move(tx)).ok());
    return delta;
  }

  Database db_;
};

TEST_F(EngineEventsTest, CreateNodeEvent) {
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER CREATE ON 'A' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "CREATE (:A), (:A), (:B)");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 2u);
  // NEW bound as single and as pseudo-set.
  EXPECT_NE(acts[0].env.FindSingle("NEW"), nullptr);
  EXPECT_NE(acts[0].env.FindSet("NEW"), nullptr);
  EXPECT_TRUE(acts[0].env.old_view_vars.empty());
}

TEST_F(EngineEventsTest, CreateNodeAllGranularityDedupes) {
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER CREATE ON 'A' FOR ALL NODES "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "CREATE (:A), (:A), (:A)");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  const auto* set = acts[0].env.FindSet("NEWNODES");
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->ids.size(), 3u);
  EXPECT_TRUE(set->is_node);
}

TEST_F(EngineEventsTest, DeleteNodeEventUsesImages) {
  RunAndCapture(db_, "CREATE (:A {k: 1}), (:A {k: 2})");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER DELETE ON 'A' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "MATCH (a:A) DELETE a");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_NE(acts[0].env.FindSingle("OLD"), nullptr);
  EXPECT_TRUE(acts[0].env.IsOldView("OLD"));
}

TEST_F(EngineEventsTest, CreateAndDeleteRelEvents) {
  RunAndCapture(db_, "CREATE (:A), (:B)");
  TriggerDef created = Def(
      "CREATE TRIGGER T1 AFTER CREATE ON 'R' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  TriggerDef deleted = Def(
      "CREATE TRIGGER T2 AFTER DELETE ON 'R' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta c =
      RunAndCapture(db_, "MATCH (a:A), (b:B) CREATE (a)-[:R]->(b)");
  EXPECT_EQ(db_.engine().MatchActivations(created, c).size(), 1u);
  EXPECT_TRUE(db_.engine().MatchActivations(deleted, c).empty());
  GraphDelta d = RunAndCapture(db_, "MATCH ()-[r:R]->() DELETE r");
  EXPECT_TRUE(db_.engine().MatchActivations(created, d).empty());
  EXPECT_EQ(db_.engine().MatchActivations(deleted, d).size(), 1u);
}

TEST_F(EngineEventsTest, RelTypeFilterDistinguishes) {
  RunAndCapture(db_, "CREATE (:A), (:B)");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER CREATE ON 'R' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(
      db_, "MATCH (a:A), (b:B) CREATE (a)-[:S]->(b) CREATE (a)-[:R]->(b)");
  EXPECT_EQ(db_.engine().MatchActivations(def, delta).size(), 1u);
}

TEST_F(EngineEventsTest, SetPropertyEventCarriesOldAndNew) {
  RunAndCapture(db_, "CREATE (:L {p: 1})");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'L'.'p' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "MATCH (n:L) SET n.p = 2");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("OLD"), nullptr);
  EXPECT_NE(acts[0].env.FindSingle("NEW"), nullptr);
  const auto& overlay = acts[0].env.old_node_props;
  ASSERT_EQ(overlay.size(), 1u);
  EXPECT_EQ(overlay.front().value.int_value(), 1);
}

TEST_F(EngineEventsTest, SetPropertyFiltersByKeyAndLabel) {
  RunAndCapture(db_, "CREATE (:L {p: 1, q: 1}), (:M {p: 1})");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'L'.'p' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta wrong_key = RunAndCapture(db_, "MATCH (n:L) SET n.q = 2");
  EXPECT_TRUE(db_.engine().MatchActivations(def, wrong_key).empty());
  GraphDelta wrong_label = RunAndCapture(db_, "MATCH (n:M) SET n.p = 2");
  EXPECT_TRUE(db_.engine().MatchActivations(def, wrong_label).empty());
  GraphDelta right = RunAndCapture(db_, "MATCH (n:L) SET n.p = 2");
  EXPECT_EQ(db_.engine().MatchActivations(def, right).size(), 1u);
}

TEST_F(EngineEventsTest, RemovePropertyEventIsOldOnly) {
  RunAndCapture(db_, "CREATE (:L {p: 7})");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER REMOVE ON 'L'.'p' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "MATCH (n:L) REMOVE n.p");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("OLD"), nullptr);
  EXPECT_EQ(acts[0].env.FindSingle("NEW"), nullptr);
  // Old value readable through the overlay.
  EXPECT_EQ(acts[0].env.old_node_props.front().value.int_value(), 7);
}

TEST_F(EngineEventsTest, RelPropertyEvents) {
  RunAndCapture(db_, "CREATE (:A)-[:R {w: 1}]->(:B)");
  TriggerDef set_def = Def(
      "CREATE TRIGGER T AFTER SET ON 'R'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  TriggerDef rem_def = Def(
      "CREATE TRIGGER T2 AFTER REMOVE ON 'R'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta set_delta =
      RunAndCapture(db_, "MATCH ()-[r:R]->() SET r.w = 2");
  EXPECT_EQ(db_.engine().MatchActivations(set_def, set_delta).size(), 1u);
  EXPECT_TRUE(db_.engine().MatchActivations(rem_def, set_delta).empty());
  GraphDelta rem_delta = RunAndCapture(db_, "MATCH ()-[r:R]->() REMOVE r.w");
  EXPECT_EQ(db_.engine().MatchActivations(rem_def, rem_delta).size(), 1u);
}

TEST_F(EngineEventsTest, LabelSetEventMonitoredSemantics) {
  // Default kMonitoredLabel: ON 'Flagged' fires when :Flagged is set.
  RunAndCapture(db_, "CREATE (:P)");
  db_.store().InternLabel("Flagged");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'Flagged' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "MATCH (p:P) SET p:Flagged");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("NEW"), nullptr);
  // Setting an unrelated label does not fire.
  GraphDelta other = RunAndCapture(db_, "MATCH (p:P) SET p:Other");
  EXPECT_TRUE(db_.engine().MatchActivations(def, other).empty());
}

TEST_F(EngineEventsTest, LabelRemoveEventMonitoredSemantics) {
  RunAndCapture(db_, "CREATE (:P:Flagged)");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER REMOVE ON 'Flagged' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "MATCH (p:P) REMOVE p:Flagged");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("OLD"), nullptr);
}

TEST_F(EngineEventsTest, LabelEventTargetSetChangeSemantics) {
  // Strict D3 reading: ON 'P' + SET fires when *another* label lands on a
  // node that carries P; P itself is excluded.
  EngineOptions options;
  options.label_event_semantics = LabelEventSemantics::kTargetSetChange;
  Database db(options);
  RunAndCapture(db, "CREATE (:P), (:Q)");
  db.store().InternLabel("Deceased");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'P' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta on_p = RunAndCapture(db, "MATCH (p:P) SET p:Deceased");
  EXPECT_EQ(db.engine().MatchActivations(def, on_p).size(), 1u);
  GraphDelta on_q = RunAndCapture(db, "MATCH (q:Q) SET q:Deceased");
  EXPECT_TRUE(db.engine().MatchActivations(def, on_q).empty());
  // Setting P itself on a fresh node is NOT an event under strict reading.
  GraphDelta self = RunAndCapture(db, "MATCH (q:Q) SET q:P");
  EXPECT_TRUE(db.engine().MatchActivations(def, self).empty());
}

TEST_F(EngineEventsTest, CreationLabelsAreNotSetEvents) {
  // Labels present at node creation belong to the CREATE event only.
  db_.store().InternLabel("Flagged");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'Flagged' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "CREATE (:Flagged)");
  EXPECT_TRUE(db_.engine().MatchActivations(def, delta).empty());
}

TEST_F(EngineEventsTest, UnknownLabelNeverMatches) {
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER CREATE ON 'NeverUsed' FOR EACH NODE "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "CREATE (:A)");
  EXPECT_TRUE(db_.engine().MatchActivations(def, delta).empty());
}

TEST_F(EngineEventsTest, ReferencingAliasRenamesBindings) {
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER CREATE ON 'A' REFERENCING NEWNODES AS fresh "
      "FOR ALL NODES BEGIN CREATE (:X) END");
  GraphDelta delta = RunAndCapture(db_, "CREATE (:A)");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSet("fresh"), nullptr);
  EXPECT_EQ(acts[0].env.FindSet("NEWNODES"), nullptr);
}

TEST_F(EngineEventsTest, SetGranularityOverlayKeepsFirstOldValue) {
  RunAndCapture(db_, "CREATE (:L {p: 1})");
  TriggerDef def = Def(
      "CREATE TRIGGER T AFTER SET ON 'L'.'p' FOR ALL NODES "
      "BEGIN CREATE (:X) END");
  // Two sets in one statement: the pre-statement image (1) must win.
  GraphDelta delta =
      RunAndCapture(db_, "MATCH (n:L) SET n.p = 2 SET n.p = 3");
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].env.old_node_props.front().value.int_value(), 1);
  EXPECT_EQ(acts[0].env.FindSet("NEWNODES")->ids.size(), 1u);  // deduped
}

}  // namespace
}  // namespace pgt
