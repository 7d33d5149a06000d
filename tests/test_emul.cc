// Emulator tests: the APOC and Memgraph runtime behaviors the paper
// reports in Section 5 — alphabetic 'before' ordering, single-pass
// activation regardless of type, blocked cascading, afterAsync visibility
// races — made executable.

#include <gtest/gtest.h>

#include "src/emul/apoc_emulator.h"
#include "src/emul/memgraph_emulator.h"

namespace pgt::emul {
namespace {

class ApocEmulatorTest : public ::testing::Test {
 protected:
  ApocEmulatorTest() {
    auto owner = std::make_unique<ApocEmulator>(&db_);
    apoc_ = owner.get();
    db_.SetRuntime(std::move(owner));
  }
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
  ApocEmulator* apoc_ = nullptr;
};

TEST_F(ApocEmulatorTest, InstallValidatesPhaseAndDuplicates) {
  EXPECT_TRUE(apoc_->Install("t1", "RETURN 1", "before").ok());
  EXPECT_EQ(apoc_->Install("t1", "RETURN 1", "before").code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(apoc_->Install("t2", "RETURN 1", "sometime").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(apoc_->Install("t3", "THIS IS NOT CYPHER", "before").code(),
            StatusCode::kSyntaxError);
}

TEST_F(ApocEmulatorTest, BeforePhaseRunsAtCommitInsideTransaction) {
  ASSERT_TRUE(apoc_->Install("log",
                             "UNWIND $createdNodes AS n "
                             "CREATE (:Log)",
                             "before")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(apoc_->fired("log"), 1u);
}

TEST_F(ApocEmulatorTest,
       BeforeTriggersRunOnceRegardlessOfMonitoredType) {
  // Section 5.1: "all the installed triggers are activated, only once, in
  // alphabetic order, regardless of the specific node or relationship
  // type". A trigger watching $createdRelationships still RUNS on a
  // node-only transaction (its UNWIND just yields no rows).
  ASSERT_TRUE(apoc_->Install("relwatch",
                             "UNWIND $createdRelationships AS r "
                             "CREATE (:RelSeen)",
                             "before")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(apoc_->fired("relwatch"), 1u);  // ran...
  EXPECT_EQ(Count("MATCH (x:RelSeen) RETURN COUNT(*) AS c"), 0);  // no-op
}

TEST_F(ApocEmulatorTest, BeforePhaseAlphabeticalOrder) {
  // "zeta" runs AFTER "alpha" despite being installed first; alpha's
  // effect is visible to zeta within the same commit.
  ASSERT_TRUE(apoc_->Install("zeta",
                             "MATCH (m:AlphaMark) CREATE (:ZetaSawAlpha)",
                             "before")
                  .ok());
  ASSERT_TRUE(apoc_->Install("alpha", "CREATE (:AlphaMark)", "before").ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (z:ZetaSawAlpha) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ApocEmulatorTest, BeforePhaseDoesNotCascade) {
  // A before-trigger creating :Q never re-activates the same (or any)
  // trigger set within this transaction — single pass.
  ASSERT_TRUE(apoc_->Install("qmaker",
                             "UNWIND $createdNodes AS n CREATE (:Q)",
                             "before")
                  .ok());
  Exec("CREATE (:P)");
  // One pass: exactly one :Q for the one created :P, not a runaway chain.
  EXPECT_EQ(Count("MATCH (q:Q) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(apoc_->fired("qmaker"), 1u);
}

TEST_F(ApocEmulatorTest, AfterAsyncRunsPostCommitInNewTransaction) {
  ASSERT_TRUE(apoc_->Install("audit",
                             "UNWIND $createdNodes AS n "
                             "CREATE (:Audit)",
                             "afterAsync")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (a:Audit) RETURN COUNT(*) AS c"), 1);
  EXPECT_GE(db_.committed_transactions(), 2u);
}

TEST_F(ApocEmulatorTest, AfterAsyncCascadeExplicitlyBlocked) {
  // The trigger transaction creates :P nodes, but trigger transactions
  // never re-activate triggers (Section 5.1's metadata exclusion).
  ASSERT_TRUE(apoc_->Install("selffeed",
                             "UNWIND $createdNodes AS n CREATE (:P)",
                             "afterAsync")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 2);  // 1 user + 1
  EXPECT_EQ(apoc_->fired("selffeed"), 1u);                  // exactly once
}

TEST_F(ApocEmulatorTest, AfterAsyncVisibilityRace) {
  // Section 5.1: "triggers [may not] see the final state produced by the
  // transaction that activates them, since other transactions can occur
  // after the commit ... and before the trigger actually starts".
  ASSERT_TRUE(apoc_->Install("reader",
                             "MATCH (s:Shared) "
                             "CREATE (:Observed {v: s.v})",
                             "afterAsync")
                  .ok());
  Exec("CREATE (:Shared {v: 1})");
  // Now queue an interleaved transaction that bumps v before the next
  // trigger run, then touch the graph to activate the trigger.
  apoc_->QueueInterleaved("MATCH (s:Shared) SET s.v = 99");
  Exec("CREATE (:Touch)");
  // The trigger observed v = 99, not the activating transaction's view.
  EXPECT_EQ(Count("MATCH (o:Observed) RETURN MAX(o.v) AS v"), 99);
}

TEST_F(ApocEmulatorTest, AfterPhaseReadsDeletedNodes) {
  // The after phase runs in a new transaction once the deletion has
  // committed; the deleted node's properties must stay readable there.
  Exec("CREATE (:X {v: 7})");
  ASSERT_TRUE(apoc_->Install("mourn",
                             "UNWIND $deletedNodes AS n "
                             "CREATE (:Log {v: n.v})",
                             "after")
                  .ok());
  Exec("MATCH (x:X) DELETE x");
  EXPECT_EQ(Count("MATCH (l:Log {v: 7}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ApocEmulatorTest, StopAndStartPauseTriggers) {
  ASSERT_TRUE(
      apoc_->Install("log", "CREATE (:Log)", "before").ok());
  ASSERT_TRUE(apoc_->Stop("log").ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
  ASSERT_TRUE(apoc_->Start("log").ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ApocEmulatorTest, DropRemovesTrigger) {
  ASSERT_TRUE(apoc_->Install("log", "CREATE (:Log)", "before").ok());
  ASSERT_TRUE(apoc_->Drop("log").ok());
  EXPECT_EQ(apoc_->Drop("log").code(), StatusCode::kNotFound);
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
}

TEST_F(ApocEmulatorTest, UtilityParamsExposeTable2Shapes) {
  GraphStore& store = db_.store();
  GraphDelta delta;
  NodeId n = store.CreateNode({store.InternLabel("A")}, {});
  delta.created_nodes.push_back(n);
  delta.assigned_node_props.push_back(NodePropChange{
      n, store.InternPropKey("p"), Value::Int(1), Value::Int(2)});
  delta.assigned_labels.push_back(
      LabelChange{n, store.InternLabel("Extra")});
  Params params =
      ApocEmulator::BuildUtilityParams(delta, StoreView::Live(store));
  EXPECT_EQ(params["createdNodes"].list_value().size(), 1u);
  EXPECT_EQ(params["deletedNodes"].list_value().size(), 0u);
  const Value& by_key = params["assignedNodeProperties"];
  ASSERT_TRUE(by_key.is_map());
  const Value& entries = by_key.map_value().at("p");
  ASSERT_EQ(entries.list_value().size(), 1u);
  const Value::Map& quad = entries.list_value()[0].map_value();
  EXPECT_EQ(quad.at("old").int_value(), 1);
  EXPECT_EQ(quad.at("new").int_value(), 2);
  const Value& labels = params["assignedLabels"];
  EXPECT_EQ(labels.map_value().at("Extra").list_value().size(), 1u);
}

TEST_F(ApocEmulatorTest, DoWhenProcedureConditionalExecution) {
  Exec("CALL apoc.do.when(true, 'CREATE (:Yes)', 'CREATE (:No)', {}) "
       "YIELD value RETURN *");
  Exec("CALL apoc.do.when(false, 'CREATE (:Yes)', 'CREATE (:No)', {}) "
       "YIELD value RETURN *");
  EXPECT_EQ(Count("MATCH (y:Yes) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (n:No) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ApocEmulatorTest, DoWhenPassesParamsToNestedQuery) {
  Exec("CREATE (:Target {k: 5})");
  Exec("MATCH (t:Target) "
       "CALL apoc.do.when(true, 'SET x.seen = $mark', '', "
       "{x: t, mark: 7}) YIELD value RETURN *");
  EXPECT_EQ(Count("MATCH (t:Target {seen: 7}) RETURN COUNT(*) AS c"), 1);
}

class MemgraphEmulatorTest : public ::testing::Test {
 protected:
  MemgraphEmulatorTest() {
    auto owner = std::make_unique<MemgraphEmulator>(&db_);
    mg_ = owner.get();
    db_.SetRuntime(std::move(owner));
  }
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
  MemgraphEmulator* mg_ = nullptr;
};

TEST_F(MemgraphEmulatorTest, BeforeCommitRunsInsideTransaction) {
  ASSERT_TRUE(mg_->Install("log", translate::MgEventClass::kVertexCreate,
                           /*before_commit=*/true,
                           "UNWIND createdVertices AS v CREATE (:Log)")
                  .ok());
  const uint64_t commits_before = db_.committed_transactions();
  Exec("CREATE (:P), (:P)");
  // The trigger ran inside the same (single) transaction.
  EXPECT_EQ(db_.committed_transactions(), commits_before + 1);
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 2);
}

TEST_F(MemgraphEmulatorTest, AfterCommitRunsInNewTransaction) {
  ASSERT_TRUE(mg_->Install("log", translate::MgEventClass::kVertexCreate,
                           /*before_commit=*/false,
                           "UNWIND createdVertices AS v CREATE (:Log)")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
  EXPECT_GE(db_.committed_transactions(), 2u);
}

TEST_F(MemgraphEmulatorTest, AfterCommitReadsDeletedVertices) {
  Exec("CREATE (:X {v: 7})");
  ASSERT_TRUE(mg_->Install("mourn", translate::MgEventClass::kVertexDelete,
                           /*before_commit=*/false,
                           "UNWIND deletedVertices AS n "
                           "CREATE (:Log {v: n.v})")
                  .ok());
  Exec("MATCH (x:X) DELETE x");
  EXPECT_EQ(Count("MATCH (l:Log {v: 7}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(MemgraphEmulatorTest, EventClassDispatch) {
  ASSERT_TRUE(mg_->Install("nodes", translate::MgEventClass::kVertexCreate,
                           true, "CREATE (:NodeEvent)")
                  .ok());
  ASSERT_TRUE(mg_->Install("edges", translate::MgEventClass::kEdgeCreate,
                           true, "CREATE (:EdgeEvent)")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (e:NodeEvent) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (e:EdgeEvent) RETURN COUNT(*) AS c"), 0);
  Exec("MATCH (p:P) CREATE (p)-[:R]->(:Q)");
  // The second statement created a node AND an edge.
  EXPECT_EQ(Count("MATCH (e:EdgeEvent) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(mg_->fired("nodes"), 2u);
}

TEST_F(MemgraphEmulatorTest, UpdateClassCoversPropsAndLabels) {
  Exec("CREATE (:P {v: 1})");
  ASSERT_TRUE(mg_->Install("upd", translate::MgEventClass::kVertexUpdate,
                           true,
                           "UNWIND setVertexProperties AS sp "
                           "CREATE (:PropChange {key: sp.key, old: sp.old, "
                           "new: sp.new})")
                  .ok());
  Exec("MATCH (p:P) SET p.v = 2");
  EXPECT_EQ(Count("MATCH (c:PropChange {key: 'v', old: 1, new: 2}) "
                  "RETURN COUNT(*) AS c"),
            1);
}

TEST_F(MemgraphEmulatorTest, TriggersDoNotCascade) {
  ASSERT_TRUE(mg_->Install("selffeed",
                           translate::MgEventClass::kVertexCreate, false,
                           "UNWIND createdVertices AS v CREATE (:P)")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(mg_->fired("selffeed"), 1u);
}

TEST_F(MemgraphEmulatorTest, CreationOrderNotAlphabetical) {
  // Unlike APOC's 'before' phase, Memgraph runs triggers in creation
  // order: "zeta" (installed first) runs before "alpha".
  ASSERT_TRUE(mg_->Install("zeta", translate::MgEventClass::kVertexCreate,
                           true, "CREATE (:ZetaMark)")
                  .ok());
  ASSERT_TRUE(mg_->Install("alpha", translate::MgEventClass::kVertexCreate,
                           true,
                           "MATCH (m:ZetaMark) CREATE (:AlphaSawZeta)")
                  .ok());
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (a:AlphaSawZeta) RETURN COUNT(*) AS c"), 1);
}

TEST_F(ApocEmulatorTest, BeforePhaseFailureAbortsUserTransaction) {
  // A 'before'-phase trigger failure happens at the commit point of the
  // user transaction: everything rolls back.
  ASSERT_TRUE(apoc_->Install("boom", "CREATE (:X {v: 1 / 0})", "before")
                  .ok());
  auto st = db_.Execute("CREATE (:P)").status();
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(apoc_->Drop("boom").ok());
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(ApocEmulatorTest, AfterAsyncFailureLeavesUserCommitIntact) {
  // afterAsync runs post-commit: its failure cannot undo the user's work.
  ASSERT_TRUE(apoc_->Install("boom", "CREATE (:X {v: 1 / 0})", "afterAsync")
                  .ok());
  auto st = db_.Execute("CREATE (:P)").status();
  EXPECT_FALSE(st.ok());  // surfaced, but...
  ASSERT_TRUE(apoc_->Drop("boom").ok());
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 1);  // ...durable
  EXPECT_EQ(Count("MATCH (x:X) RETURN COUNT(*) AS c"), 0);
}

TEST_F(MemgraphEmulatorTest, BeforeCommitFailureAbortsUserTransaction) {
  ASSERT_TRUE(mg_->Install("boom", translate::MgEventClass::kVertexCreate,
                           /*before_commit=*/true,
                           "CREATE (:X {v: 1 / 0})")
                  .ok());
  auto st = db_.Execute("CREATE (:P)").status();
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(mg_->Drop("boom").ok());
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(MemgraphEmulatorTest, AfterCommitFailureLeavesUserCommitIntact) {
  ASSERT_TRUE(mg_->Install("boom", translate::MgEventClass::kVertexCreate,
                           /*before_commit=*/false,
                           "CREATE (:X {v: 1 / 0})")
                  .ok());
  auto st = db_.Execute("CREATE (:P)").status();
  EXPECT_FALSE(st.ok());
  ASSERT_TRUE(mg_->Drop("boom").ok());
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 1);
}

TEST_F(MemgraphEmulatorTest, InstallRejectsBadCypherAndDuplicates) {
  EXPECT_EQ(mg_->Install("t", translate::MgEventClass::kAny, true,
                         "NOT CYPHER AT ALL")
                .code(),
            StatusCode::kSyntaxError);
  ASSERT_TRUE(
      mg_->Install("t", translate::MgEventClass::kAny, true, "RETURN 1")
          .ok());
  EXPECT_EQ(mg_->Install("t", translate::MgEventClass::kAny, true,
                         "RETURN 1")
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(mg_->Drop("missing").code(), StatusCode::kNotFound);
}

TEST_F(MemgraphEmulatorTest, PredefinedVarsExposeTable4Shapes) {
  GraphStore& store = db_.store();
  GraphDelta delta;
  NodeId n = store.CreateNode({store.InternLabel("A")}, {});
  delta.created_nodes.push_back(n);
  delta.removed_node_props.push_back(NodePropChange{
      n, store.InternPropKey("p"), Value::Int(3), Value::Null()});
  delta.assigned_labels.push_back(
      LabelChange{n, store.InternLabel("Extra")});
  cypher::Row row =
      MemgraphEmulator::BuildPredefinedVars(delta, StoreView::Live(store));
  EXPECT_EQ(row.Get("createdVertices")->list_value().size(), 1u);
  EXPECT_EQ(row.Get("createdObjects")->list_value().size(), 1u);
  EXPECT_EQ(row.Get("removedVertexProperties")->list_value().size(), 1u);
  EXPECT_EQ(row.Get("setVertexLabels")->list_value().size(), 1u);
  // updatedVertices folds property and label updates together.
  EXPECT_EQ(row.Get("updatedVertices")->list_value().size(), 2u);
  EXPECT_EQ(row.Get("deletedEdges")->list_value().size(), 0u);
  // All fifteen Table 4 variables are bound.
  EXPECT_EQ(row.cols.size(), 15u);
}

}  // namespace
}  // namespace pgt::emul
