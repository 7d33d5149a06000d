// Static-analysis subsystem tests (src/analysis, docs/analysis.md): the
// plan-grounded triggering graph, predicate pruning with the interference
// check, incremental-vs-rebuild equivalence, schema narrowing, the
// registration-time termination policy, SHOW TRIGGER ANALYSIS, the
// pgt.analyzeTriggers procedure, and recovery interaction.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/schema/pg_schema.h"
#include "src/trigger/database.h"
#include "src/wal/fault_fs.h"

namespace pgt {
namespace {

using EdgeSet = std::set<std::pair<std::string, std::string>>;

class AnalysisTest : public ::testing::Test {
 protected:

  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  Status ExecError(const std::string& q) { return db_.Execute(q).status(); }

  // Syncs the graph (Analyze calls EnsureSynced) and returns the edges.
  EdgeSet Edges() {
    (void)db_.AnalyzeTriggers();
    return db_.analyzer().Edges();
  }
  EdgeSet Pruned() {
    (void)db_.AnalyzeTriggers();
    return db_.analyzer().PrunedEdges();
  }

  Database db_;
};

// --- Plan-grounded edge derivation ----------------------------------------

TEST_F(AnalysisTest, EdgesFollowInferredWriteSets) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER B AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER C AFTER CREATE ON 'Z' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"A", "B"}));
  EXPECT_FALSE(e.count({"B", "A"}));
  EXPECT_FALSE(e.count({"A", "C"}));
  EXPECT_FALSE(e.count({"B", "C"}));
}

TEST_F(AnalysisTest, SetNullIsRemovalNotSet) {
  // SET n.q = null removes the property: it must raise REMOVE, not SET.
  Exec("CREATE TRIGGER W AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.q = null END");
  Exec("CREATE TRIGGER OnSet AFTER SET ON 'L'.'q' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnRemove AFTER REMOVE ON 'L'.'q' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"W", "OnRemove"}));
  EXPECT_FALSE(e.count({"W", "OnSet"}));
}

TEST_F(AnalysisTest, NonLiteralSetMayAlsoRemove) {
  // SET n.q = NEW.x can install null (a removal) when x is absent.
  Exec("CREATE TRIGGER W AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.q = NEW.x END");
  Exec("CREATE TRIGGER OnSet AFTER SET ON 'L'.'q' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  Exec("CREATE TRIGGER OnRemove AFTER REMOVE ON 'L'.'q' FOR EACH NODE "
       "BEGIN CREATE (:X) END");
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"W", "OnSet"}));
  EXPECT_TRUE(e.count({"W", "OnRemove"}));
}

TEST_F(AnalysisTest, BeforeWritesOnlyReachCommitTimeMonitors) {
  // BEFORE-trigger writes fold into the statement delta without
  // statement-level reprocessing; they surface only at the commit point.
  Exec("CREATE TRIGGER B1 BEFORE CREATE ON 'P' FOR EACH NODE "
       "BEGIN SET NEW.x = 1 END");
  Exec("CREATE TRIGGER Aft AFTER SET ON 'P'.'x' FOR EACH NODE "
       "BEGIN CREATE (:Y) END");
  Exec("CREATE TRIGGER Onc ONCOMMIT SET ON 'P'.'x' FOR EACH NODE "
       "BEGIN MATCH (n:Dummy) SET n.z = 1 END");
  EdgeSet e = Edges();
  EdgeSet p = Pruned();
  EXPECT_FALSE(e.count({"B1", "Aft"}));
  EXPECT_FALSE(p.count({"B1", "Aft"}));
  EXPECT_TRUE(e.count({"B1", "Onc"}));
}

// --- Predicate pruning and interference -----------------------------------

TEST_F(AnalysisTest, ConstantWriteRefutingGuardIsPruned) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = 1 END");
  Exec("CREATE TRIGGER G AFTER SET ON 'L'.'v' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN CREATE (:Y) END");
  EXPECT_FALSE(Edges().count({"A", "G"}));
  EXPECT_TRUE(Pruned().count({"A", "G"}));
}

TEST_F(AnalysisTest, SatisfyingConstantIsNotPruned) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = 99 END");
  Exec("CREATE TRIGGER G AFTER SET ON 'L'.'v' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN CREATE (:Y) END");
  EXPECT_TRUE(Edges().count({"A", "G"}));
}

TEST_F(AnalysisTest, InterferingWriterResurrectsPrunedEdge) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = 1 END");
  Exec("CREATE TRIGGER G AFTER SET ON 'L'.'v' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN CREATE (:Y) END");
  EXPECT_TRUE(Pruned().count({"A", "G"}));

  // C writes a statically-unknown value into L.v: another trigger may now
  // flip the property to a guard-satisfying value before G's WHEN runs, so
  // pruning A -> G is no longer sound.
  Exec("CREATE TRIGGER C AFTER CREATE ON 'P2' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = NEW.seed END");
  EXPECT_TRUE(Edges().count({"A", "G"}));
  EXPECT_TRUE(Edges().count({"C", "G"}));

  // Removing the interferer re-prunes; disabling it must too.
  Exec("DROP TRIGGER C");
  EXPECT_TRUE(Pruned().count({"A", "G"}));
  Exec("CREATE TRIGGER C AFTER CREATE ON 'P2' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = NEW.seed END");
  EXPECT_TRUE(Edges().count({"A", "G"}));
  Exec("ALTER TRIGGER C DISABLE");
  EXPECT_TRUE(Pruned().count({"A", "G"}));
  Exec("ALTER TRIGGER C ENABLE");
  EXPECT_TRUE(Edges().count({"A", "G"}));
}

TEST_F(AnalysisTest, SelfRefutingGuardDowngradesSelfLoop) {
  // The action installs a constant that refutes its own WHEN: the self-loop
  // is pruned and the set is reported terminating.
  Exec("CREATE TRIGGER Loop AFTER SET ON 'P'.'v' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN SET NEW.v = 0 END");
  EXPECT_TRUE(Pruned().count({"Loop", "Loop"}));
  auto report = db_.AnalyzeTriggers();
  EXPECT_TRUE(report.guaranteed_termination) << report.ToString();
}

TEST_F(AnalysisTest, UnguardedCycleReported) {
  Exec("CREATE TRIGGER Ping AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER Pong AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  auto report = db_.AnalyzeTriggers();
  EXPECT_FALSE(report.guaranteed_termination);
  ASSERT_EQ(report.cycles.size(), 1u);
  EXPECT_FALSE(report.cycles[0].second);  // unguarded
  // Edge-order path closing back on the smallest member: A -> B -> A.
  ASSERT_EQ(report.cycles[0].first.size(), 3u);
  EXPECT_EQ(report.cycles[0].first.front(), report.cycles[0].first.back());
}

// --- Incremental maintenance ≡ full rebuild --------------------------------

TEST_F(AnalysisTest, IncrementalMaintenanceMatchesRebuild) {
  // Drive a DDL sequence that exercises create/drop/disable/enable plus
  // pruning and interference transitions; the incrementally-maintained
  // graph must equal a from-scratch rebuild at the end.
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER B AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = 1 END");
  Exec("CREATE TRIGGER G AFTER SET ON 'L'.'v' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN CREATE (:P) END");
  Exec("CREATE TRIGGER I AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN MATCH (n:L) SET n.v = NEW.seed END");
  Exec("CREATE TRIGGER D AFTER DELETE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  Exec("DROP TRIGGER D");
  Exec("ALTER TRIGGER I DISABLE");
  Exec("ALTER TRIGGER B ENABLE");  // no-op enable of an enabled trigger
  Exec("CREATE TRIGGER E ONCOMMIT CREATE ON 'Q' FOR EACH NODE "
       "BEGIN MATCH (x:Q) DETACH DELETE x END");

  EdgeSet inc_edges = Edges();
  EdgeSet inc_pruned = Pruned();
  EXPECT_TRUE(inc_pruned.count({"B", "G"}));  // interferer disabled

  db_.analyzer().Invalidate();  // force a from-scratch rebuild
  EXPECT_EQ(Edges(), inc_edges);
  EXPECT_EQ(Pruned(), inc_pruned);
}

// --- Schema narrowing ------------------------------------------------------

TEST_F(AnalysisTest, StrictSchemaNarrowsWildcardWrites) {
  Exec("CREATE TRIGGER Sweep AFTER CREATE ON 'Tick' FOR EACH NODE "
       "BEGIN MATCH (x) DETACH DELETE x END");
  Exec("CREATE TRIGGER OnPerson AFTER DELETE ON 'Person' FOR EACH NODE "
       "BEGIN MATCH (n:Tick) SET n.z = 1 END");
  Exec("CREATE TRIGGER OnGhost AFTER DELETE ON 'Ghost' FOR EACH NODE "
       "BEGIN MATCH (n:Tick) SET n.z = 1 END");
  // Unconstrained: the wildcard delete may hit anything.
  EdgeSet e = Edges();
  EXPECT_TRUE(e.count({"Sweep", "OnPerson"}));
  EXPECT_TRUE(e.count({"Sweep", "OnGhost"}));

  auto schema = schema::ParseSchemaDdl(R"(
      CREATE GRAPH TYPE Tiny STRICT {
        (PersonType : Person {name STRING})
      })");
  ASSERT_TRUE(schema.ok()) << schema.status();
  db_.AttachSchema(std::move(schema).value());
  // STRICT: only declared labels exist, so the delete narrows to Person.
  e = Edges();
  EXPECT_TRUE(e.count({"Sweep", "OnPerson"}));
  EXPECT_FALSE(e.count({"Sweep", "OnGhost"}));

  db_.AttachSchema(std::nullopt);
  EXPECT_TRUE(Edges().count({"Sweep", "OnGhost"}));
}

// --- Termination policy ----------------------------------------------------

TEST(AnalysisPolicyTest, RejectBlocksUnguardedCycleNamingIt) {
  EngineOptions o;
  o.termination_policy = TerminationPolicy::kReject;
  Database db(o);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Ping AFTER CREATE ON 'P' "
                         "FOR EACH NODE BEGIN CREATE (:Q) END")
                  .ok());
  Status st = db.Execute("CREATE TRIGGER Pong AFTER CREATE ON 'Q' "
                         "FOR EACH NODE BEGIN CREATE (:P) END")
                  .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unguarded triggering cycle"),
            std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("Pong -> Ping -> Pong"), std::string::npos)
      << st.message();
  // The offending trigger was rolled back: the catalog holds Ping only and
  // the cascade cannot loop.
  EXPECT_EQ(db.catalog().All().size(), 1u);
  ASSERT_TRUE(db.Execute("CREATE (:P)").ok());
}

TEST(AnalysisPolicyTest, RejectBlocksSelfLoop) {
  EngineOptions o;
  o.termination_policy = TerminationPolicy::kReject;
  Database db(o);
  Status st = db.Execute("CREATE TRIGGER Loop AFTER CREATE ON 'P' "
                         "FOR EACH NODE BEGIN CREATE (:P) END")
                  .status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Loop -> Loop"), std::string::npos)
      << st.message();
}

TEST(AnalysisPolicyTest, RejectAllowsGuardedCycle) {
  // Guarded cycles may converge (the paper's bed-availability example):
  // reject only fires when a cycle member lacks a WHEN guard.
  EngineOptions o;
  o.termination_policy = TerminationPolicy::kReject;
  Database db(o);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Ping AFTER CREATE ON 'P' "
                         "FOR EACH NODE WHEN NEW.v > 0 "
                         "BEGIN CREATE (:Q {v: NEW.v - 1}) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Pong AFTER CREATE ON 'Q' "
                         "FOR EACH NODE WHEN NEW.v > 0 "
                         "BEGIN CREATE (:P {v: NEW.v - 1}) END")
                  .ok());
  EXPECT_EQ(db.catalog().All().size(), 2u);
}

TEST(AnalysisPolicyTest, RejectAllowsPrunedCycle) {
  // The cycle-closing edge is provably dead (constant refutes the guard):
  // no enabled cycle remains, so the CREATE is accepted.
  EngineOptions o;
  o.termination_policy = TerminationPolicy::kReject;
  Database db(o);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Damp AFTER SET ON 'P'.'v' "
                         "FOR EACH NODE WHEN NEW.v > 10 "
                         "BEGIN SET NEW.v = 0 END")
                  .ok());
  EXPECT_EQ(db.catalog().All().size(), 1u);
}

TEST(AnalysisPolicyTest, WarnIsDefaultAndCitesCycleWithoutEnforcing) {
  Database db;  // termination_policy defaults to kWarn
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Loop AFTER CREATE ON 'P' "
                         "FOR EACH NODE BEGIN CREATE (:P) END")
                  .ok());
  Status st = db.Execute("CREATE (:P)").status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCascadeLimitExceeded);
  EXPECT_NE(
      st.message().find("static analysis found triggering cycle Loop -> "
                        "Loop"),
      std::string::npos)
      << st.message();
}

TEST(AnalysisPolicyTest, DefaultAnalyzerTracksDdlWithoutShow) {
  // The graph is maintained on every trigger DDL, not rebuilt on demand:
  // entry_count() never syncs, so it only moves if the DDL path did.
  Database db;
  EXPECT_EQ(db.analyzer().entry_count(), 0u);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER A AFTER CREATE ON 'P' "
                         "FOR EACH NODE BEGIN CREATE (:Q) END")
                  .ok());
  EXPECT_EQ(db.analyzer().entry_count(), 1u);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER B AFTER CREATE ON 'Q' "
                         "FOR EACH NODE BEGIN CREATE (:R) END")
                  .ok());
  EXPECT_EQ(db.analyzer().entry_count(), 2u);
  EXPECT_EQ(db.analyzer().edge_count(), 1u);
  ASSERT_TRUE(db.Execute("DROP TRIGGER A").ok());
  EXPECT_EQ(db.analyzer().entry_count(), 1u);
  EXPECT_EQ(db.analyzer().edge_count(), 0u);
}

TEST(AnalysisPolicyTest, WarnCascadeAbortCitesStaticCycle) {
  EngineOptions o;
  o.max_cascade_depth = 5;
  Database db(o);
  ASSERT_TRUE(db.Execute("CREATE TRIGGER Loop AFTER CREATE ON 'P' "
                         "FOR EACH NODE BEGIN CREATE (:P) END")
                  .ok());
  Status st = db.Execute("CREATE (:P)").status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCascadeLimitExceeded);
  EXPECT_NE(
      st.message().find("static analysis found triggering cycle Loop -> "
                        "Loop"),
      std::string::npos)
      << st.message();
}

// --- Surfaces: SHOW TRIGGER ANALYSIS and pgt.analyzeTriggers ---------------

TEST_F(AnalysisTest, ShowAnalysisIsDeterministicAndNameSorted) {
  Exec("CREATE TRIGGER Zeta AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER Alpha AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  Exec("CREATE TRIGGER Mid AFTER CREATE ON 'R' FOR EACH NODE "
       "WHEN NEW.v > 1 BEGIN CREATE (:S) END");
  auto r1 = db_.Execute("SHOW TRIGGER ANALYSIS");
  auto r2 = db_.Execute("SHOW TRIGGER ANALYSIS;");
  ASSERT_TRUE(r1.ok()) << r1.status();
  ASSERT_TRUE(r2.ok()) << r2.status();
  ASSERT_EQ(r1.value().rows.size(), 3u);
  EXPECT_EQ(r1.value().rows[0][0].ToString(),
            r2.value().rows[0][0].ToString());
  EXPECT_EQ(r1.value().rows[0][0].string_value(), "Alpha");
  EXPECT_EQ(r1.value().rows[1][0].string_value(), "Mid");
  EXPECT_EQ(r1.value().rows[2][0].string_value(), "Zeta");
  // Verdict column reports the unguarded Alpha/Zeta cycle.
  const std::string verdict(r1.value().rows[0][8].string_value());
  EXPECT_NE(verdict.find("unguarded: 1"), std::string::npos) << verdict;
  // wakes column lists out-edges.
  EXPECT_EQ(r1.value().rows[0][6].string_value(), "Zeta");
}

TEST_F(AnalysisTest, AnalyzeTriggersProcedure) {
  Exec("CREATE TRIGGER A AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  auto r = db_.Execute("CALL pgt.analyzeTriggers() YIELD line RETURN line");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_FALSE(r.value().rows.empty());
  EXPECT_NE(r.value().rows[0][0].string_value().find("TRIGGER ANALYSIS"),
            std::string::npos);
}

// --- Recovery --------------------------------------------------------------

TEST(AnalysisRecoveryTest, RecoveryReplaysDdlPastRejectPolicy) {
  // A cycle installed under kWarn must recover verbatim even when the
  // database reopens under kReject; only fresh CREATEs are policed.
  wal::MemVfs vfs;
  wal::WalOptions w;
  w.dir = "/db";
  w.vfs = &vfs;
  w.fsync = true;
  {
    auto db = Database::Open(w, EngineOptions{});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Execute("CREATE TRIGGER Ping AFTER CREATE ON 'P' "
                               "FOR EACH NODE BEGIN CREATE (:Q) END")
                    .ok());
    ASSERT_TRUE((*db)->Execute("CREATE TRIGGER Pong AFTER CREATE ON 'Q' "
                               "FOR EACH NODE BEGIN CREATE (:P) END")
                    .ok());
  }
  EngineOptions strict;
  strict.termination_policy = TerminationPolicy::kReject;
  auto db = Database::Open(w, strict);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->catalog().All().size(), 2u);
  // The policy still applies to post-recovery DDL.
  Status st = (*db)->Execute("CREATE TRIGGER Loop AFTER CREATE ON 'R' "
                             "FOR EACH NODE BEGIN CREATE (:R) END")
                  .status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unguarded triggering cycle"),
            std::string::npos);
}

}  // namespace
}  // namespace pgt
