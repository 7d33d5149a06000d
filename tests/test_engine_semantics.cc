// Behavioral tests of the native PG-Trigger engine (Section 4.2 semantics):
// action times, granularities, transition variables, ordering, cascading
// with the execution stack, ONCOMMIT fixpoint and rollback, DETACHED
// autonomous transactions, and the legality guards.

#include <gtest/gtest.h>

#include "src/trigger/database.h"

namespace pgt {
namespace {

class EngineSemanticsTest : public ::testing::Test {
 protected:
  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  Status ExecError(const std::string& q) { return db_.Execute(q).status(); }
  int64_t Count(const std::string& q) {
    auto r = db_.Execute(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? r.value().rows[0][0].int_value() : -1;
  }
  uint64_t Fired(const std::string& name) {
    return db_.stats().per_trigger[name].fired;
  }

  Database db_;
};

TEST_F(EngineSemanticsTest, AfterTriggerFiresPerItem) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Log {who: NEW.name}) END");
  Exec("CREATE (:P {name: 'a'}), (:P {name: 'b'}), (:Q {name: 'c'})");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Fired("T"), 2u);
  EXPECT_EQ(Count("MATCH (l:Log {who: 'a'}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, AllGranularityFiresOncePerStatement) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR ALL NODES "
       "BEGIN CREATE (:Batch {n: SIZE(NEWNODES)}) END");
  Exec("UNWIND RANGE(1, 5) AS i CREATE (:P {i: i})");
  EXPECT_EQ(Fired("T"), 1u);
  EXPECT_EQ(Count("MATCH (b:Batch) RETURN b.n AS n"), 5);
}

TEST_F(EngineSemanticsTest, WhenExpressionGates) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v > 10 BEGIN CREATE (:Big) END");
  Exec("CREATE (:P {v: 5}), (:P {v: 15})");
  EXPECT_EQ(Count("MATCH (b:Big) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db_.stats().per_trigger["T"].considered, 2u);
  EXPECT_EQ(Fired("T"), 1u);
}

TEST_F(EngineSemanticsTest, WhenPipelineBindingsFlowToAction) {
  // docs/semantics.md D2: the action runs once per condition row, with
  // bindings.
  Exec("CREATE (:H {name: 'x'}), (:H {name: 'y'})");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN MATCH (h:H) BEGIN CREATE (:Link {to: h.name}) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Link) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Fired("T"), 1u);
  EXPECT_EQ(db_.stats().per_trigger["T"].action_rows, 2u);
}

TEST_F(EngineSemanticsTest, TransitionVarSurvivesWhenProjection) {
  // NEW must stay usable in the action even after WITH re-scoping.
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN MATCH (n:P) WITH COUNT(n) AS c WHERE c >= 1 "
       "BEGIN SET NEW.tagged = true END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (p:P {tagged: true}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, OldAndNewForPropertyChange) {
  Exec("CREATE (:L {p: 'before'})");
  Exec("CREATE TRIGGER T AFTER SET ON 'L'.'p' FOR EACH NODE "
       "WHEN OLD.p <> NEW.p "
       "BEGIN CREATE (:Change {was: OLD.p, is: NEW.p}) END");
  Exec("MATCH (n:L) SET n.p = 'after'");
  EXPECT_EQ(Count("MATCH (c:Change {was: 'before', is: 'after'}) "
                  "RETURN COUNT(*) AS c"),
            1);
  // Setting the same value again: OLD = NEW, condition false.
  Exec("MATCH (n:L) SET n.p = 'after'");
  EXPECT_EQ(Count("MATCH (c:Change) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, DeleteTriggerReadsGhost) {
  Exec("CREATE (:P {name: 'gone'})");
  Exec("CREATE TRIGGER T AFTER DELETE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Obit {who: OLD.name}) END");
  Exec("MATCH (p:P) DELETE p");
  EXPECT_EQ(Count("MATCH (o:Obit {who: 'gone'}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, RelationshipTriggerBindsRel) {
  Exec("CREATE (:A {k: 'a'}), (:B {k: 'b'})");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'R' FOR EACH RELATIONSHIP "
       "BEGIN CREATE (:Seen {src: startNode(NEW).k, dst: endNode(NEW).k}) "
       "END");
  Exec("MATCH (a:A), (b:B) CREATE (a)-[:R]->(b)");
  EXPECT_EQ(Count("MATCH (s:Seen {src: 'a', dst: 'b'}) RETURN COUNT(*) AS "
                  "c"),
            1);
}

TEST_F(EngineSemanticsTest, CreationTimeOrdering) {
  // Second-installed trigger must observe the first one's effect.
  Exec("CREATE TRIGGER First AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Mark {step: 1}) END");
  Exec("CREATE TRIGGER Second AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN MATCH (m:Mark) WITH COUNT(m) AS marks WHERE marks >= 1 "
       "BEGIN CREATE (:Confirm) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (c:Confirm) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, CascadingAcrossTriggers) {
  // P -> Q -> R chain: each creation triggers the next.
  Exec("CREATE TRIGGER PtoQ AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER QtoR AFTER CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:R) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (q:Q) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (r:R) RETURN COUNT(*) AS c"), 1);
  EXPECT_GE(db_.stats().cascade_depth_max, 2u);
}

TEST_F(EngineSemanticsTest, RecursiveTriggerBoundedByDepthLimit) {
  db_.options().max_cascade_depth = 8;
  Exec("CREATE TRIGGER Loop AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  Status st = ExecError("CREATE (:P)");
  EXPECT_EQ(st.code(), StatusCode::kCascadeLimitExceeded);
  // The whole transaction rolled back: no P nodes at all.
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 0);
}

TEST_F(EngineSemanticsTest, BoundedRecursionConverges) {
  // Countdown: each P with v > 0 creates a P with v - 1. Terminates.
  Exec("CREATE TRIGGER Countdown AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v > 0 BEGIN CREATE (:P {v: NEW.v - 1}) END");
  Exec("CREATE (:P {v: 5})");
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 6);
  EXPECT_EQ(db_.stats().cascade_depth_max, 6u);
}

TEST_F(EngineSemanticsTest, BeforeTriggerConditionsNewState) {
  Exec("CREATE TRIGGER Norm BEFORE CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v IS NULL BEGIN SET NEW.v = 0 END");
  Exec("CREATE (:P), (:P {v: 7})");
  EXPECT_EQ(Count("MATCH (p:P {v: 0}) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (p:P {v: 7}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, BeforeTriggerWritesRaiseNoEvents) {
  Exec("CREATE TRIGGER Norm BEFORE CREATE ON 'P' FOR EACH NODE "
       "BEGIN SET NEW.v = 0 END");
  Exec("CREATE TRIGGER Watch AFTER SET ON 'P'.'v' FOR EACH NODE "
       "BEGIN CREATE (:Echo) END");
  Exec("CREATE (:P)");
  // The BEFORE trigger's SET folds into the statement silently (D1).
  EXPECT_EQ(Count("MATCH (e:Echo) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(Count("MATCH (p:P {v: 0}) RETURN COUNT(*) AS c"), 1);
  // A user SET afterwards does raise the event.
  Exec("MATCH (p:P) SET p.v = 1");
  EXPECT_EQ(Count("MATCH (e:Echo) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, BeforeTriggerTouchingOtherItemsAborts) {
  Exec("CREATE (:Other {v: 1})");
  Exec("CREATE TRIGGER Bad BEFORE CREATE ON 'P' FOR EACH NODE "
       "WHEN MATCH (o:Other) BEGIN SET o.v = 2 END");
  Status st = ExecError("CREATE (:P)");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 0);  // rolled back
  EXPECT_EQ(Count("MATCH (o:Other {v: 1}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, OnCommitSeesWholeTransaction) {
  Exec("CREATE TRIGGER Tally ONCOMMIT CREATE ON 'P' FOR ALL NODES "
       "BEGIN CREATE (:Tally {n: SIZE(NEWNODES)}) END");
  auto r = db_.ExecuteTx({"CREATE (:P)", "CREATE (:P)", "CREATE (:P)"});
  ASSERT_TRUE(r.ok()) << r.status();
  // One ONCOMMIT activation over the accumulated delta of 3 statements.
  EXPECT_EQ(Count("MATCH (t:Tally) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (t:Tally) RETURN t.n AS n"), 3);
}

TEST_F(EngineSemanticsTest, OnCommitSideEffectsIncludedBeforeCommit) {
  // D4: an ONCOMMIT trigger whose action raises another ONCOMMIT trigger's
  // event — both must be folded in before the physical commit.
  Exec("CREATE TRIGGER Stage1 ONCOMMIT CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Q) END");
  Exec("CREATE TRIGGER Stage2 ONCOMMIT CREATE ON 'Q' FOR EACH NODE "
       "BEGIN CREATE (:R) END");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (q:Q) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (r:R) RETURN COUNT(*) AS c"), 1);
  EXPECT_GE(db_.stats().oncommit_rounds_max, 2u);
}

TEST_F(EngineSemanticsTest, OnCommitFailureRollsBackWholeTransaction) {
  Exec("CREATE TRIGGER Guard ONCOMMIT CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:X {v: 1 / 0}) END");
  Status st = ExecError("CREATE (:P)");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(EngineSemanticsTest, OnCommitFixpointBoundedByRounds) {
  Exec("CREATE TRIGGER Pump ONCOMMIT CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  Status st = ExecError("CREATE (:P)");
  EXPECT_EQ(st.code(), StatusCode::kCascadeLimitExceeded);
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(db_.stats().oncommit_rounds_max,
            static_cast<uint64_t>(PgTriggerEngine::kMaxOnCommitRounds));
}

TEST_F(EngineSemanticsTest, DetachedRunsAfterCommitInOwnTransaction) {
  Exec("CREATE TRIGGER Audit DETACHED CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:AuditLog {who: NEW.name}) END");
  Exec("CREATE (:P {name: 'p1'})");
  EXPECT_EQ(Count("MATCH (a:AuditLog {who: 'p1'}) RETURN COUNT(*) AS c"),
            1);
  EXPECT_EQ(db_.stats().detached_runs, 1u);
  // The audit ran in its own transaction after the user's commit.
  EXPECT_GE(db_.committed_transactions(), 2u);
}

TEST_F(EngineSemanticsTest, DetachedFailureDoesNotAffectUserTransaction) {
  Exec("CREATE TRIGGER Flaky DETACHED CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:X {v: 1 / 0}) END");
  // The user statement succeeds; the detached failure is contained.
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (p:P) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count("MATCH (x:X) RETURN COUNT(*) AS c"), 0);
  EXPECT_EQ(db_.stats().per_trigger["Flaky"].errors, 1u);
}

TEST_F(EngineSemanticsTest, DetachedChainBounded) {
  Exec("CREATE TRIGGER Chain DETACHED CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:P) END");
  Status st = ExecError("CREATE (:P)");
  EXPECT_EQ(st.code(), StatusCode::kCascadeLimitExceeded);
  EXPECT_EQ(db_.stats().detached_runs,
            static_cast<uint64_t>(PgTriggerEngine::kMaxDetachedQueue));
}

TEST_F(EngineSemanticsTest, DetachedDeleteReadsInjectedGhost) {
  Exec("CREATE (:P {name: 'x'})");
  Exec("CREATE TRIGGER Obit DETACHED DELETE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Obit {who: OLD.name}) END");
  Exec("MATCH (p:P) DELETE p");
  EXPECT_EQ(Count("MATCH (o:Obit {who: 'x'}) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, TargetLabelWritesRejectedAtInstall) {
  // Section 4.2: the statement may not set/remove the target label —
  // literal occurrences are rejected statically at install time.
  Exec("CREATE (:Helper)");
  Status st = ExecError(
      "CREATE TRIGGER T AFTER CREATE ON 'Tracked' FOR EACH NODE "
      "BEGIN MATCH (h:Helper) SET h:Extra:Tracked END");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  Status st2 = ExecError(
      "CREATE TRIGGER T2 AFTER CREATE ON 'Tracked' FOR EACH NODE "
      "BEGIN MATCH (h:Tracked) REMOVE h:Tracked END");
  EXPECT_EQ(st2.code(), StatusCode::kConstraintViolation);
}

TEST_F(EngineSemanticsTest, DisabledTriggerDoesNotFire) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Log) END");
  Exec("ALTER TRIGGER T DISABLE");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
  Exec("ALTER TRIGGER T ENABLE");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 1);
}

TEST_F(EngineSemanticsTest, DropTriggerStopsFiring) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Log) END");
  Exec("DROP TRIGGER T");
  Exec("CREATE (:P)");
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
}

TEST_F(EngineSemanticsTest, ActionErrorAbortsTransaction) {
  Exec("CREATE TRIGGER Bad AFTER CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:X {v: 1 / 0}) END");
  EXPECT_FALSE(ExecError("CREATE (:P)").ok());
  EXPECT_EQ(Count("MATCH (n) RETURN COUNT(*) AS c"), 0);
}

TEST_F(EngineSemanticsTest, TriggersDoNotFireOnRolledBackWork) {
  Exec("CREATE TRIGGER T DETACHED CREATE ON 'P' FOR EACH NODE "
       "BEGIN CREATE (:Log) END");
  // Statement fails after creating :P — no detached activation may leak.
  EXPECT_FALSE(ExecError("CREATE (:P) WITH 1 AS x RETURN x / 0").ok());
  EXPECT_EQ(Count("MATCH (l:Log) RETURN COUNT(*) AS c"), 0);
}

TEST_F(EngineSemanticsTest, PseudoLabelInActionPattern) {
  // The Section 6.2 idiom MATCH (pn:NEWNODES)-... in the action.
  Exec("CREATE (:H {name: 'ward'})");
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR ALL NODES "
       "BEGIN MATCH (pn:NEWNODES) MATCH (h:H) CREATE (pn)-[:At]->(h) END");
  Exec("CREATE (:P), (:P)");
  EXPECT_EQ(Count("MATCH (:P)-[:At]->(:H) RETURN COUNT(*) AS c"), 2);
}

TEST_F(EngineSemanticsTest, StatsTrackConsideredAndFired) {
  Exec("CREATE TRIGGER T AFTER CREATE ON 'P' FOR EACH NODE "
       "WHEN NEW.v > 0 BEGIN CREATE (:Log) END");
  Exec("CREATE (:P {v: 1}), (:P {v: -1})");
  const TriggerStats& stats = db_.stats().per_trigger["T"];
  EXPECT_EQ(stats.considered, 2u);
  EXPECT_EQ(stats.fired, 1u);
}

}  // namespace
}  // namespace pgt
