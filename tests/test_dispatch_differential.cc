// Recorded-output suite for event-keyed dispatch (Section 4.2 event
// matching through the DispatchIndex). tests/dispatch_corpus.expected pins,
// for every trigger ordering x label-event semantics configuration, the
// firing log, per-trigger stats and final node count of an end-to-end
// workload, plus the exact activations MatchAll derives at all four action
// times. The transcript was recorded while the retired per-trigger linear
// scan still coexisted with the index and produced byte-identical output
// for every section (tests/transcript.h holds the harness).
//
// Also holds the statement-snapshot and index-maintenance tests, and the
// delta-lifetime regression tests: relationship events on rels deleted
// later in the same transaction, and DROP TRIGGER while DETACHED
// activations are queued.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/trigger/database.h"
#include "tests/transcript.h"

namespace pgt {
namespace {

// ---------------------------------------------------------------------------
// Helpers

TriggerDef ParseDef(const std::string& ddl) {
  auto r = TriggerDdlParser::ParseCreate(ddl);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

/// Canonical text form of an activation (trigger identity + full transition
/// environment), as recorded in the transcript.
std::string Describe(const Activation& act) {
  std::ostringstream os;
  os << act.trigger->name << "{";
  for (const auto& [var, v] : act.env.singles) {
    os << "s:" << cypher::TransVars::Name(var) << "=" << v.ToString() << ";";
  }
  for (const auto& [var, sb] : act.env.sets) {
    os << "S:" << cypher::TransVars::Name(var) << (sb.is_node ? ":n[" : ":r[");
    for (uint64_t id : sb.ids) os << id << ",";
    os << "];";
  }
  for (cypher::TransVarId var : act.env.old_view_vars) {
    os << "o:" << cypher::TransVars::Name(var) << ";";
  }
  // Sealed overlays are sorted by (item, key) already.
  auto overlay = [&os](const char* tag,
                       const std::vector<cypher::TransitionEnv::OldImage>& m) {
    uint64_t current = 0;
    bool open = false;
    for (const cypher::TransitionEnv::OldImage& e : m) {
      if (!open || e.item != current) {
        if (open) os << "};";
        os << tag << e.item << "{";
        current = e.item;
        open = true;
      }
      os << e.key << "=" << e.value.ToString() << ",";
    }
    if (open) os << "};";
  };
  overlay("On:", act.env.old_node_props);
  overlay("Or:", act.env.old_rel_props);
  os << "}";
  return os.str();
}

std::vector<std::string> DescribeAll(PgTriggerEngine& engine, ActionTime time,
                                     const GraphDelta& delta) {
  std::vector<std::string> out;
  for (const Activation& act : engine.MatchAll(time, delta)) {
    out.push_back(Describe(act));
  }
  return out;
}

/// Runs `statement` inside its own transaction and returns the raw
/// statement delta (commit still runs the full trigger pipeline).
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

int64_t Count(Database& db, const std::string& query) {
  auto r = db.Execute(query);
  EXPECT_TRUE(r.ok()) << r.status();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].int_value();
}

/// The firing-order log: trigger actions append `CREATE (:Log {t: name})`;
/// Log nodes come back in id order, i.e. exactly the firing order.
std::vector<std::string> FiringLog(Database& db) {
  std::vector<std::string> out;
  auto r = db.Execute("MATCH (l:Log) RETURN l.t");
  EXPECT_TRUE(r.ok()) << r.status();
  for (const auto& row : r->rows) out.emplace_back(row[0].string_value());
  return out;
}

// ---------------------------------------------------------------------------
// The dispatch corpus: one recorded section per (trigger ordering x
// label-event semantics) configuration.

/// Trigger set spanning all four action times, both granularities, both
/// item kinds, property and label events. Names are chosen so that name
/// order differs from creation order.
const char* kCorpusTriggers[] = {
    "CREATE TRIGGER Zcreate AFTER CREATE ON 'M' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Zcreate'}) END",
    "CREATE TRIGGER Acreate AFTER CREATE ON 'M' FOR ALL NODES "
    "BEGIN CREATE (:Log {t: 'Acreate'}) END",
    "CREATE TRIGGER Ybefore BEFORE SET ON 'M'.'p' FOR EACH NODE "
    "BEGIN SET NEW.btag = 1 END",
    "CREATE TRIGGER Bset AFTER SET ON 'M'.'p' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Bset'}) END",
    "CREATE TRIGGER Xlabel AFTER SET ON 'Extra' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Xlabel'}) END",
    "CREATE TRIGGER Crem AFTER REMOVE ON 'Extra' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Crem'}) END",
    // Label events on the target 'M': under kTargetSetChange they fire
    // when another label (here 'Extra') changes on an 'M' node; under
    // kMonitoredLabel only when 'M' itself is set or removed.
    "CREATE TRIGGER Kmark AFTER SET ON 'M' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Kmark'}) END",
    "CREATE TRIGGER Lunmark AFTER REMOVE ON 'M' FOR ALL NODES "
    "BEGIN CREATE (:Log {t: 'Lunmark'}) END",
    "CREATE TRIGGER Wrelset AFTER SET ON 'T'.'w' FOR EACH RELATIONSHIP "
    "BEGIN CREATE (:Log {t: 'Wrelset'}) END",
    "CREATE TRIGGER Dreldel AFTER DELETE ON 'T' FOR EACH RELATIONSHIP "
    "BEGIN CREATE (:Log {t: 'Dreldel'}) END",
    "CREATE TRIGGER Vcommit ONCOMMIT CREATE ON 'M' FOR ALL NODES "
    "BEGIN CREATE (:Log {t: 'Vcommit'}) END",
    "CREATE TRIGGER Edetach DETACHED DELETE ON 'N' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Edetach'}) END",
};

/// End-to-end workload: its firing log, stats and node count are recorded.
const char* kCorpusWorkload[] = {
    "CREATE (:M {p: 1})",
    "CREATE (:M {p: 2}), (:N {q: 1})",
    "MATCH (m:M) SET m.p = 10",
    "MATCH (m:M {p: 10}) SET m:Extra",
    "MATCH (m:Extra) REMOVE m:Extra",
    "CREATE (:S1), (:S2)",
    "MATCH (a:S1), (b:S2) CREATE (a)-[:T {w: 1}]->(b)",
    "MATCH ()-[r:T]->() SET r.w = 2",
    "MATCH ()-[r:T]->() DELETE r",
    "MATCH (n:N) DELETE n",
};

/// Statements whose raw deltas are fed to MatchAll at every action time.
const char* kCorpusDeltas[] = {
    "CREATE (:M {p: 1}), (:M {p: 2}), (:N)",
    "MATCH (m:M) SET m.p = 20",
    "MATCH (m:M) SET m:Extra",
    "MATCH (m:Extra) REMOVE m:Extra",
    "CREATE (:S1), (:S2)",
    "MATCH (a:S1), (b:S2) CREATE (a)-[:T {w: 1}]->(b)",
    "MATCH ()-[r:T]->() SET r.w = 5",
    "MATCH ()-[r:T]->() DELETE r",
    "MATCH (n:N) DETACH DELETE n",
};

void InstallCorpusTriggers(std::ostringstream& os, Database& db) {
  for (const char* ddl : kCorpusTriggers) {
    auto r = db.Execute(ddl);
    if (!r.ok()) os << "error: " << ddl << " -> " << r.status() << "\n";
  }
}

std::string CorpusSection(TriggerOrdering ordering,
                          LabelEventSemantics semantics) {
  EngineOptions opts;
  opts.trigger_ordering = ordering;
  opts.label_event_semantics = semantics;
  std::ostringstream os;

  Database db(opts);
  InstallCorpusTriggers(os, db);
  for (const char* s : kCorpusWorkload) {
    auto r = db.Execute(s);
    if (!r.ok()) os << "error: " << s << " -> " << r.status() << "\n";
  }
  os << "-- firing log\n";
  for (const std::string& t : FiringLog(db)) os << t << "\n";
  os << "-- stats\n";
  for (const auto& [name, ts] : db.stats().per_trigger) {
    os << name << ": considered=" << ts.considered << " fired=" << ts.fired
       << " action_rows=" << ts.action_rows << " errors=" << ts.errors
       << "\n";
  }
  os << "-- nodes: " << Count(db, "MATCH (n) RETURN COUNT(*) AS c") << "\n";

  os << "-- activations\n";
  Database fresh(opts);
  InstallCorpusTriggers(os, fresh);
  constexpr std::pair<ActionTime, const char*> kTimes[] = {
      {ActionTime::kBefore, "BEFORE"},
      {ActionTime::kAfter, "AFTER"},
      {ActionTime::kOnCommit, "ONCOMMIT"},
      {ActionTime::kDetached, "DETACHED"},
  };
  for (const char* s : kCorpusDeltas) {
    os << "> " << s << "\n";
    GraphDelta delta = RunAndCapture(fresh, s);
    for (const auto& [time, tag] : kTimes) {
      for (const std::string& act : DescribeAll(fresh.engine(), time, delta)) {
        os << tag << " " << act << "\n";
      }
    }
  }
  return os.str();
}

const RecordedTranscript& Corpus() {
  using O = TriggerOrdering;
  using L = LabelEventSemantics;
  static const RecordedTranscript kCorpus(
      "dispatch_corpus",
      {
          {"creation_time.monitored_label",
           [] { return CorpusSection(O::kCreationTime, L::kMonitoredLabel); }},
          {"creation_time.target_set_change",
           [] { return CorpusSection(O::kCreationTime, L::kTargetSetChange); }},
          {"name.monitored_label",
           [] { return CorpusSection(O::kName, L::kMonitoredLabel); }},
          {"name.target_set_change",
           [] { return CorpusSection(O::kName, L::kTargetSetChange); }},
      });
  return kCorpus;
}

TEST(DispatchCorpus, CreationTimeMonitoredLabel) {
  Corpus().Check("creation_time.monitored_label");
}
TEST(DispatchCorpus, CreationTimeTargetSetChange) {
  Corpus().Check("creation_time.target_set_change");
}
TEST(DispatchCorpus, NameMonitoredLabel) {
  Corpus().Check("name.monitored_label");
}
TEST(DispatchCorpus, NameTargetSetChange) {
  Corpus().Check("name.target_set_change");
}
TEST(DispatchCorpus, EverySectionRecorded) {
  Corpus().CheckEverySectionRecorded();
}

// ---------------------------------------------------------------------------
// Statement-level snapshot semantics: all triggers activated by the same
// statement are matched up front against one consistent snapshot of the
// statement's events (Section 4.2), so an earlier trigger's action cannot
// un-match a sibling trigger of the same statement.

TEST(SnapshotSemantics, EarlierTriggerCannotUnmatchSibling) {
  Database db;
  // T1 runs first (creation order) and strips :B from the new node; T2
  // monitors CREATE on 'B' and must still fire on the snapshot.
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T1 AFTER CREATE ON 'A' "
                         "FOR EACH NODE BEGIN REMOVE NEW:B END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T2 AFTER CREATE ON 'B' "
                         "FOR EACH NODE BEGIN CREATE (:SawB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:A:B)").ok());
  EXPECT_EQ(Count(db, "MATCH (s:SawB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["T1"].fired, 1u);
  EXPECT_EQ(db.stats().per_trigger["T2"].fired, 1u);
}

// ---------------------------------------------------------------------------
// DispatchIndex maintenance: install / drop / enable / disable, and late
// symbol interning.

TEST(DispatchIndexMaintenance, LateInternedLabelResolvesAndFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'NeverSeen' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  // The label is not interned at install time: the trigger sits pending.
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 1u);
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);

  // First use of the label interns it mid-statement; dispatch must pick it
  // up within the same statement's trigger round.
  ASSERT_TRUE(db.Execute("CREATE (:NeverSeen)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 0u);
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 1u);
}

TEST(DispatchIndexMaintenance, DisableEnableDropMaintainIndex) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());  // intern 'A'
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'A' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);

  ASSERT_TRUE(db.Execute("ALTER TRIGGER T DISABLE").ok());
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 1);

  ASSERT_TRUE(db.Execute("ALTER TRIGGER T ENABLE").ok());
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 2);

  ASSERT_TRUE(db.Execute("DROP TRIGGER T").ok());
  EXPECT_EQ(db.catalog().dispatch().resolved_count(), 0u);
  EXPECT_EQ(db.catalog().dispatch().pending_count(), 0u);
  ASSERT_TRUE(db.Execute("CREATE (:A)").ok());
  EXPECT_EQ(Count(db, "MATCH (h:Hit) RETURN COUNT(*) AS c"), 2);
}

// ---------------------------------------------------------------------------
// Regression: relationship events on rels deleted later in the same
// transaction. The type lookup must fall back to the delta's deleted-rel
// image (mirror of the node path's LabelsOf fallback) when the store has no
// record — e.g. a committed delta examined against a store that never
// materialized the rel, as in the translators' equivalence checks.

class RelDeltaLifetime : public ::testing::Test {
 protected:
  void SetUp() override {
    type_ = db_.store().InternRelType("T");
    key_ = db_.store().InternPropKey("w");
  }

  /// A delta whose relationship exists only as a deleted image: the rel id
  /// is beyond every record the store ever allocated.
  GraphDelta DeletedOnlyDelta() {
    GraphDelta delta;
    DeletedRelImage img;
    img.id = RelId{977};
    img.type = type_;
    delta.deleted_rels.push_back(img);
    return delta;
  }

  Database db_;
  RelTypeId type_ = 0;
  PropKeyId key_ = 0;
};

TEST_F(RelDeltaLifetime, CreateEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER CREATE ON 'T' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.created_rels.push_back(RelId{977});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_NE(acts[0].env.FindSingle("NEW"), nullptr);
}

TEST_F(RelDeltaLifetime, SetEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER SET ON 'T'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.assigned_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Int(2)});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
  // OLD overlay carries the pre-statement value.
  ASSERT_EQ(acts[0].env.old_rel_props.size(), 1u);
}

TEST_F(RelDeltaLifetime, RemoveEventOnRelDeletedInSameDelta) {
  TriggerDef def = ParseDef(
      "CREATE TRIGGER R AFTER REMOVE ON 'T'.'w' FOR EACH RELATIONSHIP "
      "BEGIN CREATE (:X) END");
  GraphDelta delta = DeletedOnlyDelta();
  delta.removed_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Null()});
  auto acts = db_.engine().MatchActivations(def, delta);
  ASSERT_EQ(acts.size(), 1u);
}

TEST_F(RelDeltaLifetime, IndexedDispatchUsesSameFallback) {
  ASSERT_TRUE(db_.catalog()
                  .Install(ParseDef(
                      "CREATE TRIGGER R DETACHED SET ON 'T'.'w' FOR EACH "
                      "RELATIONSHIP BEGIN CREATE (:X) END"))
                  .ok());
  GraphDelta delta = DeletedOnlyDelta();
  delta.assigned_rel_props.push_back(
      RelPropChange{RelId{977}, key_, Value::Int(1), Value::Int(2)});
  EXPECT_EQ(db_.engine().MatchAll(ActionTime::kDetached, delta).size(), 1u);
}

TEST_F(RelDeltaLifetime, OnCommitSetThenDeleteStillFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A), (:B)").ok());
  ASSERT_TRUE(
      db.Execute("MATCH (a:A), (b:B) CREATE (a)-[:T {w: 1}]->(b)").ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER OC ONCOMMIT SET ON 'T'.'w' "
                         "FOR EACH RELATIONSHIP BEGIN CREATE (:OcLog) END")
                  .ok());
  auto r = db.ExecuteTx({"MATCH ()-[r:T]->() SET r.w = 2",
                         "MATCH ()-[r:T]->() DELETE r"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Count(db, "MATCH (l:OcLog) RETURN COUNT(*) AS c"), 1);
}

TEST_F(RelDeltaLifetime, DetachedSetThenDeleteStillFires) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:A), (:B)").ok());
  ASSERT_TRUE(
      db.Execute("MATCH (a:A), (b:B) CREATE (a)-[:T {w: 1}]->(b)").ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER DT DETACHED SET ON 'T'.'w' "
                         "FOR EACH RELATIONSHIP BEGIN CREATE (:DtLog) END")
                  .ok());
  auto r = db.ExecuteTx({"MATCH ()-[r:T]->() SET r.w = 2",
                         "MATCH ()-[r:T]->() DELETE r"});
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(Count(db, "MATCH (l:DtLog) RETURN COUNT(*) AS c"), 1);
}

// ---------------------------------------------------------------------------
// Regression: DROP TRIGGER while DETACHED activations are queued. The
// queued activation shares ownership of the definition with the catalog,
// so the drop (here issued from an earlier detached trigger's own
// transaction, via a registered procedure) cannot dangle it.

TEST(DropWhileQueued, QueuedDetachedActivationSurvivesDrop) {
  Database db;
  db.procedures().Register(
      "test.dropb", {},
      [&db](cypher::EvalContext&, const std::vector<Value>&,
            const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        PGT_RETURN_IF_ERROR(db.catalog().Drop("B"));
        return std::vector<cypher::Row>{};
      });
  // A runs first (creation order) and drops B while B's activation is
  // already sitting in the detached queue.
  ASSERT_TRUE(db.Execute("CREATE TRIGGER A DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CALL test.dropb() END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER B DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:FromB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());

  EXPECT_EQ(db.catalog().Find("B"), nullptr);  // the drop took effect
  // B's queued activation still ran on its owned definition.
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["B"].fired, 1u);

  // B stays dropped: the next commit only activates A.
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
}

// The same race under the ASYNC pool (docs/async.md): the drop is issued
// from trigger A's autonomous transaction while it runs on a pool thread
// holding the writer interlock, and B's activation is queued behind it.
// Shared ownership of the definition must hold off-writer too.
TEST(DropWhileQueued, PoolModeQueuedActivationSurvivesDrop) {
  EngineOptions opts;
  opts.async_pool_size = 2;
  opts.async_queue_capacity = 0;  // drain at every statement boundary
  Database db(opts);
  db.procedures().Register(
      "test.dropb", {},
      [&db](cypher::EvalContext&, const std::vector<Value>&,
            const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        PGT_RETURN_IF_ERROR(db.catalog().Drop("B"));
        return std::vector<cypher::Row>{};
      });
  ASSERT_TRUE(db.Execute("CREATE TRIGGER A DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CALL test.dropb() END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER B DETACHED CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:FromB) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());

  EXPECT_EQ(db.catalog().Find("B"), nullptr);
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(db.stats().per_trigger["B"].fired, 1u);

  ASSERT_TRUE(db.Execute("CREATE (:X)").ok());
  EXPECT_EQ(Count(db, "MATCH (n:FromB) RETURN COUNT(*) AS c"), 1);
}

// One commit queues several DETACHED activations; they share one source
// delta, and each still reads OLD state through the re-injected ghosts.
TEST(DetachedQueue, SharedSourceDeltaKeepsOldReadable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TRIGGER D1 DETACHED DELETE ON 'N' "
                         "FOR EACH NODE BEGIN CREATE (:G1 {v: OLD.q}) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TRIGGER D2 DETACHED DELETE ON 'N' "
                         "FOR EACH NODE BEGIN CREATE (:G2 {v: OLD.q}) END")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE (:N {q: 7}), (:N {q: 8})").ok());
  ASSERT_TRUE(db.Execute("MATCH (n:N) DELETE n").ok());
  EXPECT_EQ(Count(db, "MATCH (g:G1) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Count(db, "MATCH (g:G2) RETURN COUNT(*) AS c"), 2);
  EXPECT_EQ(Count(db, "MATCH (g:G1) WHERE g.v = 7 RETURN COUNT(*) AS c"), 1);
  EXPECT_EQ(Count(db, "MATCH (g:G2) WHERE g.v = 8 RETURN COUNT(*) AS c"), 1);
}

}  // namespace
}  // namespace pgt
