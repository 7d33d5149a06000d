// Recorded-output suite for the compiled query executor (src/cypher/plan).
//
// Every statement — ad-hoc Cypher, snapshot reads, trigger WHEN/action
// bodies — runs through one executor: compiled slot-addressed plans. This
// suite pins what that executor produces against a recorded transcript,
// tests/plan_corpus.expected: result tables, error codes and messages,
// the trigger firing log, per-trigger stats, and a canonical graph dump,
// over a corpus spanning every clause and expression shape (RETURN * /
// WITH *, CALL ... YIELD, a RETURN inside a trigger action, OPTIONAL MATCH
// padding, variable-length paths, aggregates, index probes, OLD views,
// cascades) plus plan-cache hits and DDL-epoch invalidation.
//
// The transcript was recorded while the retired AST interpreter and the
// compiled executor still coexisted and produced identical output for
// every section, so it doubles as the interpreter's semantics. On a
// mismatch the test writes the actual transcript to plan_corpus.actual in
// the working directory for review (tests/transcript.h).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/storage/snapshot.h"
#include "src/trigger/database.h"
#include "tests/transcript.h"

namespace pgt {
namespace {

EngineOptions CorpusOptions() { return EngineOptions{}; }

std::string Render(const cypher::QueryResult& r) {
  std::string out = r.ToTable();
  if (r.columns.empty()) out += "(no columns, " +
                                std::to_string(r.rows.size()) + " rows)\n";
  return out;
}

std::string Outcome(const Result<cypher::QueryResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString() + "\n";
  return Render(*r);
}

/// Runs `stmt` and appends "> stmt" plus its table or error.
void Step(std::ostringstream& os, Database& db, const std::string& stmt,
          const Params& params = {}) {
  os << "> " << stmt << "\n" << Outcome(db.Execute(stmt, params));
}

void FiringLog(std::ostringstream& os, Database& db) {
  os << "-- firing log\n";
  auto r = db.Execute("MATCH (l:Log) RETURN l.t");
  if (!r.ok()) {
    os << "error: " << r.status().ToString() << "\n";
    return;
  }
  for (const auto& row : r->rows) os << row[0].ToString() << "\n";
}

void Stats(std::ostringstream& os, Database& db) {
  const EngineStats& s = db.stats();
  os << "-- stats: statements=" << s.statements
     << " cascade_depth_max=" << s.cascade_depth_max
     << " oncommit_rounds_max=" << s.oncommit_rounds_max
     << " detached_runs=" << s.detached_runs << "\n";
  for (const auto& [name, ts] : s.per_trigger) {
    os << name << ": considered=" << ts.considered << " fired=" << ts.fired
       << " action_rows=" << ts.action_rows << " errors=" << ts.errors
       << "\n";
  }
}

/// Canonical dump of the whole graph: every alive node (sorted labels,
/// properties) and relationship, in id order.
void DumpGraph(std::ostringstream& os, Database& db) {
  os << "-- graph\n";
  const GraphStore& store = db.store();
  for (NodeId id : store.AllNodes()) {
    const NodeRecord* n = store.GetNode(id);
    os << "n" << id.value << "[";
    for (LabelId l : n->labels) os << store.LabelName(l) << ",";
    os << "]{";
    for (const auto& [k, v] : n->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
  for (RelId id : store.AllRels()) {
    const RelRecord* r = store.GetRel(id);
    os << "r" << id.value << ":" << store.RelTypeName(r->type) << " "
       << r->src.value << "->" << r->dst.value << "{";
    for (const auto& [k, v] : r->props) {
      os << store.PropKeyName(k) << "=" << v.ToString() << ",";
    }
    os << "}\n";
  }
}

void Epilogue(std::ostringstream& os, Database& db) {
  FiringLog(os, db);
  Stats(os, db);
  DumpGraph(os, db);
}

// ---------------------------------------------------------------------------
// The trigger corpus: every action time, both granularities, WHEN
// expressions and WHEN pipelines (sargable MATCH, aggregates, UNWIND,
// EXISTS, CASE, list comprehensions), OLD property views, REFERENCING
// aliases, transition pseudo-labels, and actions exercising CREATE /
// relationship CREATE / SET / REMOVE / DELETE / MERGE / FOREACH / CALL, and
// a RETURN inside an action (a runtime error once the clauses before it
// have run).

const char* kTriggerCorpus[] = {
    // WHEN expression over OLD/NEW with an OLD property view.
    "CREATE TRIGGER Wexpr AFTER SET ON 'Acct'.'bal' FOR EACH NODE "
    "WHEN OLD.bal <> NEW.bal "
    "BEGIN CREATE (:Log {t: 'Wexpr', d: NEW.bal - OLD.bal}) END",
    // WHEN pipeline: sargable MATCH probe + chain + WITH re-scope.
    "CREATE TRIGGER Wpipe AFTER SET ON 'Acct'.'bal' FOR EACH NODE "
    "WHEN MATCH (o:Owner {oid: NEW.owner})-[:OWNS]->(x:Acct) "
    "WHERE x.bal >= 0 WITH o, x "
    "BEGIN CREATE (:Log {t: 'Wpipe', who: o.name, b: x.bal + NEW.bal}) END",
    // Aggregate + ORDER BY + LIMIT in the condition pipeline.
    "CREATE TRIGGER Wagg ONCOMMIT CREATE ON 'Acct' FOR ALL NODES "
    "WHEN MATCH (a:Acct) WITH COUNT(*) AS n WHERE n >= 2 "
    "BEGIN CREATE (:Log {t: 'Wagg', n: n}) END",
    // UNWIND over the transition set + FOREACH in the action.
    "CREATE TRIGGER Wset AFTER CREATE ON 'Batch' "
    "REFERENCING NEWNODES AS fresh FOR ALL NODES "
    "WHEN UNWIND fresh AS b WITH b WHERE b.k > 0 "
    "BEGIN FOREACH (i IN RANGE(1, b.k) | CREATE (:Log {t: 'Wset', i: i})) "
    "END",
    // Transition pseudo-label in the pattern + EXISTS in WHEN.
    "CREATE TRIGGER Wexists AFTER CREATE ON 'Link' FOR EACH RELATIONSHIP "
    "WHEN EXISTS ((:Hub)-[:T]->(:Hub)) "
    "BEGIN CREATE (:Log {t: 'Wexists'}) END",
    // BEFORE trigger conditioning NEW states.
    "CREATE TRIGGER Bfix BEFORE SET ON 'Acct'.'bal' FOR EACH NODE "
    "WHEN NEW.bal < 0 BEGIN SET NEW.bal = 0 END",
    // OLD view on DELETE + DETACHED autonomous transaction.
    "CREATE TRIGGER Dgone DETACHED DELETE ON 'Acct' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Dgone', last: OLD.bal}) END",
    // Label event + MERGE action with ON CREATE / ON MATCH.
    "CREATE TRIGGER Lmark AFTER SET ON 'Flagged' FOR EACH NODE "
    "BEGIN MERGE (c:Counter {kind: 'flag'}) "
    "ON CREATE SET c.n = 1 ON MATCH SET c.n = c.n + 1 END",
    // REMOVE event + list comprehension + CASE in the action.
    "CREATE TRIGGER Rprop AFTER REMOVE ON 'Acct'.'tag' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Rprop', c: CASE WHEN OLD.bal > 5 THEN 'hi' "
    "ELSE 'lo' END, l: [z IN [1,2,3] WHERE z > 1 | z * 10]}) END",
    // Relationship SET event + OLD rel view.
    "CREATE TRIGGER RelSet ONCOMMIT SET ON 'OWNS'.'w' FOR EACH RELATIONSHIP "
    "WHEN OLD.w < NEW.w BEGIN CREATE (:Log {t: 'RelSet', was: OLD.w}) END",
    // CALL in the action: side-effect call, no YIELD.
    "CREATE TRIGGER Cback AFTER CREATE ON 'Procy' FOR EACH NODE "
    "BEGIN CALL test.mark() END",
    // CALL ... YIELD in the action: yielded columns bind for later clauses.
    "CREATE TRIGGER Cyield AFTER CREATE ON 'Procy' FOR EACH NODE "
    "BEGIN CALL test.pair(NEW.k) YIELD a, b "
    "CREATE (:Log {t: 'Cyield', a: a, b: b}) END",
    // A RETURN inside the action fails at runtime, after the CREATE ran.
    "CREATE TRIGGER Ret AFTER CREATE ON 'Retty' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Ret'}) RETURN NEW END",
    // WITH * in the condition pipeline keeps every binding.
    "CREATE TRIGGER Wstar AFTER CREATE ON 'Star' FOR EACH NODE "
    "WHEN MATCH (h:Hub) WITH * WHERE NEW.k > 0 "
    "BEGIN CREATE (:Log {t: 'Wstar', k: NEW.k}) END",
    // Cascade source: DELETE action raising further events.
    "CREATE TRIGGER Casc AFTER CREATE ON 'Sweep' FOR EACH NODE "
    "BEGIN MATCH (v:Victim) DETACH DELETE v END",
    "CREATE TRIGGER Cascd AFTER DELETE ON 'Victim' FOR EACH NODE "
    "BEGIN CREATE (:Log {t: 'Cascd'}) END",
};

const char* kWorkload[] = {
    "CREATE (:Owner {oid: 1, name: 'ada'}), (:Owner {oid: 2, name: 'bob'})",
    "CREATE (:Acct {bal: 10, owner: 1, tag: 'x'})",
    "CREATE (:Acct {bal: 20, owner: 2, tag: 'y'})",
    "MATCH (o:Owner), (a:Acct) WHERE o.oid = a.owner "
    "CREATE (o)-[:OWNS {w: 1}]->(a)",
    "MATCH (a:Acct {owner: 1}) SET a.bal = 15",
    "MATCH (a:Acct) WHERE a.bal > 18 SET a.bal = a.bal + 1",
    "MATCH (a:Acct {owner: 2}) SET a.bal = -5",  // Bfix clamps to 0
    "CREATE (:Batch {k: 2}), (:Batch {k: 0})",
    "CREATE (:Hub), (:Hub)",
    "MATCH (h1:Hub), (h2:Hub) WHERE h1.x IS NULL AND h2.x IS NULL "
    "CREATE (h1)-[:T]->(h2)",
    "MATCH (a:Hub), (b:Hub) CREATE (a)-[:Link]->(b)",
    "MATCH (a:Acct {owner: 1}) SET a:Flagged",
    "MATCH (a:Acct {owner: 2}) SET a:Flagged",
    "MATCH (a:Acct {owner: 1}) REMOVE a.tag",
    "MATCH ()-[r:OWNS]->() SET r.w = 3",
    "CREATE (:Procy {k: 4})",
    "CREATE (:Retty)",
    "CREATE (:Star {k: 1}), (:Star {k: 0})",
    "CREATE (:Victim), (:Victim), (:Sweep)",
    "MATCH (a:Acct {owner: 2}) DELETE a",
    // Var-length + OPTIONAL MATCH + DISTINCT / ORDER BY / SKIP read.
    "MATCH (o:Owner)-[:OWNS*1..2]->(a) RETURN o.name AS nm, a.bal AS b "
    "ORDER BY nm, b",
    "OPTIONAL MATCH (z:NoSuchLabel) RETURN z",
    "MATCH (o:Owner) WITH DISTINCT o.name AS nm ORDER BY nm DESC "
    "RETURN nm SKIP 1",
    "UNWIND [3, 1, 2] AS v WITH v ORDER BY v RETURN COLLECT(v) AS sorted",
};

void RegisterTestProcedures(Database& db) {
  db.procedures().Register(
      "test.mark", {},
      [](cypher::EvalContext&, const std::vector<Value>&,
         const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        return std::vector<cypher::Row>{};
      });
  // Two rows per call: (k, k * 10) and (k + 1, NULL).
  db.procedures().Register(
      "test.pair", {"a", "b"},
      [](cypher::EvalContext&, const std::vector<Value>& args,
         const cypher::Row&) -> Result<std::vector<cypher::Row>> {
        if (args.size() != 1 || !args[0].is_int()) {
          return Status::InvalidArgument("test.pair expects one integer");
        }
        const int64_t k = args[0].int_value();
        cypher::Row r1;
        r1.Set("a", Value::Int(k));
        r1.Set("b", Value::Int(k * 10));
        cypher::Row r2;
        r2.Set("a", Value::Int(k + 1));
        return std::vector<cypher::Row>{std::move(r1), std::move(r2)};
      });
  // Echoes the names bound in the calling row, in binding order.
  db.procedures().Register(
      "test.scope", {"names"},
      [](cypher::EvalContext&, const std::vector<Value>&,
         const cypher::Row& row) -> Result<std::vector<cypher::Row>> {
        Value::List names;
        for (const auto& [k, v] : row.cols) {
          (void)v;
          names.push_back(Value::String(k));
        }
        cypher::Row r;
        r.Set("names", Value::MakeList(std::move(names)));
        return std::vector<cypher::Row>{std::move(r)};
      });
}

void InstallCorpus(std::ostringstream& os, Database& db) {
  RegisterTestProcedures(db);
  for (const char* ddl : kTriggerCorpus) {
    auto r = db.Execute(ddl);
    if (!r.ok()) os << "install " << ddl << " -> " << r.status() << "\n";
  }
}

// --- Sections -----------------------------------------------------------------

std::string SectionCorpus() {
  std::ostringstream os;
  Database db(CorpusOptions());
  InstallCorpus(os, db);
  for (const char* stmt : kWorkload) Step(os, db, stmt);
  Epilogue(os, db);
  return os.str();
}

std::string SectionMultiStatementTx() {
  std::ostringstream os;
  Database db(CorpusOptions());
  InstallCorpus(os, db);
  const std::vector<std::string> tx = {
      "CREATE (:Acct {bal: 1, owner: 1})",
      "CREATE (:Acct {bal: 2, owner: 1})",
      "MATCH (a:Acct) SET a.bal = a.bal * 10",
      "MATCH (a:Acct) WHERE a.bal >= 20 DELETE a",
  };
  auto r = db.ExecuteTx(tx);
  if (!r.ok()) {
    os << "error: " << r.status().ToString() << "\n";
  } else {
    for (const cypher::QueryResult& q : *r) os << Render(q);
  }
  // A failing statement rolls back the whole transaction.
  auto bad = db.ExecuteTx({"CREATE (:Acct {bal: 5, owner: 3})",
                           "MATCH (a:Acct {owner: 3}) SET a.bal = 'x' + {}"});
  os << "> failing tx\n"
     << (bad.ok() ? std::string("ok\n")
                  : "error: " + bad.status().ToString() + "\n");
  Epilogue(os, db);
  return os.str();
}

// Index DDL mid-stream: the epoch bump recompiles cached plans (both
// per-trigger and the ad-hoc LRU); results stay the same whichever access
// path the new plans select.
std::string SectionIndexDdl() {
  std::ostringstream os;
  Database db(CorpusOptions());
  InstallCorpus(os, db);
  const std::string probe =
      "MATCH (o:Owner) WHERE o.oid >= 2 RETURN o.name AS nm ORDER BY nm";
  Step(os, db, "CREATE (:Owner {oid: 9, name: 'zoe'})");
  Step(os, db, "CREATE (:Acct {bal: 3, owner: 9})");
  Step(os, db, probe);
  Step(os, db, "CREATE RANGE INDEX ON :Owner(oid)");
  Step(os, db, probe);  // cache hit + recompile against the new catalog
  Step(os, db, "MATCH (a:Acct {owner: 9}) SET a.bal = 4");
  Step(os, db, "DROP INDEX ON :Owner(oid)");
  Step(os, db, probe);
  Step(os, db, "MATCH (a:Acct {owner: 9}) SET a.bal = 5");
  Epilogue(os, db);
  return os.str();
}

// A trigger compiled while its WHEN labels are not interned yet starts
// matching once they appear — without any DDL (pending symbol resolution).
std::string SectionLateInternedSymbols() {
  std::ostringstream os;
  Database db(CorpusOptions());
  Step(os, db,
       "CREATE TRIGGER Late AFTER CREATE ON 'Seen' FOR EACH NODE "
       "WHEN MATCH (g:Ghost {gid: NEW.gid}) "
       "BEGIN CREATE (:Hit {g: g.gid}) END");
  Step(os, db, "CREATE (:Seen {gid: 7})");
  Step(os, db, "MATCH (h:Hit) RETURN COUNT(*) AS c");
  Step(os, db, "CREATE (:Ghost {gid: 7})");
  Step(os, db, "CREATE (:Seen {gid: 7})");
  Step(os, db, "MATCH (h:Hit) RETURN COUNT(*) AS c");
  Epilogue(os, db);
  return os.str();
}

// RETURN * / WITH * column order, CALL ... YIELD, and CALL error surfacing.
std::string SectionStarAndCall() {
  std::ostringstream os;
  Database db(CorpusOptions());
  RegisterTestProcedures(db);
  for (const char* q : {
           "CREATE (:A {v: 1})-[:R]->(:B {v: 2})",
           "MATCH (a:A) RETURN *",
           "MATCH (a:A)-[r:R]->(b) RETURN *",
           "MATCH (b:B)<-[r:R]-(a) RETURN *",
           "MATCH (a:A) WITH * RETURN *",
           "MATCH (a:A) WITH a.v AS x, a RETURN *",
           "MATCH (a:A) UNWIND [1, 2] AS i RETURN * ORDER BY i DESC",
           "MATCH (a:A) WITH * WHERE a.v = 1 RETURN a.v AS v",
           "MATCH (a:A) RETURN DISTINCT * LIMIT 1",
           "MATCH (z:Nope) RETURN *",
           "MATCH (a:A) OPTIONAL MATCH (a)-[r:R]->(b:B) RETURN *",
           "MATCH (a:A) OPTIONAL MATCH (a)-[r:Nope]->(b) RETURN *",
           "MATCH (b:B) OPTIONAL MATCH (b)-[r:R]->(c) "
           "OPTIONAL MATCH (c)-[s]->(d) RETURN *",
           "UNWIND [1, 2] AS i OPTIONAL MATCH (a:A {v: i})-[r:R]->(b) "
           "RETURN *",
           "MERGE (m:M {k: 1})-[q:Q]->(n:N {k: 2}) RETURN *",
           "MERGE (m:M {k: 1})-[q:Q]->(n:N {k: 2}) RETURN *",
           "CREATE (c:C {k: 1})-[e:E]->(d:D) RETURN *",
           "MATCH (a:A) FOREACH (x IN [1] | SET a.w = x) RETURN *",
           "MATCH (a:A) WITH a, [y IN [1, 2] | y] AS ys RETURN *",
           "CALL test.pair(3) YIELD a, b RETURN a, b",
           "CALL test.pair(3) YIELD b RETURN *",
           "UNWIND [1, 2] AS k CALL test.pair(k) YIELD a RETURN k, a",
           "MATCH (a:A) CALL test.scope() YIELD names RETURN names",
           "MATCH (a:A)-[r:R]->(b) CALL test.scope() YIELD names "
           "RETURN names",
           "UNWIND [] AS k CALL test.pair(k) YIELD a RETURN a",
           "CALL test.mark() RETURN 1 AS one",
           "MATCH (a:A) CALL test.mark() RETURN a.v AS v",
           "CALL test.pair('x') YIELD a RETURN a",
           "CALL test.nope() YIELD a RETURN a",
           "CALL test.pair(1) YIELD zzz RETURN zzz",
           "UNWIND [] AS k CALL test.nope() RETURN 1 AS one",
           "CALL pgt.asyncStats() YIELD workers, queue_depth "
           "RETURN workers, queue_depth",
           "CALL test.pair(2) YIELD a, b WITH a WHERE a > 2 RETURN *",
       }) {
    Step(os, db, q);
  }
  DumpGraph(os, db);
  return os.str();
}

// Error surfacing for statements that fail mid-way.
std::string SectionRuntimeErrors() {
  std::ostringstream os;
  Database db(CorpusOptions());
  Step(os, db, "CREATE (:N {v: 'str'})");
  for (const char* q : {
           "MATCH (n:N) RETURN n.v - 1",       // type error
           "RETURN unboundvar",                // unbound variable
           "MATCH (n:N) RETURN n.v LIMIT -1",  // bad LIMIT
           "MATCH (n:N) RETURN n.v SKIP 'a'",  // bad SKIP
           "RETURN $missing",                  // unbound parameter
           "RETURN COUNT(*) + x AS c",
           "MATCH (n:N) WHERE n.v RETURN n",   // non-boolean predicate
           "UNWIND 5 AS x RETURN x",
           "FOREACH (x IN 3 | CREATE (:F))",
           "MATCH (n:N) SET n.w = 1 RETURN n.v + 1",
           "CREATE (a:F)-[:R]-(b:F)",
           "MATCH (n:N) DELETE n.v",
           "RETURN 1 RETURN 2",
           "MATCH (n:N) REMOVE x:L",
       }) {
    Step(os, db, q);
  }
  DumpGraph(os, db);
  return os.str();
}

// The constant-IN probe keeps Equals-based semantics for NaN, including NaN
// nested inside lists (TotalCompare treats NaN as equal to any number;
// Equals says false).
std::string SectionConstInProbe() {
  std::ostringstream os;
  Database db(CorpusOptions());
  for (const char* q : {
           "RETURN [1.0 % 0.0] IN [[2.0], [3.0]] AS r",  // nested NaN
           "RETURN (1.0 % 0.0) IN [2.0, 3.0] AS r",      // top-level NaN
           "RETURN 2.0 IN [1, 2, 3] AS r",               // int/double
           "RETURN 'b' IN ['a', 'b'] AS r",
           "RETURN 5 IN [1, NULL, 3] AS r",              // null in list
       }) {
    Step(os, db, q);
  }
  return os.str();
}

// Beyond 2^53 distinct int64 keys collapse to the same index band; the
// per-candidate re-check keeps exactly the one matching node.
std::string SectionHugeIntBands() {
  std::ostringstream os;
  Database db(CorpusOptions());
  const int64_t big = (int64_t{1} << 53);
  Step(os, db, "CREATE INDEX ON :K(v)");
  for (int64_t v : {big, big + 1, big + 2}) {
    Step(os, db, "CREATE (:K {v: " + std::to_string(v) + "})");
  }
  for (int64_t v : {big, big + 1, int64_t{7}}) {
    Step(os, db, "MATCH (k:K {v: " + std::to_string(v) +
                     "}) RETURN COUNT(k) AS c");
  }
  return os.str();
}

// Snapshot reads (Database::QueryAt) compile against the snapshot's
// dictionaries and index image.
std::string SectionSnapshotReads() {
  std::ostringstream os;
  Database db(CorpusOptions());
  Step(os, db, "CREATE INDEX ON :P(id)");
  Step(os, db, "CREATE RANGE INDEX ON :P(age)");
  Step(os, db,
       "UNWIND RANGE(1, 6) AS i CREATE (:P {id: i, age: 20 + i * 3})");
  Step(os, db, "MATCH (a:P {id: 1}), (b:P {id: 2}) CREATE (a)-[:K]->(b)");
  auto snap = db.OpenSnapshot();
  if (!snap.ok()) return "error: " + snap.status().ToString() + "\n";
  // Writes after the snapshot opened stay invisible to it, including a
  // brand-new label and index.
  Step(os, db, "CREATE (:P {id: 7, age: 90}), (:Q {id: 1})");
  Step(os, db, "CREATE INDEX ON :Q(id)");
  const Params id_param{{"id", Value::Int(3)}};
  for (const char* q : {
           "MATCH (p:P {id: 2}) RETURN p.age AS age",
           "MATCH (p:P) WHERE p.id = $id RETURN p.age AS age",
           "MATCH (p:P) WHERE p.age >= 29 AND p.age < 38 "
           "RETURN p.id AS id ORDER BY id",
           "MATCH (p:P) RETURN count(*) AS c",
           "MATCH (q:Q {id: 1}) RETURN q",
           "MATCH (a:P)-[k:K]->(b) RETURN *",
           "MATCH (p:P {id: 1}) OPTIONAL MATCH (p)<-[k]-(x) RETURN *",
           "MATCH (p:P) WHERE EXISTS { (p)-[:K]->(:P {id: 2}) } "
           "RETURN p.id AS id",
           "MATCH (p:P) RETURN p.nope + 1 AS x LIMIT 1",
           "MATCH (p:P) RETURN p.id - 'a' AS x",
           "RETURN $id AS id",
           "CREATE (:Z)",
           "CALL test.mark()",
           "RETURN datetime() AS t",
       }) {
    os << "@ " << q << "\n" << Outcome(db.QueryAt(**snap, q, id_param));
  }
  return os.str();
}

const RecordedTranscript& Corpus() {
  static const RecordedTranscript kCorpus(
      "plan_corpus",
      {
          {"corpus", &SectionCorpus},
          {"multi_statement_tx", &SectionMultiStatementTx},
          {"index_ddl", &SectionIndexDdl},
          {"late_interned_symbols", &SectionLateInternedSymbols},
          {"star_and_call", &SectionStarAndCall},
          {"runtime_errors", &SectionRuntimeErrors},
          {"const_in_probe", &SectionConstInProbe},
          {"huge_int_bands", &SectionHugeIntBands},
          {"snapshot_reads", &SectionSnapshotReads},
      });
  return kCorpus;
}

class PlanCorpus : public ::testing::Test {
 protected:
  void Check(const std::string& section) { Corpus().Check(section); }
};

TEST_F(PlanCorpus, Corpus) { Check("corpus"); }
TEST_F(PlanCorpus, MultiStatementTx) { Check("multi_statement_tx"); }
TEST_F(PlanCorpus, IndexDdlInvalidates) { Check("index_ddl"); }
TEST_F(PlanCorpus, LateInternedSymbols) { Check("late_interned_symbols"); }
TEST_F(PlanCorpus, StarAndCall) { Check("star_and_call"); }
TEST_F(PlanCorpus, RuntimeErrors) { Check("runtime_errors"); }
TEST_F(PlanCorpus, ConstInProbe) { Check("const_in_probe"); }
TEST_F(PlanCorpus, HugeIntBands) { Check("huge_int_bands"); }
TEST_F(PlanCorpus, SnapshotReads) { Check("snapshot_reads"); }

TEST_F(PlanCorpus, EverySectionRecorded) {
  Corpus().CheckEverySectionRecorded();
}

// Trigger DDL bumps the plan epoch as well (conservative invalidation).
TEST(PlanCache, TriggerDdlBumpsPlanEpoch) {
  Database db;
  const uint64_t e0 = db.PlanEpoch();
  ASSERT_TRUE(db.Execute("CREATE TRIGGER T AFTER CREATE ON 'X' "
                         "FOR EACH NODE BEGIN CREATE (:Hit) END")
                  .ok());
  const uint64_t e1 = db.PlanEpoch();
  EXPECT_GT(e1, e0);
  ASSERT_TRUE(db.Execute("DROP TRIGGER T").ok());
  EXPECT_GT(db.PlanEpoch(), e1);
}

// The ad-hoc LRU: repeated statement text parses and compiles once.
TEST(PlanCache, HitsOnRepeatedText) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:P {v: 1})").ok());
  const std::string q = "MATCH (p:P) RETURN p.v";
  const uint64_t misses_before = db.plan_cache().misses();
  for (int i = 0; i < 5; ++i) {
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows[0][0].int_value(), 1);
  }
  EXPECT_EQ(db.plan_cache().misses(), misses_before + 1);
  EXPECT_GE(db.plan_cache().hits(), 4u);
}

TEST(PlanCache, EvictsAtCapacity) {
  Database db;
  for (size_t i = 0; i <= Database::kPlanCacheCapacity; ++i) {
    ASSERT_TRUE(db.Execute("RETURN " + std::to_string(i) + " AS a").ok());
  }
  EXPECT_EQ(db.plan_cache().size(), Database::kPlanCacheCapacity);
  EXPECT_EQ(db.plan_cache().capacity(), Database::kPlanCacheCapacity);
}

// Parameterized statements share one cached plan across different values.
TEST(PlanCache, ParamsReuseOneCachedPlan) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE (:K {id: 1}), (:K {id: 2})").ok());
  const std::string q = "MATCH (k:K) WHERE k.id = $id RETURN k.id";
  for (int64_t id : {1, 2, 1}) {
    Params params{{"id", Value::Int(id)}};
    auto r = db.Execute(q, params);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].int_value(), id);
  }
  EXPECT_GE(db.plan_cache().hits(), 2u);
}

}  // namespace
}  // namespace pgt
