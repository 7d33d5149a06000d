// Property-index subsystem tests: PropertyIndex postings and range scans,
// IndexCatalog maintenance through GraphStore mutations, transactional
// consistency (rollback / tombstones leave no stale entries), write-time
// unique enforcement, index DDL, scan planning, and index-backed PG-Key
// enforcement through the schema commit guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/cypher/parser.h"
#include "src/cypher/plan/compiler.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/cypher/statement_classifier.h"
#include "src/index/index_catalog.h"
#include "src/index/index_ddl.h"
#include "src/index/property_index.h"
#include "src/schema/pg_schema.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

using index::IndexDdl;
using index::IndexDdlParser;
using index::IndexKind;
using index::IndexSpec;
using index::PropertyIndex;

// --- PropertyIndex unit tests -------------------------------------------------

TEST(PropertyIndexTest, HashInsertLookupErase) {
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kHash});
  idx.Insert(Value::Int(7), NodeId{3});
  idx.Insert(Value::Int(7), NodeId{1});
  idx.Insert(Value::Int(8), NodeId{2});
  EXPECT_EQ(idx.EntryCount(), 3u);
  EXPECT_EQ(idx.DistinctValues(), 2u);

  std::vector<uint64_t> out;
  idx.Lookup(Value::Int(7), &out);
  ASSERT_EQ(out.size(), 2u);  // posting lists are id-sorted
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 3u);

  idx.Erase(Value::Int(7), NodeId{1});
  out.clear();
  idx.Lookup(Value::Int(7), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(idx.EntryCount(), 2u);
}

TEST(PropertyIndexTest, NullValuesAreNeverIndexed) {
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kHash});
  idx.Insert(Value::Null(), NodeId{1});
  EXPECT_EQ(idx.EntryCount(), 0u);
}

TEST(PropertyIndexTest, NumericCoercionSharesPosting) {
  // TotalCompare equality: Int(1) and Double(1.0) are the same key, as in
  // Cypher `=`.
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kHash});
  idx.Insert(Value::Int(1), NodeId{1});
  idx.Insert(Value::Double(1.0), NodeId{2});
  std::vector<uint64_t> out;
  idx.Lookup(Value::Double(1.0), &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(PropertyIndexTest, OrderedRangeScan) {
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kOrdered});
  for (int i = 0; i < 10; ++i) {
    idx.Insert(Value::Int(i), NodeId{static_cast<uint64_t>(100 + i)});
  }
  std::vector<uint64_t> out;
  idx.Range(Value::Int(3), /*lo_inclusive=*/true, Value::Int(6),
            /*hi_inclusive=*/false, &out);
  ASSERT_EQ(out.size(), 3u);  // 3, 4, 5
  EXPECT_EQ(out[0], 103u);
  EXPECT_EQ(out[2], 105u);

  out.clear();
  idx.Range(Value::Int(7), /*lo_inclusive=*/false, std::nullopt, false,
            &out);
  EXPECT_EQ(out.size(), 2u);  // 8, 9

  out.clear();
  idx.Range(std::nullopt, false, Value::Int(1), /*hi_inclusive=*/true, &out);
  EXPECT_EQ(out.size(), 2u);  // 0, 1
}

TEST(PropertyIndexTest, RangeScanStaysWithinComparisonClass) {
  // Ordering across classes yields NULL in the evaluator, so a numeric
  // range must not sweep up strings (which sort after numerics in the
  // total order).
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kOrdered});
  idx.Insert(Value::Int(5), NodeId{1});
  idx.Insert(Value::String("apple"), NodeId{2});
  std::vector<uint64_t> out;
  idx.Range(Value::Int(0), true, std::nullopt, false, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1u);

  out.clear();
  idx.Range(std::nullopt, false, Value::String("zebra"), true, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 2u);
}

TEST(PropertyIndexTest, HugeIntBandsStayComplete) {
  // Beyond 2^53 Cypher's int/double coercion is not transitive:
  // Int(2^53) = Double(2^53.0) and Int(2^53 + 1) = Double(2^53.0), yet
  // Int(2^53) <> Int(2^53 + 1). Index keys group by band (double value),
  // so a probe by the double finds BOTH candidates — completeness — and
  // the matcher's per-candidate recheck restores exactness. Probing by an
  // exact int also returns the band; never fewer candidates than a scan.
  const int64_t big = int64_t{1} << 53;
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kOrdered}) {
    PropertyIndex idx(IndexSpec{0, 0, kind});
    idx.Insert(Value::Int(big), NodeId{1});
    idx.Insert(Value::Int(big + 1), NodeId{2});
    std::vector<uint64_t> out;
    idx.Lookup(Value::Double(static_cast<double>(big)), &out);
    EXPECT_EQ(out.size(), 2u) << "kind " << static_cast<int>(kind);
    EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
    out.clear();
    idx.Lookup(Value::Int(big + 1), &out);
    EXPECT_EQ(out.size(), 2u);
  }

  // Ordered range boundaries stay exact across a band: > 2^53 must still
  // find 2^53 + 1 (the evaluator compares ints exactly).
  PropertyIndex ordered(IndexSpec{0, 0, IndexKind::kOrdered});
  ordered.Insert(Value::Int(big), NodeId{1});
  ordered.Insert(Value::Int(big + 1), NodeId{2});
  ordered.Insert(Value::Double(static_cast<double>(big)), NodeId{3});
  std::vector<uint64_t> out;
  ordered.Range(Value::Int(big), /*lo_inclusive=*/false, std::nullopt,
                false, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 2u);
}

TEST(PropertyIndexTest, NanIsNeitherIndexedNorProbed) {
  // NaN would compare "equivalent" to every numeric and wreck the ordered
  // map's strict weak ordering; it also never Equals anything in Cypher,
  // so it is treated like NULL: never stored, probes match nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kOrdered}) {
    PropertyIndex idx(IndexSpec{0, 0, kind});
    idx.Insert(Value::Double(nan), NodeId{1});
    EXPECT_EQ(idx.EntryCount(), 0u);
    idx.Insert(Value::Int(5), NodeId{2});
    std::vector<uint64_t> out;
    idx.Lookup(Value::Double(nan), &out);
    EXPECT_TRUE(out.empty());
    idx.Erase(Value::Double(nan), NodeId{2});  // must not touch 5's posting
    out.clear();
    idx.Lookup(Value::Int(5), &out);
    EXPECT_EQ(out.size(), 1u);
  }
  // A NaN bound is not range-plannable.
  EXPECT_EQ(index::CompareClassOf(Value::Double(nan)),
            index::CompareClass::kOther);
}

TEST(PropertyIndexTest, ForEachDuplicateFindsSharedValues) {
  PropertyIndex idx(IndexSpec{0, 0, IndexKind::kHash});
  idx.Insert(Value::String("x"), NodeId{1});
  idx.Insert(Value::String("x"), NodeId{4});
  idx.Insert(Value::String("y"), NodeId{2});
  int dups = 0;
  idx.ForEachDuplicate([&](const Value& v, const std::set<uint64_t>& ids) {
    ++dups;
    EXPECT_EQ(v.string_value(), "x");
    EXPECT_EQ(ids.size(), 2u);
  });
  EXPECT_EQ(dups, 1);
}

// --- GraphStore maintenance ---------------------------------------------------

class IndexMaintenanceTest : public ::testing::Test {
 protected:
  IndexMaintenanceTest() : manager_(&store_) {
    label_ = store_.InternLabel("Person");
    prop_ = store_.InternPropKey("ssn");
  }

  const PropertyIndex* MakeIndex(IndexKind kind = IndexKind::kHash,
                                 bool unique = false) {
    auto r = store_.CreateIndex(IndexSpec{label_, prop_, kind, unique});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.value_or(nullptr);
  }

  NodeId Person(const std::string& ssn) {
    return store_.CreateNode({label_},
                             {{prop_, Value::String(ssn)}});
  }

  std::vector<uint64_t> Ids(const PropertyIndex* idx, const Value& v) {
    std::vector<uint64_t> out;
    idx->Lookup(v, &out);
    return out;
  }

  GraphStore store_;
  TransactionManager manager_;
  LabelId label_ = 0;
  PropKeyId prop_ = 0;
};

TEST_F(IndexMaintenanceTest, BackfillCoversExistingNodes) {
  Person("a");
  Person("b");
  store_.CreateNode({store_.InternLabel("Other")},
                    {{prop_, Value::String("c")}});  // wrong label
  const PropertyIndex* idx = MakeIndex();
  EXPECT_EQ(idx->EntryCount(), 2u);
  EXPECT_EQ(Ids(idx, Value::String("a")).size(), 1u);
  EXPECT_TRUE(Ids(idx, Value::String("c")).empty());
}

TEST_F(IndexMaintenanceTest, MutationsKeepIndexExact) {
  const PropertyIndex* idx = MakeIndex();
  NodeId n = Person("a");
  EXPECT_EQ(idx->EntryCount(), 1u);

  // Property update moves the entry.
  ASSERT_TRUE(store_.SetNodeProp(n, prop_, Value::String("b")).ok());
  EXPECT_TRUE(Ids(idx, Value::String("a")).empty());
  EXPECT_EQ(Ids(idx, Value::String("b")).size(), 1u);

  // Property removal drops it.
  ASSERT_TRUE(store_.RemoveNodeProp(n, prop_).ok());
  EXPECT_EQ(idx->EntryCount(), 0u);

  // Label add/remove index/unindex using current props.
  ASSERT_TRUE(store_.SetNodeProp(n, prop_, Value::String("c")).ok());
  ASSERT_TRUE(store_.RemoveLabel(n, label_).ok());
  EXPECT_EQ(idx->EntryCount(), 0u);
  ASSERT_TRUE(store_.AddLabel(n, label_).ok());
  EXPECT_EQ(idx->EntryCount(), 1u);
}

TEST_F(IndexMaintenanceTest, TombstonedNodesLeaveNoEntries) {
  const PropertyIndex* idx = MakeIndex();
  NodeId n = Person("a");
  ASSERT_TRUE(store_.DeleteNode(n).ok());
  EXPECT_EQ(idx->EntryCount(), 0u);
  // Revival (the rollback path) restores the entry.
  ASSERT_TRUE(
      store_.ReviveNode(n, {label_}, {{prop_, Value::String("a")}}).ok());
  EXPECT_EQ(Ids(idx, Value::String("a")).size(), 1u);
}

TEST_F(IndexMaintenanceTest, RollbackLeavesNoStaleEntries) {
  const PropertyIndex* idx = MakeIndex();
  NodeId keep = Person("keep");

  auto tx = std::move(manager_.Begin()).value();
  // Created in-tx: entry appears...
  auto created = tx->CreateNode({label_}, {{prop_, Value::String("temp")}});
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(tx->SetNodeProp(keep, prop_, Value::String("changed")).ok());
  ASSERT_TRUE(tx->DeleteNode(created.value(), /*detach=*/false).ok());
  auto recreated = tx->CreateNode({label_}, {{prop_, Value::String("t2")}});
  ASSERT_TRUE(recreated.ok());
  EXPECT_EQ(Ids(idx, Value::String("t2")).size(), 1u);

  // ...and vanishes on rollback; the pre-tx state is restored exactly.
  ASSERT_TRUE(tx->Rollback().ok());
  manager_.Release(tx.get());
  EXPECT_EQ(idx->EntryCount(), 1u);
  EXPECT_TRUE(Ids(idx, Value::String("temp")).empty());
  EXPECT_TRUE(Ids(idx, Value::String("t2")).empty());
  EXPECT_TRUE(Ids(idx, Value::String("changed")).empty());
  EXPECT_EQ(Ids(idx, Value::String("keep")).size(), 1u);
}

TEST_F(IndexMaintenanceTest, RollbackOfDeleteRestoresEntries) {
  const PropertyIndex* idx = MakeIndex();
  NodeId n = Person("a");
  auto tx = std::move(manager_.Begin()).value();
  ASSERT_TRUE(tx->DeleteNode(n, false).ok());
  EXPECT_EQ(idx->EntryCount(), 0u);
  ASSERT_TRUE(tx->Rollback().ok());
  manager_.Release(tx.get());
  EXPECT_EQ(Ids(idx, Value::String("a")).size(), 1u);
}

TEST_F(IndexMaintenanceTest, UniqueBackfillRejectsExistingDuplicates) {
  Person("same");
  Person("same");
  auto r = store_.CreateIndex(
      IndexSpec{label_, prop_, IndexKind::kHash, /*unique=*/true});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
  // No index left behind.
  EXPECT_EQ(store_.indexes().Find(label_, prop_), nullptr);
}

TEST_F(IndexMaintenanceTest, WriteTimeUniqueEnforcement) {
  MakeIndex(IndexKind::kHash, /*unique=*/true);
  auto tx = std::move(manager_.Begin()).value();
  ASSERT_TRUE(tx->CreateNode({label_}, {{prop_, Value::String("a")}}).ok());

  // Duplicate create is rejected as a Status, not a crash.
  auto dup = tx->CreateNode({label_}, {{prop_, Value::String("a")}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);

  // Duplicate SET rejected too; setting a node to its own value is fine.
  auto other = tx->CreateNode({label_}, {{prop_, Value::String("b")}});
  ASSERT_TRUE(other.ok());
  Status st = tx->SetNodeProp(other.value(), prop_, Value::String("a"));
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_TRUE(
      tx->SetNodeProp(other.value(), prop_, Value::String("b")).ok());

  // Delete frees the value for reuse within the same transaction.
  ASSERT_TRUE(tx->DeleteNode(other.value(), false).ok());
  EXPECT_TRUE(tx->CreateNode({label_}, {{prop_, Value::String("b")}}).ok());
  ASSERT_TRUE(tx->Commit().ok());
  manager_.Release(tx.get());
}

// --- Index DDL ---------------------------------------------------------------

TEST(IndexDdlTest, ParseCreateVariants) {
  auto d = IndexDdlParser::Parse("CREATE INDEX ON :Person(ssn)");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->kind, IndexDdl::Kind::kCreate);
  EXPECT_EQ(d->label, "Person");
  EXPECT_EQ(d->prop, "ssn");
  EXPECT_FALSE(d->unique);
  EXPECT_EQ(d->layout, IndexKind::kHash);

  d = IndexDdlParser::Parse("create unique range index on 'Person'('ssn');");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_TRUE(d->unique);
  EXPECT_EQ(d->layout, IndexKind::kOrdered);

  d = IndexDdlParser::Parse("DROP INDEX ON :Person(ssn)");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ(d->kind, IndexDdl::Kind::kDrop);
}

TEST(IndexDdlTest, RoutingPredicate) {
  auto kind = [](const char* s) { return ClassifyStatement(s); };
  EXPECT_EQ(kind("CREATE INDEX ON :A(b)"), StatementKind::kIndexDdl);
  EXPECT_EQ(kind("CREATE UNIQUE INDEX ON :A(b)"), StatementKind::kIndexDdl);
  EXPECT_EQ(kind("DROP INDEX ON :A(b)"), StatementKind::kIndexDdl);
  EXPECT_EQ(kind("SHOW INDEXES"), StatementKind::kShow);
  EXPECT_NE(kind("CREATE (:A {b: 1})"), StatementKind::kIndexDdl);
  EXPECT_NE(kind("CREATE TRIGGER T AFTER CREATE ON 'A' FOR EACH NODE BEGIN "
                 "CREATE (:B) END"),
            StatementKind::kIndexDdl);
  EXPECT_NE(kind("MATCH (n) RETURN n"), StatementKind::kIndexDdl);
}

TEST(IndexDdlTest, ParseErrors) {
  EXPECT_FALSE(IndexDdlParser::Parse("CREATE INDEX ON Person").ok());
  EXPECT_FALSE(IndexDdlParser::Parse("CREATE INDEX Person(ssn)").ok());
  EXPECT_FALSE(
      IndexDdlParser::Parse("CREATE INDEX ON :Person(ssn) garbage").ok());
}

// --- End-to-end through the Database -----------------------------------------

class IndexDatabaseTest : public ::testing::Test {
 protected:
  void Exec(const std::string& q) {
    auto r = db_.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
  Status ExecError(const std::string& q) { return db_.Execute(q).status(); }
  cypher::QueryResult Query(const std::string& q, const Params& p = {}) {
    auto r = db_.Execute(q, p);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }

  Database db_;
};

TEST_F(IndexDatabaseTest, CreateDropShow) {
  Exec("CREATE (:Person {ssn: '1'}), (:Person {ssn: '2'})");
  Exec("CREATE INDEX ON :Person(ssn)");
  auto show = Query("SHOW INDEXES");
  ASSERT_EQ(show.rows.size(), 1u);
  EXPECT_EQ(show.rows[0][0].string_value(), "Person(ssn)");
  EXPECT_EQ(show.rows[0][3].int_value(), 2);

  Status dup = ExecError("CREATE INDEX ON :Person(ssn)");
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);

  Exec("DROP INDEX ON :Person(ssn)");
  EXPECT_TRUE(Query("SHOW INDEXES").rows.empty());
  EXPECT_EQ(ExecError("DROP INDEX ON :Person(ssn)").code(),
            StatusCode::kNotFound);
}

TEST_F(IndexDatabaseTest, UniqueIndexViolationIsStatusAndRollsBack) {
  Exec("CREATE UNIQUE INDEX ON :Person(ssn)");
  Exec("CREATE (:Person {ssn: '1', name: 'ann'})");
  Status st = ExecError("CREATE (:Person {ssn: '1', name: 'imp'})");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(st.message().find("Person(ssn)"), std::string::npos);
  // The violating transaction rolled back: one person, one index entry.
  auto rows = Query("MATCH (p:Person) RETURN COUNT(*) AS c");
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);
  auto show = Query("SHOW INDEXES");
  EXPECT_EQ(show.rows[0][3].int_value(), 1);
}

TEST_F(IndexDatabaseTest, IndexedAndFullScanResultsAreIdentical) {
  Exec("UNWIND RANGE(0, 199) AS i "
       "CREATE (:Acct {num: i % 50, grp: 'g' + (i % 7)})");
  const std::string queries[] = {
      "MATCH (a:Acct {num: 7}) RETURN a.num, a.grp",
      "MATCH (a:Acct) WHERE a.num = 13 RETURN a.num, a.grp",
      "MATCH (a:Acct) WHERE a.num > 45 RETURN a.num AS n ORDER BY n",
      "MATCH (a:Acct) WHERE a.num >= 10 AND a.num < 12 RETURN a.num",
      "MATCH (a:Acct) WHERE a.num > 48 AND a.grp = 'g1' RETURN a.num, a.grp",
  };
  std::vector<cypher::QueryResult> before;
  for (const auto& q : queries) before.push_back(Query(q));

  Exec("CREATE RANGE INDEX ON :Acct(num)");
  for (size_t i = 0; i < std::size(queries); ++i) {
    auto after = Query(queries[i]);
    ASSERT_EQ(after.rows.size(), before[i].rows.size()) << queries[i];
    for (size_t r = 0; r < after.rows.size(); ++r) {
      for (size_t c = 0; c < after.rows[r].size(); ++c) {
        EXPECT_TRUE(after.rows[r][c].Equals(before[i].rows[r][c]))
            << queries[i] << " row " << r;
      }
    }
  }
}

TEST_F(IndexDatabaseTest, TriggerConditionUsesIndexedEquality) {
  Exec("CREATE RANGE INDEX ON :Person(pid)");
  Exec("UNWIND RANGE(0, 99) AS i CREATE (:Person {pid: i})");
  // The WHEN condition matches through {pid: NEW.pid} — the planner reads
  // the bound NEW row variable at plan time and probes the index.
  Exec("CREATE TRIGGER CaseAlert AFTER CREATE ON 'Case' FOR EACH NODE "
       "WHEN MATCH (p:Person {pid: NEW.pid}) "
       "BEGIN CREATE (:Alert {pid: NEW.pid}) END");
  Exec("CREATE (:Case {pid: 42})");
  Exec("CREATE (:Case {pid: 4242})");  // no matching person: no alert
  auto rows = Query("MATCH (a:Alert) RETURN a.pid");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 42);
}

TEST_F(IndexDatabaseTest, ParamEqualityUsesIndex) {
  Exec("UNWIND RANGE(0, 99) AS i CREATE (:P {k: i})");
  Exec("CREATE INDEX ON :P(k)");
  auto rows = Query("MATCH (p:P) WHERE p.k = $x RETURN p.k",
                    {{"x", Value::Int(31)}});
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].int_value(), 31);
}

// --- Scan planner ------------------------------------------------------------

class ScanPlanTest : public ::testing::Test {
 protected:
  ScanPlanTest() : manager_(&store_) {
    tx_ = std::move(manager_.Begin()).value();
    ctx_.tx = tx_.get();
    ctx_.clock = &clock_;
    ctx_.params = &params_;
  }

  /// Plans the first node of `MATCH <pattern_text> [WHERE ...]`: compiles
  /// the statement and instantiates the part's scan template.
  cypher::NodeScanPlan Plan(const std::string& match_text) {
    auto q = cypher::Parser::ParseQuery("MATCH " + match_text + " RETURN *");
    EXPECT_TRUE(q.ok()) << q.status();
    auto prog = cypher::plan::CompileQuery(*q, {}, *ctx_.store(), 0);
    EXPECT_TRUE(prog.ok()) << prog.status();
    const cypher::plan::PPatternPart& part = prog->steps[0].pattern.parts[0];
    std::vector<LabelId> labels;
    for (const cypher::plan::SymbolRef& l : part.first.labels) {
      auto id = store_.LookupLabel(l.name);
      if (id.has_value()) labels.push_back(*id);
    }
    cypher::plan::PlanExecutor exec(ctx_, prog->slot_names);
    cypher::plan::Frame row = exec.NewFrame();
    int satisfied = -1;
    return exec.SelectScan(part.scan, labels, row, &satisfied);
  }

  GraphStore store_;
  TransactionManager manager_;
  std::unique_ptr<Transaction> tx_;
  LogicalClock clock_;
  Params params_;
  cypher::EvalContext ctx_;
};

TEST_F(ScanPlanTest, PrefersIndexOverLabelOverFull) {
  LabelId person = store_.InternLabel("Person");
  PropKeyId ssn = store_.InternPropKey("ssn");
  store_.CreateNode({person}, {{ssn, Value::String("1")}});

  using Kind = cypher::NodeScanPlan::Kind;
  EXPECT_EQ(Plan("(n)").kind, Kind::kFullScan);
  EXPECT_EQ(Plan("(n:Person)").kind, Kind::kLabelScan);
  EXPECT_EQ(Plan("(n:Person {ssn: '1'})").kind, Kind::kLabelScan);

  ASSERT_TRUE(store_.CreateIndex(IndexSpec{person, ssn,
                                           IndexKind::kOrdered}).ok());
  EXPECT_EQ(Plan("(n:Person {ssn: '1'})").kind, Kind::kIndexEquality);
  EXPECT_EQ(Plan("(n:Person) WHERE n.ssn = '1'").kind,
            Kind::kIndexEquality);
  EXPECT_EQ(Plan("(n:Person) WHERE '0' < n.ssn").kind, Kind::kIndexRange);
  EXPECT_EQ(Plan("(n:Person) WHERE n.ssn > '0' AND n.ssn <= '5'").kind,
            Kind::kIndexRange);
  // Non-sargable or disjunctive predicates keep the label scan.
  EXPECT_EQ(Plan("(n:Person) WHERE n.ssn = '1' OR n.ssn = '2'").kind,
            Kind::kLabelScan);
  EXPECT_EQ(Plan("(n:Person) WHERE n.ssn = n.other").kind,
            Kind::kLabelScan);
}

TEST_F(ScanPlanTest, PicksLeastPopulatedLabel) {
  LabelId big = store_.InternLabel("Big");
  LabelId small = store_.InternLabel("Small");
  for (int i = 0; i < 5; ++i) store_.CreateNode({big}, {});
  store_.CreateNode({big, small}, {});

  auto plan = Plan("(n:Big:Small)");
  EXPECT_EQ(plan.kind, cypher::NodeScanPlan::Kind::kLabelScan);
  EXPECT_EQ(plan.label, small);
}

// --- Index-backed PG-Key enforcement -----------------------------------------

schema::SchemaDef KeySchema() {
  auto r = schema::ParseSchemaDdl(R"(
      CREATE GRAPH TYPE Keyed STRICT {
        (PersonType : Person {name STRING, ssn STRING KEY})
      })");
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST_F(IndexDatabaseTest, AttachSchemaCreatesKeyIndexAndDetachDropsIt) {
  db_.AttachSchema(KeySchema());
  auto show = Query("SHOW INDEXES");
  ASSERT_EQ(show.rows.size(), 1u);
  EXPECT_EQ(show.rows[0][0].string_value(), "Person(ssn)");
  EXPECT_TRUE(show.rows[0][2].bool_value());  // unique

  db_.AttachSchema(std::nullopt);
  EXPECT_TRUE(Query("SHOW INDEXES").rows.empty());
}

TEST_F(IndexDatabaseTest, DetachNeverDropsUserIndexes) {
  // A user index that replaced the schema-managed PG-Key index must
  // survive detach; only indexes still carrying the schema_managed mark
  // are dropped.
  db_.AttachSchema(KeySchema());
  Exec("DROP INDEX ON :Person(ssn)");
  Exec("CREATE UNIQUE INDEX ON :Person(ssn)");
  db_.AttachSchema(std::nullopt);
  auto show = Query("SHOW INDEXES");
  ASSERT_EQ(show.rows.size(), 1u);
  EXPECT_EQ(show.rows[0][0].string_value(), "Person(ssn)");

  // And a pre-existing user index is neither replaced nor dropped.
  db_.AttachSchema(KeySchema());
  db_.AttachSchema(std::nullopt);
  EXPECT_EQ(Query("SHOW INDEXES").rows.size(), 1u);
}

TEST_F(IndexDatabaseTest, CommitGuardReadsKeyViolationOffIndex) {
  db_.AttachSchema(KeySchema());
  Exec("CREATE (:Person {name: 'ann', ssn: '1'})");
  Status st = ExecError("CREATE (:Person {name: 'imp', ssn: '1'})");
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(st.message().find("key-violation"), std::string::npos);
  auto rows = Query("MATCH (p:Person) RETURN COUNT(*) AS c");
  EXPECT_EQ(rows.rows[0][0].int_value(), 1);

  // Key swap inside one transaction: temporarily duplicated, clean at
  // commit — deferred enforcement must allow it.
  Exec("CREATE (:Person {name: 'bob', ssn: '2'})");
  auto multi = db_.ExecuteTx(
      {"MATCH (p:Person {ssn: '1'}) SET p.ssn = '3'",
       "MATCH (p:Person {ssn: '2'}) SET p.ssn = '1'"});
  ASSERT_TRUE(multi.ok()) << multi.status();
}

}  // namespace
}  // namespace pgt
