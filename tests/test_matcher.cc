// Pattern matching semantics of the compiled executor, driven through
// Database::Execute / QueryAt: label scans, directions, property
// constraints, relationship uniqueness, variable-length paths, transition
// pseudo-labels, and scan-order determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/cypher/parser.h"
#include "src/cypher/plan/compiler.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  /// Creates one node and returns its id.
  int64_t Node(const std::string& labels, const std::string& props = "") {
    auto r = db_.Execute("CREATE (n:" + labels + " " + props +
                         ") RETURN id(n) AS id");
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  }
  int64_t Rel(int64_t a, const std::string& type, int64_t b) {
    auto r = db_.Execute("MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b "
                         "CREATE (a)-[r:" + type + "]->(b) RETURN id(r) AS id",
                         {{"a", Value::Int(a)}, {"b", Value::Int(b)}});
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->rows[0][0].int_value() : -1;
  }

  /// Rows of `MATCH <pattern> RETURN *`, after `prefix` (e.g. a clause
  /// binding seed variables).
  cypher::QueryResult Match(const std::string& pattern,
                            const std::string& prefix = "",
                            const Params& params = {}) {
    auto r = db_.Execute(prefix + " MATCH " + pattern + " RETURN *", params);
    EXPECT_TRUE(r.ok()) << pattern << ": " << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }
  size_t Count(const std::string& pattern, const std::string& prefix = "",
               const Params& params = {}) {
    return Match(pattern, prefix, params).rows.size();
  }

  /// `MATCH <pattern> RETURN *` inside an open transaction with a
  /// transition environment (the context trigger conditions run in).
  cypher::QueryResult MatchInEnv(Transaction& tx,
                                 const cypher::TransitionEnv& env,
                                 const std::string& pattern) {
    auto q = cypher::Parser::ParseQuery("MATCH " + pattern + " RETURN *");
    EXPECT_TRUE(q.ok()) << q.status();
    cypher::EvalContext ctx = db_.MakeEvalContext(&tx, nullptr, &env);
    auto prog = cypher::plan::CompileQuery(*q, {}, *ctx.store(), 0);
    EXPECT_TRUE(prog.ok()) << prog.status();
    cypher::plan::PlanExecutor exec(ctx, prog->slot_names);
    auto r = exec.Run(prog->steps, exec.NewFrame());
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(r).value() : cypher::QueryResult{};
  }

  Database db_;
};

TEST_F(MatcherTest, LabelScan) {
  Node("A");
  Node("A");
  Node("B");
  EXPECT_EQ(Count("(n:A)"), 2u);
  EXPECT_EQ(Count("(n:B)"), 1u);
  EXPECT_EQ(Count("(n)"), 3u);
}

TEST_F(MatcherTest, UnknownLabelMatchesNothing) {
  Node("A");
  EXPECT_EQ(Count("(n:Nothing)"), 0u);
}

TEST_F(MatcherTest, PropertyConstraint) {
  Node("P", "{age: 30}");
  Node("P", "{age: 40}");
  EXPECT_EQ(Count("(n:P {age: 30})"), 1u);
  EXPECT_EQ(Count("(n:P {age: 99})"), 0u);
  EXPECT_EQ(Count("(n:P {missing: 1})"), 0u);
}

TEST_F(MatcherTest, DirectedTraversal) {
  Rel(Node("A"), "R", Node("B"));
  EXPECT_EQ(Count("(x:A)-[:R]->(y:B)"), 1u);
  EXPECT_EQ(Count("(x:A)<-[:R]-(y:B)"), 0u);
  EXPECT_EQ(Count("(x:A)-[:R]-(y:B)"), 1u);
  EXPECT_EQ(Count("(y:B)<-[:R]-(x:A)"), 1u);
}

TEST_F(MatcherTest, TypeFilterAndAlternatives) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  Rel(a, "R1", b);
  Rel(a, "R2", b);
  EXPECT_EQ(Count("(x:A)-[:R1]->(y)"), 1u);
  EXPECT_EQ(Count("(x:A)-[:R1|R2]->(y)"), 2u);
  EXPECT_EQ(Count("(x:A)-[r]->(y)"), 2u);
}

TEST_F(MatcherTest, BoundVariablesConstrain) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  const int64_t c = Node("B");
  Rel(a, "R", b);
  Rel(a, "R", c);
  EXPECT_EQ(Count("(x:A)-[:R]->(y)", "MATCH (y) WHERE id(y) = $b",
                  {{"b", Value::Int(b)}}),
            1u);
}

TEST_F(MatcherTest, BoundRelVariableConstrains) {
  const int64_t a = Node("A");
  const int64_t b = Node("B");
  const int64_t r1 = Rel(a, "R", b);
  Rel(a, "R", b);
  EXPECT_EQ(Count("(x)-[r]->(y)", "MATCH ()-[r]->() WHERE id(r) = $r",
                  {{"r", Value::Int(r1)}}),
            1u);
}

TEST_F(MatcherTest, RelationshipUniquenessWithinMatch) {
  Rel(Node("A"), "R", Node("A"));
  // A two-hop path needs two distinct relationships; with only one, the
  // same rel may not be reused (a)-[r]-(b)-[r]-(a).
  EXPECT_EQ(Count("(x:A)-[:R]-(y:A)-[:R]-(z:A)"), 0u);
}

TEST_F(MatcherTest, MultiPartCartesianAndJoin) {
  Node("A");
  Node("A");
  Node("B");
  EXPECT_EQ(Count("(x:A), (y:B)"), 2u);
  EXPECT_EQ(Count("(x:A), (y:A)"), 4u);  // no node uniqueness
}

TEST_F(MatcherTest, VariableLengthPaths) {
  const int64_t n1 = Node("N");
  const int64_t n2 = Node("N");
  const int64_t n3 = Node("N");
  const int64_t n4 = Node("N");
  Rel(n1, "R", n2);
  Rel(n2, "R", n3);
  Rel(n3, "R", n4);
  const std::string seed = "MATCH (s) WHERE id(s) = $s";
  const Params p = {{"s", Value::Int(n1)}};
  EXPECT_EQ(Count("(s)-[:R*1..3]->(t)", seed, p), 3u);
  EXPECT_EQ(Count("(s)-[:R*2]->(t)", seed, p), 1u);
  EXPECT_EQ(Count("(s)-[:R*]->(t)", seed, p), 3u);
  // Zero-length includes the start node itself.
  EXPECT_EQ(Count("(s)-[:R*0..1]->(t)", seed, p), 2u);
}

TEST_F(MatcherTest, VariableLengthBindsRelList) {
  const int64_t n1 = Node("N");
  const int64_t n2 = Node("N");
  Rel(n1, "R", n2);
  Rel(n2, "R", Node("N"));
  auto r = db_.Execute(
      "MATCH (s) WHERE id(s) = $s MATCH (s)-[path:R*2]->(t) RETURN path",
      {{"s", Value::Int(n1)}});
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_TRUE(r->rows[0][0].is_list());
  EXPECT_EQ(r->rows[0][0].list_value().size(), 2u);
}

TEST_F(MatcherTest, VariableLengthCyclesAreBounded) {
  const int64_t a = Node("N");
  const int64_t b = Node("N");
  Rel(a, "R", b);
  Rel(b, "R", a);
  // Rel-uniqueness bounds the DFS: a->b (1 hop), a->b->a (2 hops), stop.
  EXPECT_EQ(Count("(s)-[:R*]->(t)", "MATCH (s) WHERE id(s) = $s",
                  {{"s", Value::Int(a)}}),
            2u);
}

TEST_F(MatcherTest, TransitionPseudoLabel) {
  const int64_t a = Node("P");
  Node("P");
  auto tx = db_.BeginTx();
  ASSERT_TRUE(tx.ok());
  cypher::TransitionEnv env;
  env.MutableSet("NEWNODES", true).ids = {static_cast<uint64_t>(a)};
  cypher::QueryResult rows = MatchInEnv(**tx, env, "(pn:NEWNODES)");
  ASSERT_EQ(rows.rows.size(), 1u);
  EXPECT_EQ(rows.rows[0][0].node_id().value, static_cast<uint64_t>(a));
  // Combined with a real label.
  EXPECT_EQ(MatchInEnv(**tx, env, "(pn:NEWNODES:P)").rows.size(), 1u);
  EXPECT_TRUE(MatchInEnv(**tx, env, "(pn:NEWNODES:Q)").rows.empty());
  db_.RollbackAndRelease(std::move(tx).value());
}

TEST_F(MatcherTest, PseudoLabelOfRelSetNeverMatchesNodes) {
  Node("P");
  auto tx = db_.BeginTx();
  ASSERT_TRUE(tx.ok());
  cypher::TransitionEnv env;
  env.MutableSet("NEWRELS", false).ids = {0};
  EXPECT_TRUE(MatchInEnv(**tx, env, "(x:NEWRELS)").rows.empty());
  db_.RollbackAndRelease(std::move(tx).value());
}

TEST_F(MatcherTest, DeletedNodesInOldSetMatchButDoNotTraverse) {
  const int64_t a = Node("P");
  Rel(a, "R", Node("P"));
  auto tx = db_.BeginTx();
  ASSERT_TRUE(tx.ok());
  ASSERT_TRUE((*tx)->DeleteNode(NodeId{static_cast<uint64_t>(a)},
                                /*detach=*/true)
                  .ok());
  cypher::TransitionEnv env;
  env.MutableSet("OLDNODES", true).ids = {static_cast<uint64_t>(a)};
  EXPECT_EQ(MatchInEnv(**tx, env, "(x:OLDNODES)").rows.size(), 1u);
  EXPECT_TRUE(MatchInEnv(**tx, env, "(x:OLDNODES)-[:R]-(y)").rows.empty());
  db_.RollbackAndRelease(std::move(tx).value());
}

TEST_F(MatcherTest, PatternExists) {
  Rel(Node("A"), "R", Node("B"));
  auto r = db_.Execute(
      "RETURN EXISTS { (x:A)-[:R]->(:B) } AS yes, "
      "EXISTS { (x:B)-[:R]->(:A) } AS no");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->rows[0][0].bool_value());
  EXPECT_FALSE(r->rows[0][1].bool_value());
}

// OPTIONAL MATCH pads exactly the variables the pattern introduces.
TEST_F(MatcherTest, OptionalMatchPadsOnlyUnboundVariables) {
  const int64_t a = Node("A");
  cypher::QueryResult r =
      Match("(a)-[r:R]->(b)", "MATCH (a) WHERE id(a) = $a OPTIONAL",
            {{"a", Value::Int(a)}});
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.columns, (std::vector<std::string>{"a", "r", "b"}));
  EXPECT_TRUE(r.rows[0][0].is_node());
  EXPECT_TRUE(r.rows[0][1].is_null());
  EXPECT_TRUE(r.rows[0][2].is_null());
}

TEST_F(MatcherTest, SelfLoopMatches) {
  const int64_t a = Node("A");
  Rel(a, "R", a);
  EXPECT_EQ(Count("(x:A)-[:R]->(x)"), 1u);
  EXPECT_EQ(Count("(x:A)-[:R]-(y)"), 1u);
}

// Regression: scans must stay deterministic (ascending id order, tombstones
// excluded) when deletes are interleaved with scans — the unconstrained,
// label-index, and property-index access paths, live and on snapshots, all
// share this contract.
TEST_F(MatcherTest, ScanOrderDeterministicAcrossInterleavedDeletes) {
  std::vector<int64_t> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(Node("D", "{v: " + std::to_string(i) + "}"));
  }

  auto ids_of = [](const cypher::QueryResult& r) {
    std::vector<uint64_t> ids;
    for (const auto& row : r.rows) ids.push_back(row[0].node_id().value);
    return ids;
  };
  auto scan_ids = [&](const std::string& pattern) {
    return ids_of(Match(pattern));
  };
  auto snapshot_ids = [&](const std::string& pattern) {
    auto snap = db_.OpenSnapshot();
    EXPECT_TRUE(snap.ok());
    auto r = db_.QueryAt(**snap, "MATCH " + pattern + " RETURN *");
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? ids_of(*r) : std::vector<uint64_t>{};
  };
  std::set<uint64_t> deleted;
  auto expect_sorted_without = [&](const std::vector<uint64_t>& ids) {
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_EQ(ids.size(), nodes.size() - deleted.size());
    for (uint64_t id : ids) EXPECT_EQ(deleted.count(id), 0u);
  };
  auto del = [&](int64_t id) {
    ASSERT_TRUE(db_.Execute("MATCH (n) WHERE id(n) = $n DELETE n",
                            {{"n", Value::Int(id)}})
                    .ok());
    deleted.insert(static_cast<uint64_t>(id));
  };

  expect_sorted_without(scan_ids("(n)"));

  // Delete from the middle, scan, delete more, scan again.
  del(nodes[3]);
  expect_sorted_without(scan_ids("(n)"));
  expect_sorted_without(scan_ids("(n:D)"));
  expect_sorted_without(snapshot_ids("(n:D)"));

  del(nodes[0]);
  del(nodes[7]);
  expect_sorted_without(scan_ids("(n)"));
  expect_sorted_without(scan_ids("(n:D)"));
  expect_sorted_without(snapshot_ids("(n)"));

  // A rolled-back delete (the revival path) restores the node at its old
  // position.
  EXPECT_FALSE(db_.ExecuteTx({"MATCH (n:D {v: 4}) DELETE n",
                              "MATCH (n:D {v: 5}) SET n.v = 1 / 0"})
                   .ok());
  expect_sorted_without(scan_ids("(n)"));
  expect_sorted_without(scan_ids("(n:D)"));

  // Same contract on the property-index path.
  ASSERT_TRUE(db_.Execute("CREATE RANGE INDEX ON :D(v)").ok());
  std::vector<uint64_t> via_index = scan_ids("(n:D {v: 4})");
  ASSERT_EQ(via_index.size(), 1u);
  EXPECT_EQ(via_index[0], static_cast<uint64_t>(nodes[4]));
  // New nodes created mid-stream appear in id order on the next scan.
  Node("D", "{v: 4}");
  via_index = scan_ids("(n:D {v: 4})");
  ASSERT_EQ(via_index.size(), 2u);
  EXPECT_TRUE(std::is_sorted(via_index.begin(), via_index.end()));
  EXPECT_EQ(snapshot_ids("(n:D {v: 4})"), via_index);
}

}  // namespace
}  // namespace pgt
