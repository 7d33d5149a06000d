// Tests for the transaction layer: delta capture, undo-log rollback, delta
// scopes, and ghost reads (src/tx).

#include "src/tx/transaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/ivm/ivm_manager.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  GraphStore store_;
  TransactionManager manager_{&store_};

  std::unique_ptr<Transaction> Begin() {
    auto tx = manager_.Begin();
    EXPECT_TRUE(tx.ok());
    return std::move(tx).value();
  }
  void Finish(std::unique_ptr<Transaction> tx, bool commit) {
    if (commit) {
      EXPECT_TRUE(tx->Commit().ok());
    } else {
      EXPECT_TRUE(tx->Rollback().ok());
    }
    manager_.Release(tx.get());
  }
};

TEST_F(TransactionTest, SingleWriterEnforced) {
  auto tx = Begin();
  EXPECT_EQ(manager_.Begin().status().code(),
            StatusCode::kFailedPrecondition);
  Finish(std::move(tx), true);
  EXPECT_TRUE(manager_.Begin().ok());
}

TEST_F(TransactionTest, CreateNodeCapturedInDelta) {
  auto tx = Begin();
  NodeId id = tx->CreateNode({store_.InternLabel("A")}, {}).value();
  ASSERT_EQ(tx->AccumulatedDelta().created_nodes.size(), 1u);
  EXPECT_EQ(tx->AccumulatedDelta().created_nodes[0], id);
  Finish(std::move(tx), true);
}

TEST_F(TransactionTest, RollbackRemovesCreatedNode) {
  auto tx = Begin();
  NodeId id = tx->CreateNode({store_.InternLabel("A")}, {}).value();
  Finish(std::move(tx), false);
  EXPECT_FALSE(store_.NodeAlive(id));
  EXPECT_EQ(store_.NodeCount(), 0u);
}

TEST_F(TransactionTest, RollbackRestoresDeletedNodeWithProps) {
  const PropKeyId k = store_.InternPropKey("x");
  const LabelId a = store_.InternLabel("A");
  NodeId id = store_.CreateNode({a}, {{k, Value::Int(9)}});
  auto tx = Begin();
  ASSERT_TRUE(tx->DeleteNode(id, /*detach=*/false).ok());
  EXPECT_FALSE(store_.NodeAlive(id));
  Finish(std::move(tx), false);
  ASSERT_TRUE(store_.NodeAlive(id));
  EXPECT_EQ(store_.GetNodeProp(id, k).int_value(), 9);
  EXPECT_EQ(store_.NodesByLabel(a).size(), 1u);
}

TEST_F(TransactionTest, DetachDeleteRecordsRelImages) {
  const RelTypeId t = store_.InternRelType("R");
  NodeId a = store_.CreateNode({store_.InternLabel("A")}, {});
  NodeId b = store_.CreateNode({store_.InternLabel("B")}, {});
  ASSERT_TRUE(store_.CreateRel(a, t, b, {}).ok());
  auto tx = Begin();
  ASSERT_TRUE(tx->DeleteNode(a, /*detach=*/true).ok());
  EXPECT_EQ(tx->AccumulatedDelta().deleted_rels.size(), 1u);
  EXPECT_EQ(tx->AccumulatedDelta().deleted_nodes.size(), 1u);
  Finish(std::move(tx), false);
  // Rollback revives node first, then the relationship.
  EXPECT_TRUE(store_.NodeAlive(a));
  EXPECT_EQ(store_.RelsOf(a, Direction::kBoth, std::nullopt).size(), 1u);
}

TEST_F(TransactionTest, PropChangeRecordsOldAndNew) {
  const PropKeyId k = store_.InternPropKey("x");
  NodeId id = store_.CreateNode({store_.InternLabel("A")},
                                {{k, Value::Int(1)}});
  auto tx = Begin();
  ASSERT_TRUE(tx->SetNodeProp(id, k, Value::Int(2)).ok());
  const auto& changes = tx->AccumulatedDelta().assigned_node_props;
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].old_value.int_value(), 1);
  EXPECT_EQ(changes[0].new_value.int_value(), 2);
  Finish(std::move(tx), false);
  EXPECT_EQ(store_.GetNodeProp(id, k).int_value(), 1);  // rolled back
}

TEST_F(TransactionTest, SetNullActsAsRemoval) {
  const PropKeyId k = store_.InternPropKey("x");
  NodeId id = store_.CreateNode({store_.InternLabel("A")},
                                {{k, Value::Int(1)}});
  auto tx = Begin();
  ASSERT_TRUE(tx->SetNodeProp(id, k, Value::Null()).ok());
  EXPECT_TRUE(tx->AccumulatedDelta().assigned_node_props.empty());
  ASSERT_EQ(tx->AccumulatedDelta().removed_node_props.size(), 1u);
  Finish(std::move(tx), true);
  EXPECT_TRUE(store_.GetNodeProp(id, k).is_null());
}

TEST_F(TransactionTest, RemovingAbsentPropertyIsNoEvent) {
  const PropKeyId k = store_.InternPropKey("x");
  NodeId id = store_.CreateNode({store_.InternLabel("A")}, {});
  auto tx = Begin();
  ASSERT_TRUE(tx->RemoveNodeProp(id, k).ok());
  EXPECT_TRUE(tx->AccumulatedDelta().Empty());
  Finish(std::move(tx), true);
}

TEST_F(TransactionTest, LabelChangesCaptured) {
  const LabelId extra = store_.InternLabel("Extra");
  NodeId id = store_.CreateNode({store_.InternLabel("A")}, {});
  auto tx = Begin();
  ASSERT_TRUE(tx->AddLabel(id, extra).ok());
  ASSERT_TRUE(tx->RemoveLabel(id, extra).ok());
  EXPECT_EQ(tx->AccumulatedDelta().assigned_labels.size(), 1u);
  EXPECT_EQ(tx->AccumulatedDelta().removed_labels.size(), 1u);
  // Re-adding an already-present label is not an event.
  ASSERT_TRUE(tx->AddLabel(id, store_.InternLabel("A")).ok());
  EXPECT_EQ(tx->AccumulatedDelta().assigned_labels.size(), 1u);
  Finish(std::move(tx), false);
  const NodeRecord* n = store_.GetNode(id);
  EXPECT_EQ(n->labels.size(), 1u);
}

TEST_F(TransactionTest, GhostReadsAfterDelete) {
  const PropKeyId k = store_.InternPropKey("x");
  const LabelId a = store_.InternLabel("A");
  NodeId id = store_.CreateNode({a}, {{k, Value::String("keep")}});
  auto tx = Begin();
  ASSERT_TRUE(tx->DeleteNode(id, false).ok());
  EXPECT_EQ(tx->ReadNodeProp(id, k).string_value(), "keep");
  std::vector<LabelId> labels = tx->ReadNodeLabels(id);
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], a);
  Finish(std::move(tx), true);
}

TEST_F(TransactionTest, DeltaScopesFoldIntoParent) {
  auto tx = Begin();
  ASSERT_TRUE(tx->CreateNode({store_.InternLabel("A")}, {}).ok());
  tx->PushDeltaScope();
  ASSERT_TRUE(tx->CreateNode({store_.InternLabel("B")}, {}).ok());
  GraphDelta inner = tx->PopDeltaScope();
  EXPECT_EQ(inner.created_nodes.size(), 1u);
  EXPECT_EQ(tx->AccumulatedDelta().created_nodes.size(), 2u);
  Finish(std::move(tx), true);
}

TEST_F(TransactionTest, CommitWithOpenScopeIsInternalError) {
  auto tx = Begin();
  tx->PushDeltaScope();
  EXPECT_EQ(tx->Commit().code(), StatusCode::kInternal);
  tx->PopDeltaScope();
  Finish(std::move(tx), true);
}

TEST_F(TransactionTest, OperationsAfterCommitFail) {
  auto tx = Begin();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_FALSE(tx->CreateNode({}, {}).ok());
  EXPECT_FALSE(tx->Rollback().ok());
  manager_.Release(tx.get());
}

TEST(DeltaTest, MergeAndSummary) {
  GraphDelta a, b;
  a.created_nodes.push_back(NodeId{1});
  b.created_nodes.push_back(NodeId{2});
  b.assigned_labels.push_back(LabelChange{NodeId{2}, 0});
  a.MergeFrom(b);
  EXPECT_EQ(a.created_nodes.size(), 2u);
  EXPECT_EQ(a.ChangeCount(), 3u);
  EXPECT_FALSE(a.Empty());
  EXPECT_NE(a.Summary().find("+2n"), std::string::npos);
  a.Clear();
  EXPECT_TRUE(a.Empty());
}

// Everything a DETACH DELETE touches, rendered: every record (tombstones
// included) with labels, properties and adjacency in list order, the label
// index, every property index's band postings, and each maintained IVM
// state.
std::string DumpDeleteFootprint(Database& db) {
  const GraphStore& store = db.store();
  std::string s;
  auto props = [&](const PropMap& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
      out += store.PropKeyName(k) + "=" + v.ToString() + ",";
    }
    return out + "}";
  };
  auto ids = [](const std::vector<RelId>& rels) {
    std::string out = "(";
    for (RelId r : rels) out += std::to_string(r.value) + ",";
    return out + ")";
  };
  for (uint64_t i = 0; i < store.NodeIdBound(); ++i) {
    const NodeRecord* n = store.GetNode(NodeId{i});
    s += "n" + std::to_string(i) + (n->alive ? "+" : "-") + "[";
    for (LabelId l : n->labels) s += store.LabelName(l) + ",";
    s += "]" + props(n->props) + ids(n->out_rels) + ids(n->in_rels) + "\n";
  }
  for (uint64_t i = 0; i < store.RelIdBound(); ++i) {
    const RelRecord* r = store.GetRel(RelId{i});
    s += "r" + std::to_string(i) + (r->alive ? "+" : "-") +
         store.RelTypeName(r->type) + std::to_string(r->src.value) + "->" +
         std::to_string(r->dst.value) + props(r->props) + "\n";
  }
  for (uint32_t l = 0; l < store.LabelDictSize(); ++l) {
    s += "label " + store.LabelName(l) + ":";
    for (NodeId id : store.NodesByLabel(l)) s += std::to_string(id.value) + ",";
    s += "\n";
  }
  // Hash bands iterate in no fixed order, so the band lines are sorted.
  std::vector<std::string> bands;
  store.indexes().ForEach([&](const index::PropertyIndex& idx) {
    idx.ForEachBandPosting(
        [&](const Value& v, const std::vector<uint64_t>& posting) {
          std::string line = "index " + idx.spec().name + " " + v.ToString() + ":";
          for (uint64_t id : posting) line += std::to_string(id) + ",";
          bands.push_back(line + "\n");
        });
  });
  std::sort(bands.begin(), bands.end());
  for (const std::string& line : bands) s += line;
  for (const ivm::TriggerIvmState* st : db.ivm().States()) {
    s += "ivm " + st->name() + " mode=" +
         std::to_string(static_cast<int>(st->mode())) +
         " tuples=" + std::to_string(st->tuples()) +
         " bytes=" + std::to_string(st->bytes()) + "\n";
  }
  return s;
}

// The tombstone hands its content to the undo image and keeps its
// adjacency until commit, so rolling a DETACH DELETE back restores the
// node exactly — and the restored node is live again for triggers.
TEST(DetachDeleteRollbackTest, RestoresRecordIndexesAdjacencyAndIvmState) {
  Database db;
  auto exec = [&db](const std::string& q) {
    auto r = db.Execute(q);
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  };
  exec("CREATE INDEX ON :W(name)");
  exec("CREATE RANGE INDEX ON :W(stock)");
  exec("CREATE (a:W:Hub {name: 'a', stock: 3}), (b:W {name: 'b', stock: 9}), "
       "(a)-[:R {w: 1}]->(b), (b)-[:R {w: 2}]->(a), (a)-[:Self]->(a)");
  exec("CREATE TRIGGER Take AFTER CREATE ON 'Order' FOR EACH NODE "
       "WHEN MATCH (w:W {name: NEW.wh}) "
       "BEGIN SET w.stock = w.stock - 1 END");
  exec("CREATE (:Order {wh: 'a'})");  // the first firing seeds IVM state
  const ivm::TriggerIvmState* st = db.ivm().Find("Take");
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->mode(), ivm::IvmMode::kMaintained);

  const std::string before = DumpDeleteFootprint(db);
  auto r = db.ExecuteTx(
      {"MATCH (w:W {name: 'a'}) DETACH DELETE w", "RETURN 1 / 0 AS boom"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(DumpDeleteFootprint(db), before);
  EXPECT_TRUE(db.ivm().VerifyAgainstStore().ok());

  exec("CREATE (:Order {wh: 'a'})");
  auto stock = db.Execute("MATCH (w:W {name: 'a'}) RETURN w.stock AS s");
  ASSERT_TRUE(stock.ok()) << stock.status();
  EXPECT_EQ(stock->rows[0][0].int_value(), 1);

  // Committed, the same delete leaves an empty tombstone.
  exec("MATCH (w:W {name: 'a'}) DETACH DELETE w");
  const NodeRecord* gone = db.store().GetNode(NodeId{0});
  EXPECT_FALSE(gone->alive);
  EXPECT_TRUE(gone->labels.empty() && gone->props.empty() &&
              gone->out_rels.empty() && gone->in_rels.empty());
  EXPECT_TRUE(db.ivm().VerifyAgainstStore().ok());
}

// Property test: a random interleaving of mutations must roll back to the
// exact pre-transaction state (node/rel liveness, labels, properties).
class RollbackProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RollbackProperty, RandomMutationsUndoExactly) {
  GraphStore store;
  TransactionManager manager(&store);
  Rng rng(GetParam());
  const LabelId labels[] = {store.InternLabel("A"), store.InternLabel("B"),
                            store.InternLabel("C")};
  const PropKeyId keys[] = {store.InternPropKey("p"),
                            store.InternPropKey("q")};
  const RelTypeId type = store.InternRelType("R");

  // Base graph.
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(store.CreateNode(
        {labels[i % 3]}, {{keys[0], Value::Int(i)}}));
  }
  std::vector<RelId> rels;
  for (int i = 0; i < 8; ++i) {
    rels.push_back(store
                       .CreateRel(nodes[rng.NextBelow(10)], type,
                                  nodes[rng.NextBelow(10)], {})
                       .value());
  }

  // Snapshot.
  auto snapshot = [&]() {
    std::string s;
    for (NodeId n : store.AllNodes()) {
      const NodeRecord* rec = store.GetNode(n);
      s += "n" + std::to_string(n.value) + "[";
      for (LabelId l : rec->labels) s += store.LabelName(l) + ",";
      s += "]{";
      for (const auto& [k, v] : rec->props) {
        s += store.PropKeyName(k) + "=" + v.ToString() + ",";
      }
      s += "} ";
    }
    for (RelId r : store.AllRels()) {
      const RelRecord* rec = store.GetRel(r);
      s += "r" + std::to_string(r.value) + "(" +
           std::to_string(rec->src.value) + "->" +
           std::to_string(rec->dst.value) + "){";
      for (const auto& [k, v] : rec->props) {
        s += store.PropKeyName(k) + "=" + v.ToString() + ",";
      }
      s += "} ";
    }
    return s;
  };
  const std::string before = snapshot();

  auto tx = std::move(manager.Begin()).value();
  for (int step = 0; step < 60; ++step) {
    switch (rng.NextBelow(8)) {
      case 0:
        ASSERT_TRUE(
            tx->CreateNode({labels[rng.NextBelow(3)]}, {}).ok());
        break;
      case 1: {
        NodeId n = nodes[rng.NextBelow(nodes.size())];
        if (store.NodeAlive(n)) {
          ASSERT_TRUE(tx->DeleteNode(n, /*detach=*/true).ok());
        }
        break;
      }
      case 2: {
        NodeId a = nodes[rng.NextBelow(nodes.size())];
        NodeId b = nodes[rng.NextBelow(nodes.size())];
        if (store.NodeAlive(a) && store.NodeAlive(b)) {
          ASSERT_TRUE(tx->CreateRel(a, type, b, {}).ok());
        }
        break;
      }
      case 3: {
        RelId r = rels[rng.NextBelow(rels.size())];
        if (store.RelAlive(r)) {
          ASSERT_TRUE(tx->DeleteRel(r).ok());
        }
        break;
      }
      case 4: {
        NodeId n = nodes[rng.NextBelow(nodes.size())];
        if (store.NodeAlive(n)) {
          ASSERT_TRUE(tx->SetNodeProp(n, keys[rng.NextBelow(2)],
                                      Value::Int(rng.NextInRange(0, 99)))
                          .ok());
        }
        break;
      }
      case 5: {
        NodeId n = nodes[rng.NextBelow(nodes.size())];
        if (store.NodeAlive(n)) {
          ASSERT_TRUE(tx->RemoveNodeProp(n, keys[rng.NextBelow(2)]).ok());
        }
        break;
      }
      case 6: {
        NodeId n = nodes[rng.NextBelow(nodes.size())];
        if (store.NodeAlive(n)) {
          ASSERT_TRUE(tx->AddLabel(n, labels[rng.NextBelow(3)]).ok());
        }
        break;
      }
      case 7: {
        RelId r = rels[rng.NextBelow(rels.size())];
        if (store.RelAlive(r)) {
          ASSERT_TRUE(tx->SetRelProp(r, keys[rng.NextBelow(2)],
                                     Value::String("w"))
                          .ok());
        }
        break;
      }
    }
  }
  ASSERT_TRUE(tx->Rollback().ok());
  manager.Release(tx.get());
  EXPECT_EQ(snapshot(), before) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollbackProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace pgt
