#include "src/tx/transaction.h"

#include <algorithm>

#include "src/common/fault.h"
#include "src/storage/snapshot.h"

namespace pgt {

namespace {

/// Renders a write-time unique-index conflict as the user-facing error.
Status UniqueViolation(const index::IndexCatalog::UniqueConflict& c) {
  return Status::ConstraintViolation(
      "unique index " + c.index->spec().name + " violated: value " +
      c.value.ToString() + " is already held by node " +
      std::to_string(c.holder.value));
}

/// Property values nest at most kMaxValueDepth lists/maps, so the WAL can
/// decode every committed value.
Status CheckDepth(const Value& v) {
  if (v.WithinMaxDepth()) return Status::OK();
  return Status::InvalidArgument("property value nests deeper than " +
                                 std::to_string(kMaxValueDepth) +
                                 " lists/maps");
}

Status CheckDepth(const PropMap& props) {
  for (const auto& [key, v] : props) PGT_RETURN_IF_ERROR(CheckDepth(v));
  return Status::OK();
}

}  // namespace

Transaction::Transaction(GraphStore* store, uint64_t id)
    : store_(store), id_(id) {
  delta_stack_.emplace_back();  // transaction-level scope
}

void Transaction::PushDeltaScope() {
  if (!spare_scopes_.empty()) {
    delta_stack_.push_back(std::move(spare_scopes_.back()));
    spare_scopes_.pop_back();
  } else {
    delta_stack_.emplace_back();
  }
}

void Transaction::Reset(uint64_t id) {
  id_ = id;
  state_ = State::kActive;
  replay_unchecked_ = false;
  // One cleared transaction-level scope; extra scopes (only present after
  // an error unwind) are banked for reuse.
  while (delta_stack_.size() > 1) {
    RecycleDelta(std::move(delta_stack_.back()));
    delta_stack_.pop_back();
  }
  if (delta_stack_.empty()) {
    delta_stack_.emplace_back();
  } else {
    delta_stack_.front().Clear();
  }
  // A committed transaction's accumulated delta was moved out whole
  // (TakeAccumulatedDelta), leaving a capacity-less front; re-arm it from
  // the spare scopes (refilled by the manager's RecycleDelta).
  if (delta_stack_.front().created_nodes.capacity() == 0 &&
      !spare_scopes_.empty()) {
    delta_stack_.front() = std::move(spare_scopes_.back());
    spare_scopes_.pop_back();
  }
  undo_log_.clear();
  ghost_nodes_.clear();
  ghost_rels_.clear();
}

GraphDelta Transaction::PopDeltaScope() {
  GraphDelta top = std::move(delta_stack_.back());
  delta_stack_.pop_back();
  if (delta_stack_.empty()) delta_stack_.emplace_back();
  delta_stack_.back().MergeFrom(top);
  return top;
}

Status Transaction::CheckActive() const {
  if (state_ != State::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  return Status::OK();
}

Result<NodeId> Transaction::CreateNode(const std::vector<LabelId>& labels,
                                       PropMap props) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_RETURN_IF_ERROR(CheckDepth(props));
  // Write-time unique enforcement happens here (not in the store), so the
  // rollback path — which replays inverse mutations directly through the
  // store — can never be blocked by a constraint.
  if (!replay_unchecked_ && !store_->indexes().empty()) {
    if (auto c = store_->indexes().CheckNodeAdd(labels, props)) {
      return UniqueViolation(*c);
    }
  }
  const NodeId id = store_->CreateNode(labels, std::move(props));
  CurrentDelta().created_nodes.push_back(id);
  undo_log_.push_back(UndoCreateNode{id});
  return id;
}

Result<RelId> Transaction::CreateRel(NodeId src, RelTypeId type, NodeId dst,
                                     PropMap props) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_RETURN_IF_ERROR(CheckDepth(props));
  PGT_ASSIGN_OR_RETURN(RelId id,
                       store_->CreateRel(src, type, dst, std::move(props)));
  CurrentDelta().created_rels.push_back(id);
  undo_log_.push_back(UndoCreateRel{id});
  return id;
}

Status Transaction::DeleteNode(NodeId id, bool detach) {
  PGT_RETURN_IF_ERROR(CheckActive());
  const NodeRecord* n = store_->GetNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  if (detach) {
    std::vector<RelId> incident =
        store_->RelsOf(id, Direction::kBoth, std::nullopt);
    for (RelId rid : incident) {
      PGT_RETURN_IF_ERROR(DeleteRel(rid));
    }
  }
  // The store hands the record's content over instead of keeping a copy
  // on the tombstone.
  DeletedNodeImage image{id, {}, {}};
  PGT_RETURN_IF_ERROR(store_->DeleteNode(id, &image.labels, &image.props));
  CurrentDelta().deleted_nodes.push_back(image);
  ghost_nodes_[id] = image;
  undo_log_.push_back(UndoDeleteNode{std::move(image)});
  return Status::OK();
}

Status Transaction::DeleteRel(RelId id) {
  PGT_RETURN_IF_ERROR(CheckActive());
  const RelRecord* r = store_->GetRel(id);
  if (r == nullptr || !r->alive) {
    return Status::NotFound("relationship " + std::to_string(id.value));
  }
  DeletedRelImage image{id, r->type, r->src, r->dst, {}};
  PGT_RETURN_IF_ERROR(store_->DeleteRel(id, &image.props));
  CurrentDelta().deleted_rels.push_back(image);
  ghost_rels_[id] = image;
  undo_log_.push_back(UndoDeleteRel{std::move(image)});
  return Status::OK();
}

Status Transaction::AddLabel(NodeId id, LabelId label) {
  PGT_RETURN_IF_ERROR(CheckActive());
  if (!replay_unchecked_ && !store_->indexes().empty()) {
    const NodeRecord* n = store_->GetNode(id);
    if (n != nullptr && n->alive && !n->HasLabel(label)) {
      if (auto c = store_->indexes().CheckLabelAdd(id, label, n->props)) {
        return UniqueViolation(*c);
      }
    }
  }
  PGT_ASSIGN_OR_RETURN(bool added, store_->AddLabel(id, label));
  if (added) {
    CurrentDelta().assigned_labels.push_back(LabelChange{id, label});
    undo_log_.push_back(UndoAddLabel{id, label});
  }
  return Status::OK();
}

Status Transaction::RemoveLabel(NodeId id, LabelId label) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_ASSIGN_OR_RETURN(bool removed, store_->RemoveLabel(id, label));
  if (removed) {
    CurrentDelta().removed_labels.push_back(LabelChange{id, label});
    undo_log_.push_back(UndoRemoveLabel{id, label});
  }
  return Status::OK();
}

Status Transaction::SetNodeProp(NodeId id, PropKeyId key, Value value) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_RETURN_IF_ERROR(CheckDepth(value));
  if (!replay_unchecked_ && !store_->indexes().empty() && !value.is_null()) {
    const NodeRecord* n = store_->GetNode(id);
    if (n != nullptr && n->alive) {
      if (auto c = store_->indexes().CheckPropSet(id, n->labels, key, value)) {
        return UniqueViolation(*c);
      }
    }
  }
  const Value new_copy = value;
  PGT_ASSIGN_OR_RETURN(Value old, store_->SetNodeProp(id, key,
                                                      std::move(value)));
  if (new_copy.is_null() && old.is_null()) return Status::OK();  // no-op
  if (new_copy.is_null()) {
    // SET n.p = null acts as a removal (Cypher semantics).
    CurrentDelta().removed_node_props.push_back(
        NodePropChange{id, key, old, Value::Null()});
  } else {
    CurrentDelta().assigned_node_props.push_back(
        NodePropChange{id, key, old, new_copy});
  }
  undo_log_.push_back(UndoSetNodeProp{id, key, std::move(old)});
  return Status::OK();
}

Status Transaction::RemoveNodeProp(NodeId id, PropKeyId key) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_ASSIGN_OR_RETURN(Value old, store_->RemoveNodeProp(id, key));
  if (old.is_null()) return Status::OK();  // property was absent: no event
  CurrentDelta().removed_node_props.push_back(
      NodePropChange{id, key, old, Value::Null()});
  undo_log_.push_back(UndoSetNodeProp{id, key, std::move(old)});
  return Status::OK();
}

Status Transaction::SetRelProp(RelId id, PropKeyId key, Value value) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_RETURN_IF_ERROR(CheckDepth(value));
  const Value new_copy = value;
  PGT_ASSIGN_OR_RETURN(Value old,
                       store_->SetRelProp(id, key, std::move(value)));
  if (new_copy.is_null() && old.is_null()) return Status::OK();
  if (new_copy.is_null()) {
    CurrentDelta().removed_rel_props.push_back(
        RelPropChange{id, key, old, Value::Null()});
  } else {
    CurrentDelta().assigned_rel_props.push_back(
        RelPropChange{id, key, old, new_copy});
  }
  undo_log_.push_back(UndoSetRelProp{id, key, std::move(old)});
  return Status::OK();
}

Status Transaction::RemoveRelProp(RelId id, PropKeyId key) {
  PGT_RETURN_IF_ERROR(CheckActive());
  PGT_ASSIGN_OR_RETURN(Value old, store_->RemoveRelProp(id, key));
  if (old.is_null()) return Status::OK();
  CurrentDelta().removed_rel_props.push_back(
      RelPropChange{id, key, old, Value::Null()});
  undo_log_.push_back(UndoSetRelProp{id, key, std::move(old)});
  return Status::OK();
}

Value Transaction::ReadNodeProp(NodeId id, PropKeyId key) const {
  if (store_->NodeAlive(id)) return store_->GetNodeProp(id, key);
  const DeletedNodeImage* ghost = GhostNode(id);
  if (ghost != nullptr) {
    auto it = ghost->props.find(key);
    if (it != ghost->props.end()) return it->second;
  }
  return Value::Null();
}

Value Transaction::ReadRelProp(RelId id, PropKeyId key) const {
  if (store_->RelAlive(id)) return store_->GetRelProp(id, key);
  const DeletedRelImage* ghost = GhostRel(id);
  if (ghost != nullptr) {
    auto it = ghost->props.find(key);
    if (it != ghost->props.end()) return it->second;
  }
  return Value::Null();
}

std::vector<LabelId> Transaction::ReadNodeLabels(NodeId id) const {
  if (store_->NodeAlive(id)) return store_->GetNode(id)->labels;
  const DeletedNodeImage* ghost = GhostNode(id);
  if (ghost != nullptr) return ghost->labels;
  return {};
}

const std::vector<LabelId>* Transaction::ReadNodeLabelsView(NodeId id) const {
  if (store_->NodeAlive(id)) return &store_->GetNode(id)->labels;
  const DeletedNodeImage* ghost = GhostNode(id);
  if (ghost != nullptr) return &ghost->labels;
  return nullptr;
}

const DeletedNodeImage* Transaction::GhostNode(NodeId id) const {
  auto it = ghost_nodes_.find(id);
  return it == ghost_nodes_.end() ? nullptr : &it->second;
}

const DeletedRelImage* Transaction::GhostRel(RelId id) const {
  auto it = ghost_rels_.find(id);
  return it == ghost_rels_.end() ? nullptr : &it->second;
}

Status Transaction::Commit() {
  PGT_RETURN_IF_ERROR(CheckActive());
  if (delta_stack_.size() != 1) {
    return Status::Internal("commit with open delta scopes");
  }
  // Fault points fire before any state transition: a refused commit leaves
  // the transaction active with its undo log intact, so the caller's
  // rollback restores the pre-transaction store exactly.
  PGT_RETURN_IF_ERROR(FaultRegistry::Global().Hit("tx.commit"));
  // Publish the commit epoch (and, when the snapshot substrate is armed,
  // epoch-tagged versions of every record this transaction touched).
  // Rollbacks publish nothing: snapshots only ever observe committed state.
  PGT_RETURN_IF_ERROR(
      store_->snapshots().PublishCommit(*store_, delta_stack_.front()));
  state_ = State::kCommitted;
  undo_log_.clear();
  // No undo can revive a deleted node's relationships any more, so its
  // tombstone gives up the adjacency it kept for that.
  for (const DeletedNodeImage& img : delta_stack_.front().deleted_nodes) {
    store_->ReleaseAdjacency(img.id);
  }
  return Status::OK();
}

Status Transaction::Rollback() {
  PGT_RETURN_IF_ERROR(CheckActive());
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    Status st = std::visit(
        [&](auto&& op) -> Status {
          using T = std::decay_t<decltype(op)>;
          if constexpr (std::is_same_v<T, UndoCreateNode>) {
            // Earlier entries cannot revive a node this transaction
            // created, so its tombstone keeps nothing.
            PGT_RETURN_IF_ERROR(store_->DeleteNode(op.id));
            store_->ReleaseAdjacency(op.id);
            return Status::OK();
          } else if constexpr (std::is_same_v<T, UndoDeleteNode>) {
            return store_->ReviveNode(op.image.id, std::move(op.image.labels),
                                      std::move(op.image.props));
          } else if constexpr (std::is_same_v<T, UndoCreateRel>) {
            return store_->DeleteRel(op.id);
          } else if constexpr (std::is_same_v<T, UndoDeleteRel>) {
            return store_->ReviveRel(op.image.id, std::move(op.image.props));
          } else if constexpr (std::is_same_v<T, UndoAddLabel>) {
            return store_->RemoveLabel(op.id, op.label).status();
          } else if constexpr (std::is_same_v<T, UndoRemoveLabel>) {
            return store_->AddLabel(op.id, op.label).status();
          } else if constexpr (std::is_same_v<T, UndoSetNodeProp>) {
            if (op.old_value.is_null()) {
              return store_->RemoveNodeProp(op.id, op.key).status();
            }
            return store_->SetNodeProp(op.id, op.key, op.old_value).status();
          } else {
            static_assert(std::is_same_v<T, UndoSetRelProp>);
            if (op.old_value.is_null()) {
              return store_->RemoveRelProp(op.id, op.key).status();
            }
            return store_->SetRelProp(op.id, op.key, op.old_value).status();
          }
        },
        *it);
    if (!st.ok()) {
      return Status::Internal("rollback failed: " + st.ToString());
    }
  }
  undo_log_.clear();
  state_ = State::kRolledBack;
  return Status::OK();
}

Result<std::unique_ptr<Transaction>> TransactionManager::Begin() {
  if (active_ != nullptr) {
    return Status::FailedPrecondition(
        "another transaction is active (single-writer engine)");
  }
  std::unique_ptr<Transaction> tx;
  if (spare_ != nullptr) {
    tx = std::move(spare_);
    tx->Reset(next_id_++);
  } else {
    tx = std::make_unique<Transaction>(store_, next_id_++);
  }
  active_ = tx.get();
  return tx;
}

void TransactionManager::Release(Transaction* tx) {
  if (active_ == tx) active_ = nullptr;
}

void TransactionManager::Release(std::unique_ptr<Transaction> tx) {
  Release(tx.get());
  if (spare_ == nullptr) spare_ = std::move(tx);
}

}  // namespace pgt
