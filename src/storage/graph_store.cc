#include "src/storage/graph_store.h"

#include <algorithm>

#include "src/ivm/ivm_manager.h"
#include "src/storage/snapshot.h"

namespace pgt {

GraphStore::GraphStore() : snapshots_(std::make_shared<SnapshotManager>()) {}

GraphStore::~GraphStore() = default;

std::shared_ptr<const GraphSnapshot> GraphStore::OpenSnapshot() {
  if (!snapshots_->armed()) snapshots_->Arm(*this);
  return snapshots_->Open(snapshots_);
}

bool NodeRecord::HasLabel(LabelId l) const {
  return std::binary_search(labels.begin(), labels.end(), l);
}

// --- IVM hook forwarders ----------------------------------------------------
// Out of line so graph_store.h only forward-declares the manager; the
// active() pre-check keeps the detached / idle cost to one branch.

void GraphStore::IvmNodeEvent(NodeId id, const std::vector<LabelId>& labels) {
  if (ivm_ != nullptr && ivm_->active()) ivm_->OnNodeEvent(id, labels);
}

void GraphStore::IvmLabelEvent(NodeId id, LabelId changed,
                               const std::vector<LabelId>& labels) {
  if (ivm_ != nullptr && ivm_->active()) {
    ivm_->OnLabelEvent(id, changed, labels);
  }
}

void GraphStore::IvmPropEvent(NodeId id, PropKeyId key,
                              const std::vector<LabelId>& labels) {
  if (ivm_ != nullptr && ivm_->active()) ivm_->OnPropEvent(id, key, labels);
}

// --- Nodes ------------------------------------------------------------------

NodeId GraphStore::CreateNode(const std::vector<LabelId>& labels,
                              PropMap props) {
  NodeRecord rec;
  rec.id = NodeId{nodes_.size()};
  rec.labels = labels;
  std::sort(rec.labels.begin(), rec.labels.end());
  rec.labels.erase(std::unique(rec.labels.begin(), rec.labels.end()),
                   rec.labels.end());
  rec.props = std::move(props);
  const NodeId id = rec.id;
  nodes_.push_back(std::move(rec));
  ++alive_nodes_;
  const NodeRecord& stored = nodes_.back();
  for (LabelId l : stored.labels) IndexNodeLabel(id, l);
  if (!indexes_.empty()) indexes_.OnNodeAdded(id, stored.labels, stored.props);
  IvmNodeEvent(id, stored.labels);
  return id;
}

NodeId GraphStore::BurnNodeId() {
  NodeRecord rec;
  rec.id = NodeId{nodes_.size()};
  rec.alive = false;
  const NodeId id = rec.id;
  nodes_.push_back(std::move(rec));
  return id;
}

RelId GraphStore::BurnRelId() {
  RelRecord rec;
  rec.id = RelId{rels_.size()};
  rec.alive = false;
  const RelId id = rec.id;
  rels_.push_back(std::move(rec));
  return id;
}

const NodeRecord* GraphStore::GetNode(NodeId id) const {
  if (id.value >= nodes_.size()) return nullptr;
  return &nodes_[id.value];
}

NodeRecord* GraphStore::MutableNode(NodeId id) {
  if (id.value >= nodes_.size()) return nullptr;
  return &nodes_[id.value];
}

bool GraphStore::NodeAlive(NodeId id) const {
  const NodeRecord* n = GetNode(id);
  return n != nullptr && n->alive;
}

Status GraphStore::DeleteNode(NodeId id, std::vector<LabelId>* labels,
                              PropMap* props) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  for (RelId r : n->out_rels) {
    if (RelAlive(r)) {
      return Status::FailedPrecondition(
          "node " + std::to_string(id.value) +
          " still has relationships; DETACH DELETE required");
    }
  }
  for (RelId r : n->in_rels) {
    if (RelAlive(r)) {
      return Status::FailedPrecondition(
          "node " + std::to_string(id.value) +
          " still has relationships; DETACH DELETE required");
    }
  }
  for (LabelId l : n->labels) UnindexNodeLabel(id, l);
  if (!indexes_.empty()) indexes_.OnNodeRemoved(id, n->labels, n->props);
  n->alive = false;
  --alive_nodes_;
  // After the alive flip: IVM recomputes membership from the record, so it
  // must see the tombstoned state; it reads the labels before they leave.
  IvmNodeEvent(id, n->labels);
  // Move-constructing empties the record's containers.
  std::vector<LabelId> gone_labels = std::move(n->labels);
  PropMap gone_props = std::move(n->props);
  if (labels != nullptr) *labels = std::move(gone_labels);
  if (props != nullptr) *props = std::move(gone_props);
  return Status::OK();
}

void GraphStore::ReleaseAdjacency(NodeId id) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || n->alive) return;
  std::vector<RelId>().swap(n->out_rels);
  std::vector<RelId>().swap(n->in_rels);
}

Status GraphStore::ReviveNode(NodeId id, std::vector<LabelId> labels,
                              PropMap props) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  if (n->alive) {
    return Status::FailedPrecondition("node is alive");
  }
  n->alive = true;
  n->labels = std::move(labels);
  std::sort(n->labels.begin(), n->labels.end());
  n->props = std::move(props);
  ++alive_nodes_;
  for (LabelId l : n->labels) IndexNodeLabel(id, l);
  if (!indexes_.empty()) indexes_.OnNodeAdded(id, n->labels, n->props);
  IvmNodeEvent(id, n->labels);
  return Status::OK();
}

Result<bool> GraphStore::AddLabel(NodeId id, LabelId label) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  auto it = std::lower_bound(n->labels.begin(), n->labels.end(), label);
  if (it != n->labels.end() && *it == label) return false;
  n->labels.insert(it, label);
  IndexNodeLabel(id, label);
  if (!indexes_.empty()) indexes_.OnLabelAdded(id, label, n->props);
  IvmLabelEvent(id, label, n->labels);
  return true;
}

Result<bool> GraphStore::RemoveLabel(NodeId id, LabelId label) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  auto it = std::lower_bound(n->labels.begin(), n->labels.end(), label);
  if (it == n->labels.end() || *it != label) return false;
  n->labels.erase(it);
  UnindexNodeLabel(id, label);
  if (!indexes_.empty()) indexes_.OnLabelRemoved(id, label, n->props);
  IvmLabelEvent(id, label, n->labels);
  return true;
}

Result<Value> GraphStore::SetNodeProp(NodeId id, PropKeyId key, Value value) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  Value old;
  auto it = n->props.find(key);
  if (it != n->props.end()) old = it->second;
  if (value.is_null()) {
    // Cypher semantics: SET n.p = null removes the property.
    n->props.Erase(key);
    if (!indexes_.empty()) {
      indexes_.OnPropChanged(id, n->labels, key, old, Value::Null());
    }
  } else {
    if (!indexes_.empty()) {
      indexes_.OnPropChanged(id, n->labels, key, old, value);
    }
    n->props[key] = std::move(value);
  }
  IvmPropEvent(id, key, n->labels);
  return old;
}

Result<Value> GraphStore::RemoveNodeProp(NodeId id, PropKeyId key) {
  NodeRecord* n = MutableNode(id);
  if (n == nullptr || !n->alive) {
    return Status::NotFound("node " + std::to_string(id.value));
  }
  Value old;
  auto it = n->props.find(key);
  if (it != n->props.end()) {
    old = it->second;
    n->props.Erase(key);
    if (!indexes_.empty()) {
      indexes_.OnPropChanged(id, n->labels, key, old, Value::Null());
    }
    IvmPropEvent(id, key, n->labels);
  }
  return old;
}

Value GraphStore::GetNodeProp(NodeId id, PropKeyId key) const {
  const NodeRecord* n = GetNode(id);
  if (n == nullptr) return Value::Null();
  auto it = n->props.find(key);
  return it == n->props.end() ? Value::Null() : it->second;
}

// --- Relationships -----------------------------------------------------------

Result<RelId> GraphStore::CreateRel(NodeId src, RelTypeId type, NodeId dst,
                                    PropMap props) {
  NodeRecord* s = MutableNode(src);
  NodeRecord* d = MutableNode(dst);
  if (s == nullptr || !s->alive) {
    return Status::NotFound("source node " + std::to_string(src.value));
  }
  if (d == nullptr || !d->alive) {
    return Status::NotFound("target node " + std::to_string(dst.value));
  }
  RelRecord rec;
  rec.id = RelId{rels_.size()};
  rec.type = type;
  rec.src = src;
  rec.dst = dst;
  rec.props = std::move(props);
  const RelId id = rec.id;
  rels_.push_back(std::move(rec));
  ++alive_rels_;
  s->out_rels.push_back(id);
  d->in_rels.push_back(id);
  return id;
}

const RelRecord* GraphStore::GetRel(RelId id) const {
  if (id.value >= rels_.size()) return nullptr;
  return &rels_[id.value];
}

RelRecord* GraphStore::MutableRel(RelId id) {
  if (id.value >= rels_.size()) return nullptr;
  return &rels_[id.value];
}

bool GraphStore::RelAlive(RelId id) const {
  const RelRecord* r = GetRel(id);
  return r != nullptr && r->alive;
}

Status GraphStore::DeleteRel(RelId id, PropMap* props) {
  RelRecord* r = MutableRel(id);
  if (r == nullptr || !r->alive) {
    return Status::NotFound("relationship " + std::to_string(id.value));
  }
  r->alive = false;
  --alive_rels_;
  PropMap gone = std::move(r->props);
  if (props != nullptr) *props = std::move(gone);
  return Status::OK();
}

Status GraphStore::ReviveRel(RelId id, PropMap props) {
  RelRecord* r = MutableRel(id);
  if (r == nullptr) {
    return Status::NotFound("relationship " + std::to_string(id.value));
  }
  if (r->alive) return Status::FailedPrecondition("relationship is alive");
  if (!NodeAlive(r->src) || !NodeAlive(r->dst)) {
    return Status::FailedPrecondition("endpoint not alive");
  }
  r->alive = true;
  r->props = std::move(props);
  ++alive_rels_;
  return Status::OK();
}

Result<Value> GraphStore::SetRelProp(RelId id, PropKeyId key, Value value) {
  RelRecord* r = MutableRel(id);
  if (r == nullptr || !r->alive) {
    return Status::NotFound("relationship " + std::to_string(id.value));
  }
  Value old;
  auto it = r->props.find(key);
  if (it != r->props.end()) old = it->second;
  if (value.is_null()) {
    r->props.Erase(key);
  } else {
    r->props[key] = std::move(value);
  }
  return old;
}

Result<Value> GraphStore::RemoveRelProp(RelId id, PropKeyId key) {
  RelRecord* r = MutableRel(id);
  if (r == nullptr || !r->alive) {
    return Status::NotFound("relationship " + std::to_string(id.value));
  }
  Value old;
  auto it = r->props.find(key);
  if (it != r->props.end()) {
    old = it->second;
    r->props.Erase(key);
  }
  return old;
}

Value GraphStore::GetRelProp(RelId id, PropKeyId key) const {
  const RelRecord* r = GetRel(id);
  if (r == nullptr) return Value::Null();
  auto it = r->props.find(key);
  return it == r->props.end() ? Value::Null() : it->second;
}

// --- Scans --------------------------------------------------------------------

std::vector<NodeId> GraphStore::NodesByLabel(LabelId label) const {
  std::vector<NodeId> out;
  auto it = label_index_.find(label);
  if (it == label_index_.end()) return out;
  out.reserve(it->second.size());
  for (uint64_t v : it->second) out.push_back(NodeId{v});
  return out;
}

size_t GraphStore::LabelCardinality(LabelId label) const {
  auto it = label_index_.find(label);
  return it == label_index_.end() ? 0 : it->second.size();
}

std::vector<NodeId> GraphStore::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(alive_nodes_);
  for (const NodeRecord& n : nodes_) {
    if (n.alive) out.push_back(n.id);
  }
  return out;
}

std::vector<RelId> GraphStore::AllRels() const {
  std::vector<RelId> out;
  out.reserve(alive_rels_);
  for (const RelRecord& r : rels_) {
    if (r.alive) out.push_back(r.id);
  }
  return out;
}

std::vector<RelId> GraphStore::RelsOf(NodeId node, Direction dir,
                                      std::optional<RelTypeId> type) const {
  std::vector<RelId> out;
  ForEachRelOf(node, dir, type, [&](RelId rid) { out.push_back(rid); });
  std::sort(out.begin(), out.end());
  return out;
}

// --- Property indexes --------------------------------------------------------

Result<const index::PropertyIndex*> GraphStore::CreateIndex(
    index::IndexSpec spec) {
  spec.name = LabelName(spec.label) + "(" + PropKeyName(spec.prop) + ")";
  PGT_ASSIGN_OR_RETURN(index::PropertyIndex * idx,
                       indexes_.Register(std::move(spec)));
  // Backfill from the label index: exactly the alive carriers of the label.
  const index::IndexSpec& s = idx->spec();
  for (NodeId id : NodesByLabel(s.label)) {
    const NodeRecord* n = GetNode(id);
    auto it = n->props.find(s.prop);
    if (it != n->props.end()) idx->Insert(it->second, id);
  }
  // A write-enforcing unique index must start from a clean state; report
  // the first duplicate and leave no index behind.
  if (s.unique && s.enforce_on_write) {
    std::string error;
    idx->ForEachDuplicate([&](const Value& v, const std::set<uint64_t>& ids) {
      if (!error.empty()) return;
      auto it = ids.begin();
      const uint64_t first = *it++;
      error = "cannot create unique index " + idx->spec().name + ": value " +
              v.ToString() + " held by nodes " + std::to_string(first) +
              " and " + std::to_string(*it);
    });
    if (!error.empty()) {
      const LabelId label = s.label;
      const PropKeyId prop = s.prop;
      PGT_RETURN_IF_ERROR(indexes_.Unregister(label, prop));
      return Status::ConstraintViolation(error);
    }
  }
  // Snapshot sidecar: give pinned-epoch readers a versioned posting store
  // for the new index (no-op until snapshots are armed).
  if (snapshots_->armed()) snapshots_->OnIndexCreated(*idx);
  return idx;
}

Status GraphStore::DropIndex(LabelId label, PropKeyId prop) {
  PGT_RETURN_IF_ERROR(indexes_.Unregister(label, prop));
  if (snapshots_->armed()) snapshots_->OnIndexDropped(label, prop);
  return Status::OK();
}

Status GraphStore::LoadForRecovery(const std::vector<std::string>& labels,
                                   const std::vector<std::string>& rel_types,
                                   const std::vector<std::string>& prop_keys,
                                   std::vector<NodeRecord> nodes,
                                   std::vector<RelRecord> rels) {
  if (!nodes_.empty() || !rels_.empty() || labels_.size() != 0 ||
      rel_types_.size() != 0 || prop_keys_.size() != 0) {
    return Status::Internal("LoadForRecovery requires an empty store");
  }
  for (const std::string& s : labels) labels_.Intern(s);
  for (const std::string& s : rel_types) rel_types_.Intern(s);
  for (const std::string& s : prop_keys) prop_keys_.Intern(s);
  if (labels_.size() != labels.size() || rel_types_.size() != rel_types.size() ||
      prop_keys_.size() != prop_keys.size()) {
    // Intern dedups, so a shrink means the image held duplicate names —
    // which a healthy writer can never produce.
    return Status::IoError("recovered dictionary contains duplicate names");
  }

  nodes_ = std::move(nodes);
  rels_ = std::move(rels);
  alive_nodes_ = 0;
  alive_rels_ = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeRecord& n = nodes_[i];
    n.id = NodeId{i};
    n.out_rels.clear();
    n.in_rels.clear();
    if (!n.alive) continue;
    ++alive_nodes_;
    for (LabelId l : n.labels) {
      if (l >= labels_.size()) {
        return Status::IoError("recovered node carries unknown label id " +
                               std::to_string(l));
      }
      IndexNodeLabel(n.id, l);
    }
  }
  // Adjacency is rebuilt from the alive relationships in id order: a
  // tombstoned rel's adjacency entries were unobservable (every traversal
  // skips dead rels), so omitting them is equivalent — and it is the same
  // out-then-in append CreateRel does, self-loops landing in both lists.
  for (size_t i = 0; i < rels_.size(); ++i) {
    RelRecord& r = rels_[i];
    r.id = RelId{i};
    if (!r.alive) continue;
    if (r.src.value >= nodes_.size() || r.dst.value >= nodes_.size() ||
        !nodes_[r.src.value].alive || !nodes_[r.dst.value].alive) {
      return Status::IoError("recovered relationship " + std::to_string(i) +
                             " has a dead or missing endpoint");
    }
    ++alive_rels_;
    nodes_[r.src.value].out_rels.push_back(r.id);
    nodes_[r.dst.value].in_rels.push_back(r.id);
  }
  return Status::OK();
}

void GraphStore::IndexNodeLabel(NodeId id, LabelId label) {
  label_index_[label].insert(id.value);
}

void GraphStore::UnindexNodeLabel(NodeId id, LabelId label) {
  auto it = label_index_.find(label);
  if (it != label_index_.end()) it->second.erase(id.value);
}

}  // namespace pgt
