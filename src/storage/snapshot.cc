#include "src/storage/snapshot.h"

#include <algorithm>

#include "src/common/fault.h"
#include "src/common/macros.h"
#include "src/tx/delta.h"

namespace pgt {

namespace {

void SortUnique(std::vector<uint64_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

// --- GraphSnapshot -----------------------------------------------------------

GraphSnapshot::~GraphSnapshot() {
  if (mgr_ != nullptr) mgr_->Unpin(epoch_);
}

const NodeVersion* GraphSnapshot::Node(NodeId id) const {
  if (id.value >= node_bound_) return nullptr;
  const NodeVersion* v = mgr_->nodes_.Head(id.value);
  while (v != nullptr && v->epoch > epoch_) {
    v = v->prev.load(std::memory_order_acquire);
  }
  return v;
}

const RelVersion* GraphSnapshot::Rel(RelId id) const {
  if (id.value >= rel_bound_) return nullptr;
  const RelVersion* v = mgr_->rels_.Head(id.value);
  while (v != nullptr && v->epoch > epoch_) {
    v = v->prev.load(std::memory_order_acquire);
  }
  return v;
}

std::vector<NodeId> GraphSnapshot::NodesByLabel(LabelId label) const {
  auto it = buckets_.find(label);
  if (it == buckets_.end()) return {};
  return *it->second;
}

size_t GraphSnapshot::LabelCardinality(LabelId label) const {
  auto it = buckets_.find(label);
  return it == buckets_.end() ? 0 : it->second->size();
}

std::vector<NodeId> GraphSnapshot::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(node_count_);
  for (uint64_t id = 0; id < node_bound_; ++id) {
    const NodeVersion* v = Node(NodeId{id});
    if (v != nullptr && v->alive) out.push_back(NodeId{id});
  }
  return out;
}

std::vector<RelId> GraphSnapshot::AllRels() const {
  std::vector<RelId> out;
  out.reserve(rel_count_);
  for (uint64_t id = 0; id < rel_bound_; ++id) {
    const RelVersion* v = Rel(RelId{id});
    if (v != nullptr && v->alive) out.push_back(RelId{id});
  }
  return out;
}

std::vector<RelId> GraphSnapshot::RelsOf(NodeId node, Direction dir,
                                         std::optional<RelTypeId> type) const {
  std::vector<RelId> out;
  ForEachRelOf(node, dir, type, [&](RelId rid) { out.push_back(rid); });
  std::sort(out.begin(), out.end());
  return out;
}

// --- SnapshotManager ---------------------------------------------------------

void SnapshotManager::RefreshDictsLocked(const GraphStore& store) {
  if (dicts_ != nullptr &&
      dicts_->label_names.size() == store.LabelDictSize() &&
      dicts_->rel_type_names.size() == store.RelTypeDictSize() &&
      dicts_->prop_key_names.size() == store.PropKeyDictSize()) {
    return;  // no new names since the last committed image
  }
  auto d = std::make_shared<SnapshotDicts>();
  d->label_names.reserve(store.LabelDictSize());
  for (uint32_t i = 0; i < store.LabelDictSize(); ++i) {
    d->label_names.push_back(store.LabelName(i));
    d->label_ids.emplace(d->label_names.back(), i);
  }
  d->rel_type_names.reserve(store.RelTypeDictSize());
  for (uint32_t i = 0; i < store.RelTypeDictSize(); ++i) {
    d->rel_type_names.push_back(store.RelTypeName(i));
    d->rel_type_ids.emplace(d->rel_type_names.back(), i);
  }
  d->prop_key_names.reserve(store.PropKeyDictSize());
  for (uint32_t i = 0; i < store.PropKeyDictSize(); ++i) {
    d->prop_key_names.push_back(store.PropKeyName(i));
    d->prop_key_ids.emplace(d->prop_key_names.back(), i);
  }
  dicts_ = std::move(d);
}

void SnapshotManager::RebuildBucketLocked(const GraphStore& store,
                                          LabelId label) {
  buckets_[label] =
      std::make_shared<const std::vector<NodeId>>(store.NodesByLabel(label));
}

void SnapshotManager::Arm(const GraphStore& store) {
  std::lock_guard<std::mutex> lock(mu_);
  if (armed_.load(std::memory_order_relaxed)) return;
  // Both chunk directories must exist before any reader can call Head():
  // the directory pointer itself is not atomic, so it may never be
  // assigned concurrently with reads (e.g. the rel table staying empty at
  // arm time because every relationship was dead, then growing later).
  nodes_.EnsureTop();
  rels_.EnsureTop();
  const uint64_t epoch = commit_epoch_.load(std::memory_order_relaxed);
  for (uint64_t id = 0; id < store.NodeIdBound(); ++id) {
    const NodeRecord* rec = store.GetNode(NodeId{id});
    if (rec == nullptr || !rec->alive) continue;  // never-existed / dead:
                                                  // absent == invisible
    auto* v = new NodeVersion();
    v->epoch = epoch;
    v->alive = true;
    v->labels = rec->labels;
    v->props = rec->props;
    v->out_rels = std::make_shared<const std::vector<RelId>>(rec->out_rels);
    v->in_rels = std::make_shared<const std::vector<RelId>>(rec->in_rels);
    nodes_.Publish(id, v);
  }
  for (uint64_t id = 0; id < store.RelIdBound(); ++id) {
    const RelRecord* rec = store.GetRel(RelId{id});
    if (rec == nullptr || !rec->alive) continue;
    auto* v = new RelVersion();
    v->epoch = epoch;
    v->alive = true;
    v->type = rec->type;
    v->src = rec->src;
    v->dst = rec->dst;
    v->props = rec->props;
    rels_.Publish(id, v);
  }
  RefreshDictsLocked(store);
  for (uint32_t l = 0; l < store.LabelDictSize(); ++l) {
    RebuildBucketLocked(store, l);
  }
  // Baseline a versioned posting sidecar per existing property index, so
  // snapshot probes work from the first pinned epoch on.
  auto image = std::make_shared<SnapshotIndexImage>();
  store.indexes().ForEach([&](const index::PropertyIndex& idx) {
    auto sidecar = std::make_shared<index::VersionedPostings>(idx.spec());
    sidecar->Baseline(idx, epoch);
    (*image)[{idx.spec().label, idx.spec().prop}] = std::move(sidecar);
  });
  index_image_ = std::move(image);
  node_bound_ = store.NodeIdBound();
  rel_bound_ = store.RelIdBound();
  node_count_ = store.NodeCount();
  rel_count_ = store.RelCount();
  armed_.store(true, std::memory_order_release);
}

void SnapshotManager::PublishIndexBandsLocked(const GraphStore& store,
                                              const GraphDelta& delta,
                                              uint64_t new_epoch) {
  if (index_image_ == nullptr || index_image_->empty()) return;
  for (const auto& [key, sidecar] : *index_image_) {
    const LabelId label = key.first;
    const PropKeyId prop = key.second;
    // Committed value of a member (alive, labelled; the sidecar drops
    // NULL/NaN like PropertyIndex::Insert), else nullptr.
    auto now = [&](NodeId id) -> const Value* {
      const NodeRecord* rec = store.GetNode(id);
      if (!rec->alive || !rec->HasLabel(label)) return nullptr;
      return rec->props.Find(prop);
    };
    // Route each touched node to the bands it may have left — every value
    // the delta says it held before, or its current one when the delta
    // changed only its labels — and to the band it is in now.
    for (const auto* changes :
         {&delta.assigned_node_props, &delta.removed_node_props}) {
      for (const NodePropChange& c : *changes) {
        if (c.key != prop) continue;
        sidecar->Stage(c.node.value, &c.old_value, now(c.node));
      }
    }
    for (const DeletedNodeImage& img : delta.deleted_nodes) {
      sidecar->Stage(img.id.value, img.props.Find(prop), now(img.id));
    }
    for (NodeId id : delta.created_nodes) {
      sidecar->Stage(id.value, nullptr, now(id));
    }
    for (const auto* changes :
         {&delta.assigned_labels, &delta.removed_labels}) {
      for (const LabelChange& c : *changes) {
        if (c.label != label) continue;
        const Value* current = store.GetNode(c.node)->props.Find(prop);
        sidecar->Stage(c.node.value, current, now(c.node));
      }
    }
    sidecar->PublishStaged(new_epoch);
  }
}

Status SnapshotManager::PublishCommit(const GraphStore& store,
                                      const GraphDelta& delta) {
  // The fault point fires before the epoch advances or any version is
  // written, so a refused publish leaves the substrate exactly at the
  // previous commit and the transaction fully rollbackable.
  PGT_RETURN_IF_ERROR(FaultRegistry::Global().Hit("snapshot.publish"));
  if (!armed_.load(std::memory_order_acquire)) {
    // Unarmed: no readers exist; just advance the epoch counter.
    commit_epoch_.fetch_add(1, std::memory_order_release);
    return Status::OK();
  }

  std::lock_guard<std::mutex> lock(mu_);
  // The new epoch is published (store below) only after every version,
  // bucket, and count update lands, all under mu_ — an Open() racing this
  // commit either pins the previous epoch or observes the complete new
  // one, never a half-published state.
  const uint64_t new_epoch = commit_epoch_.load(std::memory_order_relaxed) + 1;

  // Records the commit touched, each re-versioned once from its (now
  // committed) live image. Endpoints of created relationships count as
  // touched nodes: their adjacency grew.
  std::vector<uint64_t> touched_nodes, touched_rels, adj_changed;
  std::vector<LabelId> touched_labels;
  for (NodeId id : delta.created_nodes) touched_nodes.push_back(id.value);
  for (const DeletedNodeImage& img : delta.deleted_nodes) {
    touched_nodes.push_back(img.id.value);
    for (LabelId l : img.labels) touched_labels.push_back(l);
  }
  for (const LabelChange& c : delta.assigned_labels) {
    touched_nodes.push_back(c.node.value);
    touched_labels.push_back(c.label);
  }
  for (const LabelChange& c : delta.removed_labels) {
    touched_nodes.push_back(c.node.value);
    touched_labels.push_back(c.label);
  }
  for (const NodePropChange& c : delta.assigned_node_props) {
    touched_nodes.push_back(c.node.value);
  }
  for (const NodePropChange& c : delta.removed_node_props) {
    touched_nodes.push_back(c.node.value);
  }
  for (RelId id : delta.created_rels) {
    touched_rels.push_back(id.value);
    const RelRecord* rec = store.GetRel(id);
    adj_changed.push_back(rec->src.value);
    adj_changed.push_back(rec->dst.value);
  }
  for (const DeletedRelImage& img : delta.deleted_rels) {
    touched_rels.push_back(img.id.value);
  }
  for (const RelPropChange& c : delta.assigned_rel_props) {
    touched_rels.push_back(c.rel.value);
  }
  for (const RelPropChange& c : delta.removed_rel_props) {
    touched_rels.push_back(c.rel.value);
  }
  for (NodeId id : delta.created_nodes) {
    const NodeRecord* rec = store.GetNode(id);
    for (LabelId l : rec->labels) touched_labels.push_back(l);
  }
  SortUnique(adj_changed);
  for (uint64_t id : adj_changed) touched_nodes.push_back(id);
  SortUnique(touched_nodes);
  SortUnique(touched_rels);

  for (uint64_t id : touched_nodes) {
    const NodeRecord* rec = store.GetNode(NodeId{id});
    auto* v = new NodeVersion();
    v->epoch = new_epoch;
    v->alive = rec->alive;
    if (rec->alive) {
      v->labels = rec->labels;
      v->props = rec->props;
    }
    NodeVersion* prev = nodes_.Head(id);
    const bool adj = std::binary_search(adj_changed.begin(),
                                        adj_changed.end(), id);
    if (prev != nullptr && !adj) {
      v->out_rels = prev->out_rels;  // adjacency unchanged: share
      v->in_rels = prev->in_rels;
    } else {
      v->out_rels = std::make_shared<const std::vector<RelId>>(rec->out_rels);
      v->in_rels = std::make_shared<const std::vector<RelId>>(rec->in_rels);
    }
    if (nodes_.Publish(id, v) != nullptr) superseded_nodes_.Push(v);
  }
  for (uint64_t id : touched_rels) {
    const RelRecord* rec = store.GetRel(RelId{id});
    auto* v = new RelVersion();
    v->epoch = new_epoch;
    v->alive = rec->alive;
    v->type = rec->type;
    v->src = rec->src;
    v->dst = rec->dst;
    if (rec->alive) v->props = rec->props;
    if (rels_.Publish(id, v) != nullptr) superseded_rels_.Push(v);
  }

  std::sort(touched_labels.begin(), touched_labels.end());
  touched_labels.erase(
      std::unique(touched_labels.begin(), touched_labels.end()),
      touched_labels.end());
  for (LabelId l : touched_labels) RebuildBucketLocked(store, l);

  PublishIndexBandsLocked(store, delta, new_epoch);

  RefreshDictsLocked(store);
  node_bound_ = store.NodeIdBound();
  rel_bound_ = store.RelIdBound();
  node_count_ = store.NodeCount();
  rel_count_ = store.RelCount();

  // Epoch publication: the one synchronization point readers observe.
  commit_epoch_.store(new_epoch, std::memory_order_release);

  CollectGarbageLocked();
  return Status::OK();
}

std::shared_ptr<const GraphSnapshot> SnapshotManager::Open(
    std::shared_ptr<SnapshotManager> self) {
  // Declared before the lock, so it is released after the lock is: a stale
  // cached snapshot may be held by nobody else by the time we drop it, and
  // its destructor unpins, which takes mu_.
  std::shared_ptr<const GraphSnapshot> cached;
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return nullptr;
  const uint64_t epoch = commit_epoch_.load(std::memory_order_relaxed);
  cached = cache_.lock();
  if (cached != nullptr && cached->epoch() == epoch) return cached;
  auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  snap->mgr_ = std::move(self);
  snap->epoch_ = epoch;
  snap->dicts_ = dicts_;
  snap->buckets_ = buckets_;
  snap->indexes_ = index_image_;
  snap->node_bound_ = node_bound_;
  snap->rel_bound_ = rel_bound_;
  snap->node_count_ = node_count_;
  snap->rel_count_ = rel_count_;
  pins_.insert(epoch);
  cache_ = snap;
  return snap;
}

void SnapshotManager::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(epoch);
  if (it != pins_.end()) pins_.erase(it);
  CollectGarbageLocked();
}

void SnapshotManager::CollectGarbageLocked() {
  const uint64_t min_keep = pins_.empty()
                                ? commit_epoch_.load(std::memory_order_relaxed)
                                : *pins_.begin();
  superseded_nodes_.Reclaim(min_keep);
  superseded_rels_.Reclaim(min_keep);
  if (index_image_ != nullptr) {
    for (const auto& [key, sidecar] : *index_image_) {
      sidecar->Truncate(min_keep);
    }
  }
}

void SnapshotManager::OnIndexCreated(const index::PropertyIndex& live) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return;
  auto image = index_image_ == nullptr
                   ? std::make_shared<SnapshotIndexImage>()
                   : std::make_shared<SnapshotIndexImage>(*index_image_);
  auto sidecar = std::make_shared<index::VersionedPostings>(live.spec());
  sidecar->Baseline(live, commit_epoch_.load(std::memory_order_relaxed));
  (*image)[{live.spec().label, live.spec().prop}] = std::move(sidecar);
  index_image_ = std::move(image);
  // Same-epoch re-opens must capture the new image; already-open snapshots
  // keep the old one and simply lack this index (planner label-scans).
  cache_.reset();
}

void SnapshotManager::OnIndexDropped(LabelId label, PropKeyId prop) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!armed_.load(std::memory_order_relaxed)) return;
  if (index_image_ == nullptr) return;
  auto image = std::make_shared<SnapshotIndexImage>(*index_image_);
  image->erase({label, prop});
  index_image_ = std::move(image);
  cache_.reset();
}

size_t SnapshotManager::SidecarVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return superseded_nodes_.size() + superseded_rels_.size();
}

size_t SnapshotManager::IndexSidecarVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  if (index_image_ != nullptr) {
    for (const auto& [key, sidecar] : *index_image_) {
      total += sidecar->SupersededVersions();
    }
  }
  return total;
}

size_t SnapshotManager::PinnedSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.size();
}

}  // namespace pgt
