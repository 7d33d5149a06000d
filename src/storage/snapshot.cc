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

GraphSnapshot::~GraphSnapshot() { mgr_->Unpin(pin_); }

const NodeVersion* GraphSnapshot::Node(NodeId id) const {
  if (id.value >= image_->node_bound) return nullptr;
  const uint64_t epoch = image_->epoch;
  const NodeVersion* v = mgr_->nodes_.Head(id.value);
  while (v != nullptr && v->epoch > epoch) {
    v = v->prev.load(std::memory_order_acquire);
  }
  return v;
}

const RelVersion* GraphSnapshot::Rel(RelId id) const {
  if (id.value >= image_->rel_bound) return nullptr;
  const uint64_t epoch = image_->epoch;
  const RelVersion* v = mgr_->rels_.Head(id.value);
  while (v != nullptr && v->epoch > epoch) {
    v = v->prev.load(std::memory_order_acquire);
  }
  return v;
}

std::vector<NodeId> GraphSnapshot::NodesByLabel(LabelId label) const {
  const std::vector<NodeId>* bucket = Bucket(label);
  return bucket == nullptr ? std::vector<NodeId>{} : *bucket;
}

size_t GraphSnapshot::LabelCardinality(LabelId label) const {
  const std::vector<NodeId>* bucket = Bucket(label);
  return bucket == nullptr ? 0 : bucket->size();
}

std::vector<NodeId> GraphSnapshot::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(image_->node_count);
  for (uint64_t id = 0; id < image_->node_bound; ++id) {
    const NodeVersion* v = Node(NodeId{id});
    if (v != nullptr && v->alive) out.push_back(NodeId{id});
  }
  return out;
}

std::vector<RelId> GraphSnapshot::AllRels() const {
  std::vector<RelId> out;
  out.reserve(image_->rel_count);
  for (uint64_t id = 0; id < image_->rel_bound; ++id) {
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

namespace {

/// `prev` when no names were interned since it was built, else a fresh
/// copy of the store's dictionaries.
std::shared_ptr<const SnapshotDicts> CommittedDicts(
    const GraphStore& store, std::shared_ptr<const SnapshotDicts> prev) {
  if (prev != nullptr && prev->label_names.size() == store.LabelDictSize() &&
      prev->rel_type_names.size() == store.RelTypeDictSize() &&
      prev->prop_key_names.size() == store.PropKeyDictSize()) {
    return prev;
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
  return d;
}

/// Copies the committed carriers of `label` into `img`. O(|label|): see
/// the granularity note in docs/snapshots.md.
void RebuildBucket(CommittedImage& img, const GraphStore& store,
                   LabelId label) {
  img.buckets[label] =
      std::make_shared<const std::vector<NodeId>>(store.NodesByLabel(label));
}

/// The dictionaries, bounds and counts of `img`, refreshed from the store.
void RefreshFromStore(CommittedImage& img, const GraphStore& store) {
  img.dicts = CommittedDicts(store, std::move(img.dicts));
  img.node_bound = store.NodeIdBound();
  img.rel_bound = store.RelIdBound();
  img.node_count = store.NodeCount();
  img.rel_count = store.RelCount();
}

}  // namespace

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
  auto image = std::make_shared<CommittedImage>();
  image->epoch = epoch;
  image->buckets.resize(store.LabelDictSize());
  for (uint32_t l = 0; l < store.LabelDictSize(); ++l) {
    RebuildBucket(*image, store, l);
  }
  // Baseline a versioned posting sidecar per existing property index, so
  // snapshot probes work from the first pinned epoch on.
  auto indexes = std::make_shared<SnapshotIndexImage>();
  store.indexes().ForEach([&](const index::PropertyIndex& idx) {
    auto sidecar = std::make_shared<index::VersionedPostings>(idx.spec());
    sidecar->Baseline(idx, epoch);
    (*indexes)[{idx.spec().label, idx.spec().prop}] = std::move(sidecar);
  });
  image->indexes = std::move(indexes);
  RefreshFromStore(*image, store);
  image_ = std::move(image);
  armed_.store(true, std::memory_order_release);
}

void SnapshotManager::PublishIndexBands(const SnapshotIndexImage& indexes,
                                        const GraphStore& store,
                                        const GraphDelta& delta,
                                        uint64_t new_epoch) {
  for (const auto& [key, sidecar] : indexes) {
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

  // Everything up to Install runs without the lock. Versions tagged
  // `new_epoch` are invisible to every open snapshot (all pin older
  // epochs) and snapshots opened meanwhile still get the previous image,
  // so readers see either the previous commit or, after the swap, the
  // complete new one.
  const CommittedImage& cur = *image_;
  const uint64_t new_epoch = cur.epoch + 1;

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

  PublishIndexBands(*cur.indexes, store, delta, new_epoch);

  auto next = std::make_shared<CommittedImage>(cur);  // shares every bucket
  next->epoch = new_epoch;
  next->buckets.resize(store.LabelDictSize());
  for (LabelId l : touched_labels) RebuildBucket(*next, store, l);
  RefreshFromStore(*next, store);

  ReclaimBelow(Install(std::move(next)));
  return Status::OK();
}

uint64_t SnapshotManager::Install(std::shared_ptr<const CommittedImage> next) {
  std::lock_guard<std::mutex> lock(mu_);
  image_.swap(next);  // the replaced image is released after the unlock
  // Epoch publication: the one synchronization point readers observe.
  commit_epoch_.store(image_->epoch, std::memory_order_release);
  return MinKeepLocked();
}

uint64_t SnapshotManager::MinKeepLocked() const {
  return pins_.empty() ? image_->epoch : pins_.front().epoch;
}

void SnapshotManager::ReclaimBelow(uint64_t min_keep) {
  superseded_nodes_.Reclaim(min_keep);
  superseded_rels_.Reclaim(min_keep);
  for (const auto& [key, sidecar] : *image_->indexes) {
    sidecar->Truncate(min_keep);
  }
}

void SnapshotManager::Reclaim() {
  if (!armed_.load(std::memory_order_acquire)) return;
  uint64_t min_keep;
  {
    std::lock_guard<std::mutex> lock(mu_);
    min_keep = MinKeepLocked();
  }
  ReclaimBelow(min_keep);
}

std::shared_ptr<const GraphSnapshot> SnapshotManager::Open(
    std::shared_ptr<SnapshotManager> self) {
  // Declared before the lock, so it is released after the lock is: a stale
  // cached snapshot may be held by nobody else by the time we drop it, and
  // its destructor unpins, which takes mu_.
  std::shared_ptr<const GraphSnapshot> cached;
  std::lock_guard<std::mutex> lock(mu_);
  if (image_ == nullptr) return nullptr;  // not armed
  cached = cache_.lock();
  if (cached != nullptr && cached->image_ == image_) return cached;
  if (pins_.empty() || pins_.back().epoch != image_->epoch) {
    pins_.push_back({image_->epoch, 0});
  }
  EpochPin* pin = &pins_.back();
  ++pin->holders;
  auto snap = std::shared_ptr<const GraphSnapshot>(
      new GraphSnapshot(std::move(self), image_, pin));
  cache_ = snap;
  return snap;
}

void SnapshotManager::Unpin(EpochPin* pin) {
  std::lock_guard<std::mutex> lock(mu_);
  --pin->holders;
  while (!pins_.empty() && pins_.front().holders == 0) pins_.pop_front();
  while (!pins_.empty() && pins_.back().holders == 0) pins_.pop_back();
}

void SnapshotManager::OnIndexCreated(const index::PropertyIndex& live) {
  if (!armed_.load(std::memory_order_acquire)) return;
  const CommittedImage& cur = *image_;
  auto sidecar = std::make_shared<index::VersionedPostings>(live.spec());
  sidecar->Baseline(live, cur.epoch);
  auto indexes = std::make_shared<SnapshotIndexImage>(*cur.indexes);
  (*indexes)[{live.spec().label, live.spec().prop}] = std::move(sidecar);
  auto next = std::make_shared<CommittedImage>(cur);
  next->indexes = std::move(indexes);
  // Same-epoch re-opens miss the cache (it holds the old image) and pick
  // up the index; already-open snapshots keep the old image.
  (void)Install(std::move(next));
}

void SnapshotManager::OnIndexDropped(LabelId label, PropKeyId prop) {
  if (!armed_.load(std::memory_order_acquire)) return;
  const CommittedImage& cur = *image_;
  auto indexes = std::make_shared<SnapshotIndexImage>(*cur.indexes);
  indexes->erase({label, prop});
  auto next = std::make_shared<CommittedImage>(cur);
  next->indexes = std::move(indexes);
  (void)Install(std::move(next));
}

size_t SnapshotManager::SidecarVersions() const {
  return superseded_nodes_.size() + superseded_rels_.size();
}

size_t SnapshotManager::IndexSidecarVersions() const {
  // Copied under the lock: off the writer thread, image_ may be swapped
  // and the old image released at any moment.
  std::shared_ptr<const CommittedImage> image;
  {
    std::lock_guard<std::mutex> lock(mu_);
    image = image_;
  }
  if (image == nullptr) return 0;  // not armed
  size_t total = 0;
  for (const auto& [key, sidecar] : *image->indexes) {
    total += sidecar->SupersededVersions();
  }
  return total;
}

size_t SnapshotManager::PinnedSnapshots() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const EpochPin& pin : pins_) total += pin.holders;
  return total;
}

}  // namespace pgt
