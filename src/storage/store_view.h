#ifndef PGTRIGGERS_STORAGE_STORE_VIEW_H_
#define PGTRIGGERS_STORAGE_STORE_VIEW_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/prop_map.h"
#include "src/common/value.h"
#include "src/index/index_catalog.h"
#include "src/storage/graph_store.h"
#include "src/storage/snapshot.h"

namespace pgt {

/// A view-polymorphic handle to one property index's equality access path:
/// either the live catalog index or a snapshot's versioned posting sidecar
/// resolved at the pinned epoch. Small value type — scan plans carry it by
/// value, and an invalid (default) ref means "no index, label-scan".
///
/// Both paths share the band contract of property_index.h: Lookup appends
/// a band superset of exact matches in ascending id order, and callers
/// re-check candidates — so plans are access-path agnostic. Range scans
/// are live-only (SupportsRange() is false on snapshot refs).
class IndexRef {
 public:
  IndexRef() = default;

  static IndexRef LiveIndex(const index::PropertyIndex* idx) {
    IndexRef r;
    r.live_ = idx;
    return r;
  }
  static IndexRef SnapshotIndex(const index::VersionedPostings* postings,
                                uint64_t epoch) {
    IndexRef r;
    r.snap_ = postings;
    r.epoch_ = epoch;
    return r;
  }

  bool valid() const { return live_ != nullptr || snap_ != nullptr; }
  explicit operator bool() const { return valid(); }
  /// True for a live catalog index (false for snapshot and invalid refs).
  bool is_live() const { return live_ != nullptr; }

  const index::IndexSpec& spec() const {
    return live_ != nullptr ? live_->spec() : snap_->spec();
  }
  bool unique() const { return spec().unique; }
  bool SupportsRange() const {
    return live_ != nullptr && live_->SupportsRange();
  }

  /// Equality probe: band-superset candidates, ascending id order.
  void Lookup(const Value& value, std::vector<uint64_t>* out) const {
    if (live_ != nullptr) {
      live_->Lookup(value, out);
    } else {
      snap_->LookupAt(value, epoch_, out);
    }
  }

  /// Range probe — live refs only (callers gate on SupportsRange()).
  void Range(const std::optional<Value>& lo, bool lo_inclusive,
             const std::optional<Value>& hi, bool hi_inclusive,
             std::vector<uint64_t>* out) const {
    if (live_ != nullptr) {
      live_->Range(lo, lo_inclusive, hi, hi_inclusive, out);
    }
  }

 private:
  const index::PropertyIndex* live_ = nullptr;
  const index::VersionedPostings* snap_ = nullptr;
  uint64_t epoch_ = 0;
};

/// The read abstraction every read path consumes (query compiler and
/// executor, PG-Schema validator, emulation layers): two pointers, one of
/// which is set.
///
///  * StoreView::Live(store) — what the writer, triggers, and ad-hoc
///    statements use: reads forward straight to the GraphStore (same
///    inlined reads as before; the snapshot branch is one always-predicted
///    null check). Sees uncommitted state, exactly like a `GraphStore&`
///    used to.
///  * StoreView::Snapshot(snap) — reads resolve against a pinned
///    GraphSnapshot: the last committed state at the snapshot's epoch,
///    lock-free and safe on any thread while the single writer commits.
///
/// Property indexes work on both view kinds through FindIndex(): live
/// views probe the catalog's PropertyIndex directly; snapshot views probe
/// the epoch-versioned posting sidecar the SnapshotManager publishes
/// alongside record versions (index/versioned_postings.h), resolved at the
/// pinned epoch. Range scans remain a live-only access path (the sidecar
/// versions equality bands, not order) — the planner falls back to label
/// scans for range predicates on snapshots, which is a pure access-path
/// change: the matcher's determinism contract guarantees byte-identical
/// results whichever path is picked.
///
/// Semantics parity notes (mirroring GraphStore):
///  * NodeLabels/NodeProps/RelProps return nullptr for dead or absent
///    records; liveness is always per-view (a record alive in the live
///    store may be absent at a snapshot's epoch and vice versa);
///  * Rel() reports tombstoned relationships with exists=true and
///    alive=false — type and endpoints are immutable, and OLD transition
///    reads rely on them (live path only).
class StoreView {
 public:
  StoreView() = default;

  static StoreView Live(const GraphStore& store) {
    StoreView v;
    v.live_ = &store;
    return v;
  }
  static StoreView Snapshot(const GraphSnapshot& snap) {
    StoreView v;
    v.snap_ = &snap;
    return v;
  }

  bool valid() const { return live_ != nullptr || snap_ != nullptr; }
  bool is_snapshot() const { return snap_ != nullptr; }

  /// The underlying live store; nullptr for snapshot views (write paths
  /// must not run against snapshots).
  const GraphStore* live_store() const { return live_; }
  const GraphSnapshot* snapshot() const { return snap_; }

  // --- Dictionaries ---------------------------------------------------------

  std::optional<LabelId> LookupLabel(std::string_view name) const {
    return snap_ == nullptr ? live_->LookupLabel(name)
                            : snap_->LookupLabel(name);
  }
  std::optional<RelTypeId> LookupRelType(std::string_view name) const {
    return snap_ == nullptr ? live_->LookupRelType(name)
                            : snap_->LookupRelType(name);
  }
  std::optional<PropKeyId> LookupPropKey(std::string_view name) const {
    return snap_ == nullptr ? live_->LookupPropKey(name)
                            : snap_->LookupPropKey(name);
  }
  const std::string& LabelName(LabelId id) const {
    return snap_ == nullptr ? live_->LabelName(id) : snap_->LabelName(id);
  }
  const std::string& RelTypeName(RelTypeId id) const {
    return snap_ == nullptr ? live_->RelTypeName(id)
                            : snap_->RelTypeName(id);
  }
  const std::string& PropKeyName(PropKeyId id) const {
    return snap_ == nullptr ? live_->PropKeyName(id)
                            : snap_->PropKeyName(id);
  }

  // --- Records --------------------------------------------------------------

  bool NodeAlive(NodeId id) const {
    return snap_ == nullptr ? live_->NodeAlive(id) : snap_->NodeAlive(id);
  }
  bool RelAlive(RelId id) const {
    return snap_ == nullptr ? live_->RelAlive(id) : snap_->RelAlive(id);
  }

  /// Sorted labels of an alive node; nullptr when dead or absent in this
  /// view. The pointer is stable until the next store mutation (live) /
  /// for the snapshot's lifetime (snapshot).
  const std::vector<LabelId>* NodeLabels(NodeId id) const {
    if (snap_ == nullptr) {
      const NodeRecord* n = live_->GetNode(id);
      return n != nullptr && n->alive ? &n->labels : nullptr;
    }
    const NodeVersion* v = snap_->Node(id);
    return v != nullptr && v->alive ? &v->labels : nullptr;
  }

  /// Properties of an alive node / relationship; nullptr when dead or
  /// absent in this view. Same stability as NodeLabels.
  const PropMap* NodeProps(NodeId id) const {
    if (snap_ == nullptr) {
      const NodeRecord* n = live_->GetNode(id);
      return n != nullptr && n->alive ? &n->props : nullptr;
    }
    const NodeVersion* v = snap_->Node(id);
    return v != nullptr && v->alive ? &v->props : nullptr;
  }
  const PropMap* RelProps(RelId id) const {
    if (snap_ == nullptr) {
      const RelRecord* r = live_->GetRel(id);
      return r != nullptr && r->alive ? &r->props : nullptr;
    }
    const RelVersion* v = snap_->Rel(id);
    return v != nullptr && v->alive ? &v->props : nullptr;
  }

  /// Property of an alive node/rel; NULL when absent (or dead/absent
  /// record — matching Transaction::Read* with no ghost).
  Value NodeProp(NodeId id, PropKeyId key) const {
    const PropMap* props = NodeProps(id);
    if (props == nullptr) return Value::Null();
    auto it = props->find(key);
    return it == props->end() ? Value::Null() : it->second;
  }
  Value RelProp(RelId id, PropKeyId key) const {
    const PropMap* props = RelProps(id);
    if (props == nullptr) return Value::Null();
    auto it = props->find(key);
    return it == props->end() ? Value::Null() : it->second;
  }

  /// Relationship header. `exists` covers tombstoned records too (their
  /// type and endpoints remain readable, as in the live store).
  struct RelInfo {
    bool exists = false;
    bool alive = false;
    RelTypeId type = 0;
    NodeId src;
    NodeId dst;
  };
  RelInfo Rel(RelId id) const {
    RelInfo info;
    if (snap_ == nullptr) {
      const RelRecord* r = live_->GetRel(id);
      if (r == nullptr) return info;
      info = {true, r->alive, r->type, r->src, r->dst};
      return info;
    }
    const RelVersion* v = snap_->Rel(id);
    if (v == nullptr) return info;
    info = {true, v->alive, v->type, v->src, v->dst};
    return info;
  }

  // --- Scans ----------------------------------------------------------------

  std::vector<NodeId> NodesByLabel(LabelId label) const {
    return snap_ == nullptr ? live_->NodesByLabel(label)
                            : snap_->NodesByLabel(label);
  }
  size_t LabelCardinality(LabelId label) const {
    return snap_ == nullptr ? live_->LabelCardinality(label)
                            : snap_->LabelCardinality(label);
  }
  std::vector<NodeId> AllNodes() const {
    return snap_ == nullptr ? live_->AllNodes() : snap_->AllNodes();
  }
  std::vector<RelId> AllRels() const {
    return snap_ == nullptr ? live_->AllRels() : snap_->AllRels();
  }
  std::vector<RelId> RelsOf(NodeId node, Direction dir,
                            std::optional<RelTypeId> type) const {
    return snap_ == nullptr ? live_->RelsOf(node, dir, type)
                            : snap_->RelsOf(node, dir, type);
  }
  template <typename Fn>
  void ForEachRelOf(NodeId node, Direction dir,
                    std::optional<RelTypeId> type, Fn&& fn) const {
    if (snap_ == nullptr) {
      live_->ForEachRelOf(node, dir, type, std::forward<Fn>(fn));
    } else {
      snap_->ForEachRelOf(node, dir, type, std::forward<Fn>(fn));
    }
  }

  size_t NodeCount() const {
    return snap_ == nullptr ? live_->NodeCount() : snap_->NodeCount();
  }
  size_t RelCount() const {
    return snap_ == nullptr ? live_->RelCount() : snap_->RelCount();
  }
  uint64_t NodeIdBound() const {
    return snap_ == nullptr ? live_->NodeIdBound() : snap_->NodeIdBound();
  }
  uint64_t RelIdBound() const {
    return snap_ == nullptr ? live_->RelIdBound() : snap_->RelIdBound();
  }

  /// Property-index catalog — live views only (write-path consumers such
  /// as the PG-Schema validator; read paths use FindIndex, which works on
  /// snapshots too).
  const index::IndexCatalog* Indexes() const {
    return snap_ == nullptr ? &live_->indexes() : nullptr;
  }

  /// True when this view has any index access path at all — a cheap
  /// planner early-out before per-(label, prop) FindIndex probes.
  bool HasIndexes() const {
    return snap_ == nullptr ? !live_->indexes().empty()
                            : snap_->HasIndexes();
  }

  /// The index access path for (label, prop) in this view, or an invalid
  /// ref when none exists. Live views wrap the catalog index; snapshot
  /// views wrap the versioned posting sidecar pinned at the snapshot's
  /// epoch (absent for indexes created after the snapshot opened).
  IndexRef FindIndex(LabelId label, PropKeyId prop) const {
    if (snap_ == nullptr) {
      return IndexRef::LiveIndex(live_->indexes().Find(label, prop));
    }
    return IndexRef::SnapshotIndex(snap_->FindIndex(label, prop),
                                   snap_->epoch());
  }

 private:
  const GraphStore* live_ = nullptr;
  const GraphSnapshot* snap_ = nullptr;
};

}  // namespace pgt

#endif  // PGTRIGGERS_STORAGE_STORE_VIEW_H_
