#ifndef PGTRIGGERS_STORAGE_SNAPSHOT_H_
#define PGTRIGGERS_STORAGE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/prop_map.h"
#include "src/common/status.h"
#include "src/common/str_util.h"
#include "src/common/superseded_queue.h"
#include "src/common/value.h"
#include "src/index/versioned_postings.h"
#include "src/storage/graph_store.h"

namespace pgt {

struct GraphDelta;

/// Epoch-versioned snapshot substrate (docs/snapshots.md).
///
/// The engine is single-writer: all mutations flow through one Transaction
/// at a time, on one thread. Snapshots give *readers* on other threads a
/// consistent point-in-time view without locking that writer out:
///
///  * `commit_epoch` is bumped once per committed transaction (epoch
///    publication is the only synchronization point between the writer and
///    the readers' hot path);
///  * at commit, the records the transaction touched are re-published as
///    immutable epoch-tagged versions into a sidecar (chunked tables of
///    lock-free version chains) — record-granularity copy-on-write driven
///    by the commit's GraphDelta, which the transaction machinery already
///    derives for trigger dispatch;
///  * a `GraphSnapshot` pins an epoch: resolving a record walks its chain
///    to the newest version with `epoch <= pinned`. Readers never touch
///    the writer-mutable `GraphStore` records at all, so there is nothing
///    to tear; versions are immutable after publication and heads/prev
///    links are atomics.
///
/// The sidecar is reclaimed when the oldest pinned snapshot advances:
/// superseded versions are queued in epoch order (SupersededQueue) and
/// freed by the writer, once no live snapshot can observe them, right
/// after each publish — O(versions freed) per commit. Dead node heads are
/// unlinked from their chains the same way and freed once no reader can
/// hold them (docs/snapshots.md, "Dead-head retirement"). The manager mutex
/// guards only the pin list, the committed-image pointer and the
/// same-epoch snapshot cache: opening and releasing a snapshot are
/// amortized O(1) under it, and neither builds nor frees anything.
/// Snapshot *reads* never take it.
///
/// Uncommitted changes are never published, so a snapshot can be opened at
/// any time between or during transactions and always observes the last
/// committed state. Rollbacks publish nothing.

/// Immutable committed version of a node record. `out_rels` / `in_rels`
/// are shared with the previous version when the commit did not touch the
/// node's adjacency (adjacency only grows, and only via relationship
/// creation, so sharing is exact); every empty list is one shared empty
/// vector. A dead version (the node was deleted at `epoch`) carries no
/// labels, properties or adjacency, and it does not stay: once every
/// snapshot pins at or after its epoch, the writer unlinks it and the
/// chain slot reads empty, which snapshots treat like a dead node
/// (docs/snapshots.md, "Dead-head retirement").
struct NodeVersion {
  uint64_t epoch = 0;  // commit epoch at which this version became current
  bool alive = false;
  std::vector<LabelId> labels;  // sorted (empty for dead versions)
  PropMap props;                // empty for dead versions
  std::shared_ptr<const std::vector<RelId>> out_rels, in_rels;
  std::atomic<NodeVersion*> prev{nullptr};  // next-older version
};

/// Immutable committed version of a relationship record. Type and
/// endpoints are immutable in the store, so dead versions keep them (live
/// parity: a tombstoned RelRecord keeps its type/src/dst too), and a dead
/// head stays for good: StoreView::Rel reports a relationship deleted
/// before the pinned epoch as existing, so `type()`, `startNode()` and
/// `endNode()` of it answer on a snapshot as they do live.
struct RelVersion {
  uint64_t epoch = 0;
  bool alive = false;
  RelTypeId type = 0;
  NodeId src;
  NodeId dst;
  PropMap props;  // empty for dead versions
  std::atomic<RelVersion*> prev{nullptr};
};

/// Lock-free table of per-record version chains, indexed by dense record
/// id through a two-level directory: a fixed top level of kDirSize
/// directory pointers, each directory holding kDirSize chunk pointers,
/// each chunk kChunkSize chain heads. Directories and chunks are allocated
/// by the writer on demand and published with release stores; readers only
/// ever load. Nothing is resident for ids never published, and allocated
/// memory is stable for the table's lifetime, so readers hold no locks.
template <typename V>
class VersionTable {
 public:
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 4096
  static constexpr size_t kDirBits = 9;
  static constexpr size_t kDirSize = size_t{1} << kDirBits;  // 512
  static constexpr uint64_t kMaxRecords = uint64_t{1}
                                          << (kChunkBits + 2 * kDirBits);

  VersionTable() = default;
  ~VersionTable() { Destroy(); }
  VersionTable(const VersionTable&) = delete;
  VersionTable& operator=(const VersionTable&) = delete;

  /// Newest published version for `id` (acquire), or nullptr.
  V* Head(uint64_t id) const {
    if (id >= kMaxRecords) return nullptr;
    const Dir* d = top_[id >> (kChunkBits + kDirBits)].load(
        std::memory_order_acquire);
    if (d == nullptr) return nullptr;
    const Chunk* c = d->chunks[(id >> kChunkBits) & (kDirSize - 1)].load(
        std::memory_order_acquire);
    if (c == nullptr) return nullptr;
    return c->slots[id & (kChunkSize - 1)].load(std::memory_order_acquire);
  }

  /// Writer-side: prepends `v` as the new head of `id`'s chain. Returns the
  /// previous head (already linked as v->prev).
  V* Publish(uint64_t id, V* v) {
    std::atomic<V*>& slot = Slot(id);
    V* old = slot.load(std::memory_order_relaxed);
    v->prev.store(old, std::memory_order_relaxed);
    slot.store(v, std::memory_order_release);
    return old;
  }

  /// Writer-side: empties `id`'s slot, whose head must be a version with
  /// no older one. The caller owns it from here, and frees it once no
  /// reader can still hold it.
  void Unlink(uint64_t id) {
    Slot(id).store(nullptr, std::memory_order_release);
  }

 private:
  struct Chunk {
    std::atomic<V*> slots[kChunkSize] = {};
  };
  struct Dir {
    std::atomic<Chunk*> chunks[kDirSize] = {};
  };

  std::atomic<V*>& Slot(uint64_t id) {
    // Fail loudly rather than indexing past the directory: silently
    // dropping a version would hand snapshot readers a stale image.
    if (id >= kMaxRecords) {
      std::fprintf(stderr,
                   "FATAL: snapshot version table capacity exceeded "
                   "(record id >= %llu)\n",
                   static_cast<unsigned long long>(kMaxRecords));
      std::abort();
    }
    std::atomic<Dir*>& dslot = top_[id >> (kChunkBits + kDirBits)];
    Dir* d = dslot.load(std::memory_order_relaxed);
    if (d == nullptr) {
      d = new Dir();
      dslot.store(d, std::memory_order_release);
    }
    std::atomic<Chunk*>& cslot = d->chunks[(id >> kChunkBits) & (kDirSize - 1)];
    Chunk* c = cslot.load(std::memory_order_relaxed);
    if (c == nullptr) {
      c = new Chunk();
      cslot.store(c, std::memory_order_release);
    }
    return c->slots[id & (kChunkSize - 1)];
  }

  void Destroy() {
    for (std::atomic<Dir*>& dslot : top_) {
      Dir* d = dslot.load(std::memory_order_relaxed);
      if (d == nullptr) continue;
      for (std::atomic<Chunk*>& cslot : d->chunks) {
        Chunk* c = cslot.load(std::memory_order_relaxed);
        if (c == nullptr) continue;
        for (std::atomic<V*>& slot : c->slots) {
          V* v = slot.load(std::memory_order_relaxed);
          while (v != nullptr) {
            V* p = v->prev.load(std::memory_order_relaxed);
            delete v;
            v = p;
          }
        }
        delete c;
      }
      delete d;
    }
  }

  std::atomic<Dir*> top_[kDirSize] = {};
};

/// Immutable copies of the store's string dictionaries as of an epoch.
/// Rebuilt at commit only when names were interned since the last rebuild;
/// snapshots share the current copy via shared_ptr. Interner ids are dense
/// and stable, so a snapshot's ids agree with the live store's.
struct SnapshotDicts {
  using NameMap = std::unordered_map<std::string, uint32_t,
                                     TransparentStringHash, std::equal_to<>>;

  std::vector<std::string> label_names, rel_type_names, prop_key_names;
  NameMap label_ids, rel_type_ids, prop_key_ids;

  static std::optional<uint32_t> Find(const NameMap& m, std::string_view s) {
    auto it = m.find(s);
    if (it == m.end()) return std::nullopt;
    return it->second;
  }
};

class SnapshotManager;

/// The set of versioned index sidecars visible to snapshots: (label, prop)
/// -> chain store. The map itself is copy-on-write — replaced only on
/// index DDL, shared by every snapshot opened in between; per-commit
/// posting publication mutates the (lock-free) sidecars in place.
using SnapshotIndexImage =
    std::map<std::pair<uint32_t, uint32_t>,
             std::shared_ptr<index::VersionedPostings>>;

/// Everything a snapshot reads besides the version chains, as of one
/// commit epoch. The writer builds a fresh image per publish (and per
/// index DDL) outside the manager mutex, then swaps the manager's image
/// pointer under it; an image is immutable once published and shared by
/// every snapshot opened while it is current.
struct CommittedImage {
  uint64_t epoch = 0;
  std::shared_ptr<const SnapshotDicts> dicts;
  // Alive carriers per label id, in id order (shared between consecutive
  // images; a commit replaces only the buckets of labels it touched).
  // Null, or past the end for labels interned since, means no carriers.
  std::vector<std::shared_ptr<const std::vector<NodeId>>> buckets;
  // Versioned index sidecars; never null once armed.
  std::shared_ptr<const SnapshotIndexImage> indexes;
  uint64_t node_bound = 0, rel_bound = 0;
  size_t node_count = 0, rel_count = 0;
};

/// Live snapshots pinned at one epoch (SnapshotManager::pins_).
struct EpochPin {
  uint64_t epoch = 0;
  size_t holders = 0;
};

/// A pinned point-in-time view of the graph: everything committed up to
/// (and including) `epoch()`, nothing after, nothing uncommitted. Safe to
/// read from any number of threads concurrently with the single writer;
/// reads take no locks. Obtained from GraphStore::OpenSnapshot() /
/// Database::OpenSnapshot(); releasing the last reference unpins the epoch,
/// and the writer's next reclamation frees what only it still observed.
class GraphSnapshot {
 public:
  ~GraphSnapshot();
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  uint64_t epoch() const { return image_->epoch; }

  // --- Dictionaries (as of the pinned epoch) ------------------------------

  std::optional<LabelId> LookupLabel(std::string_view name) const {
    return SnapshotDicts::Find(image_->dicts->label_ids, name);
  }
  std::optional<RelTypeId> LookupRelType(std::string_view name) const {
    return SnapshotDicts::Find(image_->dicts->rel_type_ids, name);
  }
  std::optional<PropKeyId> LookupPropKey(std::string_view name) const {
    return SnapshotDicts::Find(image_->dicts->prop_key_ids, name);
  }
  const std::string& LabelName(LabelId id) const {
    return image_->dicts->label_names[id];
  }
  const std::string& RelTypeName(RelTypeId id) const {
    return image_->dicts->rel_type_names[id];
  }
  const std::string& PropKeyName(PropKeyId id) const {
    return image_->dicts->prop_key_names[id];
  }

  // --- Record resolution ---------------------------------------------------

  /// The version of the node visible at this epoch (alive or dead), or
  /// nullptr when the node did not exist yet. Pointer stays valid for the
  /// snapshot's lifetime (pinned versions are never reclaimed).
  const NodeVersion* Node(NodeId id) const;
  const RelVersion* Rel(RelId id) const;

  bool NodeAlive(NodeId id) const {
    const NodeVersion* v = Node(id);
    return v != nullptr && v->alive;
  }
  bool RelAlive(RelId id) const {
    const RelVersion* v = Rel(id);
    return v != nullptr && v->alive;
  }

  // --- Scans ---------------------------------------------------------------

  /// Alive carriers of `label` at this epoch, in id order.
  std::vector<NodeId> NodesByLabel(LabelId label) const;
  size_t LabelCardinality(LabelId label) const;
  std::vector<NodeId> AllNodes() const;
  std::vector<RelId> AllRels() const;

  /// Mirror of GraphStore::ForEachRelOf over the pinned view: alive
  /// relationships incident to `node`, raw adjacency order, self-loops
  /// reported once for kBoth.
  template <typename Fn>
  void ForEachRelOf(NodeId node, Direction dir,
                    std::optional<RelTypeId> type, Fn&& fn) const {
    const NodeVersion* n = Node(node);
    if (n == nullptr || !n->alive) return;
    auto consider = [&](RelId rid, const RelVersion* r) {
      if (r == nullptr || !r->alive) return;
      if (type.has_value() && r->type != *type) return;
      fn(rid);
    };
    if (dir == Direction::kOutgoing || dir == Direction::kBoth) {
      for (RelId rid : *n->out_rels) consider(rid, Rel(rid));
    }
    if (dir == Direction::kIncoming || dir == Direction::kBoth) {
      for (RelId rid : *n->in_rels) {
        const RelVersion* r = Rel(rid);  // resolve the chain once
        if (dir == Direction::kBoth && r != nullptr && r->src == r->dst) {
          continue;  // self-loops appear in both lists; report once
        }
        consider(rid, r);
      }
    }
  }

  std::vector<RelId> RelsOf(NodeId node, Direction dir,
                            std::optional<RelTypeId> type) const;

  // --- Index probes ---------------------------------------------------------

  /// The versioned posting sidecar for the index on (label, prop), or
  /// nullptr when no index covered the pair when this snapshot was opened
  /// (callers fall back to a label scan). Probe with
  /// `LookupAt(value, epoch(), out)`.
  const index::VersionedPostings* FindIndex(LabelId label,
                                            PropKeyId prop) const {
    const SnapshotIndexImage& indexes = *image_->indexes;
    auto it = indexes.find({label, prop});
    return it == indexes.end() ? nullptr : it->second.get();
  }

  bool HasIndexes() const { return !image_->indexes->empty(); }

  size_t NodeCount() const { return image_->node_count; }
  size_t RelCount() const { return image_->rel_count; }
  uint64_t NodeIdBound() const { return image_->node_bound; }
  uint64_t RelIdBound() const { return image_->rel_bound; }

 private:
  friend class SnapshotManager;
  GraphSnapshot(std::shared_ptr<SnapshotManager> mgr,
                std::shared_ptr<const CommittedImage> image, EpochPin* pin)
      : mgr_(std::move(mgr)), image_(std::move(image)), pin_(pin) {}

  const std::vector<NodeId>* Bucket(LabelId label) const {
    const auto& buckets = image_->buckets;
    return label < buckets.size() ? buckets[label].get() : nullptr;
  }

  std::shared_ptr<SnapshotManager> mgr_;  // keeps version tables alive
  // The image current when this snapshot was opened (keeps dropped
  // indexes' chains alive for the pinned epoch).
  std::shared_ptr<const CommittedImage> image_;
  EpochPin* pin_;  // owned by mgr_->pins_; released by the destructor
};

/// Owns the committed-version sidecar and the snapshot lifecycle. One per
/// GraphStore (held via shared_ptr so open snapshots keep the tables alive
/// even past store teardown).
///
/// Thread contract:
///  * PublishCommit(), Reclaim() and the index DDL hooks run on the writer
///    thread, which alone builds, publishes and frees versions and images;
///  * Arm() requires the writer to be idle (it baselines every live
///    record); it may run on any thread and holds mu_ throughout;
///  * Open() / snapshot release are safe from any thread: each holds mu_
///    for amortized O(1) work — read the image pointer and count a pin, or
///    uncount one — and frees nothing;
///  * snapshot reads (Node/Rel resolution, scans) are lock-free;
///  * the introspection counters are safe from any thread.
///
/// "The writer thread" is whichever thread holds the database's writer
/// lock: the async pool applies DETACHED actions, and so publishes, on
/// its own threads.
class SnapshotManager {
 public:
  SnapshotManager() = default;
  ~SnapshotManager();
  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// True once the sidecar is maintained. Until armed, commits only bump
  /// the epoch counter (one atomic add — the trigger hot path stays
  /// zero-cost when snapshots are unused).
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Builds the baseline: one version per live record at the current
  /// epoch, committed dictionary / label-bucket / count images. Idempotent.
  /// Must run with the writer idle (no transaction in flight).
  void Arm(const GraphStore& store);

  /// Publishes the commit that produced `delta`: bumps the epoch and (when
  /// armed) re-versions every record the delta touched, from the
  /// now-committed live images, and every index band whose membership the
  /// delta changed, from the band's head version; then installs the new
  /// committed image and reclaims (see Reclaim). Writer thread only.
  /// Fails only by fault injection ("snapshot.publish",
  /// docs/robustness.md), and then before any state changes — the caller
  /// can still roll the transaction back.
  Status PublishCommit(const GraphStore& store, const GraphDelta& delta);

  /// Frees every superseded record and posting version that no pinned
  /// snapshot can observe, and retires dead node heads (docs/snapshots.md).
  /// Runs after every armed publish; an idle writer calls it to free what
  /// snapshots released since its last commit. Writer thread only; a no-op
  /// until armed.
  void Reclaim();

  uint64_t commit_epoch() const {
    return commit_epoch_.load(std::memory_order_acquire);
  }

  /// Opens (or reuses, when one is already pinned at the current epoch) a
  /// snapshot of the latest committed state. Requires armed().
  std::shared_ptr<const GraphSnapshot> Open(
      std::shared_ptr<SnapshotManager> self);

  // --- Index DDL hooks (writer thread; invoked by GraphStore) ---------------

  /// A property index was created while armed: baseline a versioned
  /// sidecar for it at the current epoch and publish a new committed
  /// image with it. Snapshots already open keep the old image and fall
  /// back to label scans for this index — correct, just unaccelerated.
  void OnIndexCreated(const index::PropertyIndex& live);

  /// A property index was dropped while armed: publish an image without
  /// it. Open snapshots keep the old image (and its chains) alive.
  void OnIndexDropped(LabelId label, PropKeyId prop);

  // --- Introspection (tests / docs) ----------------------------------------

  /// Number of superseded (non-head) versions currently banked. Any
  /// thread; off the writer thread the count may be one publish stale.
  size_t SidecarVersions() const;
  /// Number of superseded posting versions banked across the current
  /// image's index sidecars. Any thread, like SidecarVersions().
  size_t IndexSidecarVersions() const;
  /// Number of dead node versions still allocated: heads waiting for
  /// every snapshot to pin at or after their epoch, plus unlinked ones
  /// waiting out the readers that may hold them. Any thread, like
  /// SidecarVersions().
  size_t DeadVersions() const {
    return dead_versions_.load(std::memory_order_relaxed);
  }
  /// Number of live snapshots (each pins its epoch). Any thread.
  size_t PinnedSnapshots() const;

 private:
  friend class GraphSnapshot;

  void Unpin(EpochPin* pin);
  /// Swaps in `next` and returns the oldest epoch a snapshot can still
  /// observe, read under the same lock as the swap: an Open either has its
  /// pin counted or pins `next`'s epoch.
  uint64_t Install(std::shared_ptr<const CommittedImage> next);
  uint64_t MinKeepLocked() const;
  void ReclaimBelow(uint64_t min_keep);
  /// Unlinks the dead node heads at or below `min_keep`, then frees the
  /// unlinked ones no pinned snapshot can still hold.
  void RetireDeadHeads(uint64_t min_keep);
  void PublishIndexBands(const SnapshotIndexImage& indexes,
                         const GraphStore& store, const GraphDelta& delta,
                         uint64_t new_epoch);

  std::atomic<uint64_t> commit_epoch_{0};
  std::atomic<bool> armed_{false};

  // Writer-owned: readers only load chain heads and links (lock-free).
  VersionTable<NodeVersion> nodes_;
  VersionTable<RelVersion> rels_;
  // Versions that superseded an older one, in epoch order (GC queue).
  SupersededQueue<NodeVersion> superseded_nodes_;
  SupersededQueue<RelVersion> superseded_rels_;
  // Dead node heads in epoch order, waiting for min_keep to reach them.
  struct DeadHead {
    uint64_t id;
    const NodeVersion* version;
  };
  std::deque<DeadHead> dead_nodes_;
  // Unlinked dead heads in unlink order, each with the epoch current when
  // it was unlinked: freed once no snapshot pinned at or below it remains.
  struct Unlinked {
    uint64_t epoch;
    const NodeVersion* version;
  };
  std::deque<Unlinked> unlinked_nodes_;
  std::atomic<size_t> dead_versions_{0};  // both deques, for DeadVersions()

  mutable std::mutex mu_;  // guards the three members below, nothing else
  // The current committed image. Only the writer replaces it (under mu_),
  // so the writer reads it without the lock; everyone else locks.
  std::shared_ptr<const CommittedImage> image_;
  // One entry per pinned epoch, ascending (pins are only ever taken at the
  // current epoch). Entries are popped from either end once their holders
  // reach zero, so the front is the oldest pinned epoch; deque growth at
  // the ends keeps every live snapshot's EpochPin* valid. An emptied
  // middle entry stays until the entries before it are popped, so the
  // deque holds up to one entry per epoch opened while the oldest pin is
  // held; each entry is popped once, so Unpin is amortized O(1).
  std::deque<EpochPin> pins_;
  std::weak_ptr<const GraphSnapshot> cache_;  // current-image snapshot reuse
};

}  // namespace pgt

#endif  // PGTRIGGERS_STORAGE_SNAPSHOT_H_
