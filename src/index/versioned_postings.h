#ifndef PGTRIGGERS_INDEX_VERSIONED_POSTINGS_H_
#define PGTRIGGERS_INDEX_VERSIONED_POSTINGS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/superseded_queue.h"
#include "src/common/value.h"
#include "src/index/index_def.h"
#include "src/index/property_index.h"

namespace pgt::index {

/// Epoch-versioned sidecar of one live PropertyIndex, maintained by the
/// SnapshotManager so index probes work against any pinned epoch — the
/// posting-list analogue of the record version chains in
/// src/storage/snapshot.h (docs/snapshots.md, docs/async.md).
///
/// Granularity is the *band* (see property_index.h: numerics grouped by
/// double value, everything else by exact equality — the same superset
/// contract as live `Lookup`, so per-candidate rechecks carry over
/// unchanged). Each band holds an immutable version chain; a version is the
/// band's complete posting list (sorted ascending ids) as of its commit
/// epoch. Resolving a probe at epoch E walks the chain to the newest
/// version with `epoch <= E`.
///
/// The live index is read once, by `Baseline`. After that each commit's
/// versions are built from the commit's own change set: the SnapshotManager
/// `Stage`s every node the commit touched with the values it may have
/// held and its committed value, and `PublishStaged` derives each touched
/// band's next version from its head version. Cost is O(changes + copies
/// of the bands whose membership changed).
///
/// Thread contract (mirrors the record sidecar):
///  * all mutation — `Baseline`, `Stage`, `PublishStaged`, `Truncate` —
///    runs on the writer thread, without any lock;
///  * `LookupAt` / `Find` are lock-free and safe from any thread
///    concurrently with the writer. The band hash table grows by
///    publishing a rebuilt bucket directory; superseded directories are
///    retired, not freed, so an in-flight reader's traversal stays valid
///    (retired memory is bounded: geometric growth sums to less than one
///    extra copy of the final table).
///
/// Bands are never removed once created (an emptied band keeps a version
/// with an empty posting list); only `Truncate` reclaims versions older
/// than what the oldest pinned snapshot can still observe.
class VersionedPostings {
 public:
  explicit VersionedPostings(IndexSpec spec);
  ~VersionedPostings();
  VersionedPostings(const VersionedPostings&) = delete;
  VersionedPostings& operator=(const VersionedPostings&) = delete;

  const IndexSpec& spec() const { return spec_; }
  bool unique() const { return spec_.unique; }

  // --- Writer side ----------------------------------------------------------

  /// Materializes one version per band of `live` at `epoch`. Called when
  /// the sidecar is created: at Arm() for pre-existing indexes, at CREATE
  /// INDEX for indexes added while armed.
  void Baseline(const PropertyIndex& live, uint64_t epoch);

  /// Routes one touched node to the bands its commit may have changed:
  /// `was` is a value the node may have held under the indexed property at
  /// the previous epoch (nullptr for none), `now` its committed value when
  /// the node is a member now — alive and carrying the label (nullptr
  /// otherwise). NULL and NaN values are never members (PropertyIndex
  /// admission rule). Call once per candidate `was`; repeats are harmless,
  /// and candidates may over-approximate — whether the node really was a
  /// member is read off the band's head version.
  void Stage(uint64_t id, const Value* was, const Value* now);

  /// Publishes, at `epoch`, one version for every staged band whose
  /// membership changed, built from the band's head version. Bands whose
  /// content is unchanged get no version. Clears the staging area.
  void PublishStaged(uint64_t epoch);

  /// Frees versions no snapshot pinned at `min_keep` or newer can observe.
  void Truncate(uint64_t min_keep) { superseded_.Reclaim(min_keep); }

  /// Number of superseded (non-head) versions currently banked. Any
  /// thread (SupersededQueue::size).
  size_t SupersededVersions() const { return superseded_.size(); }

  // --- Reader side (lock-free) ----------------------------------------------

  /// Equality probe at a pinned epoch: appends the ids of the band
  /// containing `value` as of `epoch`, ascending. NULL / NaN probes match
  /// nothing (live parity).
  void LookupAt(const Value& value, uint64_t epoch,
                std::vector<uint64_t>* out) const;

  /// Invokes `fn` for every band that has a version at `epoch`, with that
  /// version's posting list (sorted ascending, possibly empty), in no
  /// particular order — the pinned-epoch mirror of
  /// PropertyIndex::ForEachBandPosting.
  void ForEachBandAt(
      uint64_t epoch,
      const std::function<void(const Value&, const std::vector<uint64_t>&)>&
          fn) const;

 private:
  struct PostingVersion {
    uint64_t epoch = 0;
    std::vector<uint64_t> ids;  // sorted ascending
    std::atomic<PostingVersion*> prev{nullptr};  // next-older version
  };

  struct Band {
    Value key;  // immutable; any band member hashes/compares identically
    std::atomic<PostingVersion*> head{nullptr};
  };

  // One staged (band, node) routing: `member` is whether the node belongs
  // to the band after the commit.
  struct Staged {
    Band* band = nullptr;
    uint64_t id = 0;
    bool member = false;
  };

  // Per-table bucket-chain node. Immutable after insertion; rebuilt (not
  // relinked) on growth so readers of a retired table never see a torn
  // chain.
  struct Slot {
    Band* band = nullptr;
    Slot* next = nullptr;
  };

  struct Table {
    size_t mask = 0;  // bucket_count - 1 (power of two)
    std::unique_ptr<std::atomic<Slot*>[]> buckets;
  };

  static const PostingVersion* VersionAt(const Band& band,
                                         uint64_t epoch);  // lock-free
  Band* FindBand(const Value& key) const;  // lock-free
  Band* EnsureBand(const Value& key);      // writer side
  void InsertSlot(Table& t, Band* band);   // writer side
  void Grow();                             // writer side

  IndexSpec spec_;
  std::atomic<Table*> table_{nullptr};

  // Writer-side ownership; readers only ever reach this memory through the
  // published table / chains.
  std::vector<std::unique_ptr<Table>> tables_;  // [0..n-2] retired, back live
  std::vector<std::unique_ptr<Band>> bands_;
  std::vector<std::unique_ptr<Slot>> slots_;
  SupersededQueue<PostingVersion> superseded_;
  std::vector<Staged> staged_;  // routings since the last PublishStaged
  std::vector<uint64_t> adds_, removes_;  // PublishStaged working buffers
};

}  // namespace pgt::index

#endif  // PGTRIGGERS_INDEX_VERSIONED_POSTINGS_H_
