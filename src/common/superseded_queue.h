#ifndef PGTRIGGERS_COMMON_SUPERSEDED_QUEUE_H_
#define PGTRIGGERS_COMMON_SUPERSEDED_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>

namespace pgt {

/// Epoch-ordered reclamation queue for immutable version chains (record
/// versions in src/storage/snapshot.h, posting versions in
/// src/index/versioned_postings.h). `V` has an immutable `uint64_t epoch`
/// and an `std::atomic<V*> prev` link to the next-older version.
///
/// Every version that supersedes an older one is pushed when it is
/// published. Publication runs in commit order, so the queue is sorted by
/// epoch. Once a queued version's epoch is <= `min_keep` (the oldest epoch
/// any snapshot can still pin), every snapshot resolves that chain at it
/// or at a newer version, so the versions below it are unreachable.
/// `Reclaim` pops exactly those entries and frees what lies below each.
/// An entry is popped before its own version can be superseded-and-freed
/// (its successor's entry sits later in the queue), and everything below
/// its predecessor went with the predecessor's entry, so each pop frees
/// exactly one version: `size()` is the number of banked superseded
/// versions, and reclamation costs O(versions freed).
///
/// Writer-side only: the writer pushes at publish and reclaims right after
/// (SnapshotManager::PublishCommit / Reclaim), without the manager mutex;
/// releasing a snapshot never touches the queue. Readers never load `prev`
/// of a version at or below their pinned epoch, so cutting it races with
/// nothing. `size()` alone may be read from any thread (introspection
/// while the writer, possibly a pool thread, keeps publishing).
template <typename V>
class SupersededQueue {
 public:
  SupersededQueue() = default;
  SupersededQueue(const SupersededQueue&) = delete;
  SupersededQueue& operator=(const SupersededQueue&) = delete;

  /// `v` was just published on top of an older version.
  void Push(V* v) {
    queue_.push_back(v);
    size_.store(queue_.size(), std::memory_order_relaxed);
  }

  /// Frees every version that no snapshot pinned at `min_keep` or newer
  /// can observe.
  void Reclaim(uint64_t min_keep) {
    while (!queue_.empty() && queue_.front()->epoch <= min_keep) {
      V* keep = queue_.front();
      queue_.pop_front();
      V* dead = keep->prev.load(std::memory_order_relaxed);
      keep->prev.store(nullptr, std::memory_order_release);
      while (dead != nullptr) {
        V* older = dead->prev.load(std::memory_order_relaxed);
        delete dead;
        dead = older;
      }
    }
    size_.store(queue_.size(), std::memory_order_relaxed);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  std::deque<V*> queue_;
  std::atomic<size_t> size_{0};  // queue_.size(), readable off the writer
};

}  // namespace pgt

#endif  // PGTRIGGERS_COMMON_SUPERSEDED_QUEUE_H_
