#ifndef PGTRIGGERS_TRIGGER_ASYNC_EXECUTOR_H_
#define PGTRIGGERS_TRIGGER_ASYNC_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/storage/snapshot.h"
#include "src/trigger/engine.h"
#include "src/trigger/trigger_plan.h"
#include "src/tx/delta.h"

namespace pgt {

class Database;

/// Point-in-time counters of the async pool (CALL pgt.asyncStats() /
/// SHOW ASYNC STATUS — docs/async.md).
struct AsyncPoolStats {
  uint64_t enqueued = 0;     ///< activations handed off at commit
  uint64_t applied = 0;      ///< activations fully retired (any outcome)
  uint64_t prefiltered = 0;  ///< retired via the snapshot no-fire fast path
  uint64_t deferred = 0;     ///< retired via the full on-writer run
  /// Always 0: the writer never applies pool work at a statement boundary
  /// (it blocks instead). Kept for readers of the stats struct.
  uint64_t spilled = 0;
  uint64_t rejected = 0;     ///< dropped by the chain valve
  uint64_t queue_depth = 0;  ///< outstanding (enqueued, not yet applied)
  uint64_t in_flight = 0;    ///< currently pre-evaluating on a worker
  /// Activations dropped by fault containment (injected enqueue/apply
  /// failures — docs/robustness.md), distinct from chain-valve rejects.
  uint64_t shed = 0;
  /// Workers lost to injected faults; at zero live workers the pool stops
  /// accepting and the engine falls back to the serial inline drain.
  uint64_t worker_deaths = 0;
  int workers = 0;
};

/// Off-writer executor for DETACHED (ASYNC) trigger activations
/// (docs/async.md).
///
/// The writer hands each commit's detached activations over as
/// (activation, shared tx delta, snapshot pinned at the post-commit epoch)
/// work items with globally increasing sequence numbers. Pool workers
/// pre-evaluate WHEN against the pinned snapshot — index-accelerated via
/// the versioned posting sidecars, lock-free, off the writer thread. The
/// *apply* step (anything that can touch the live store: firing actions,
/// or even just ticking the serial path's per-run counters) happens in
/// strict sequence order under the Database's writer interlock, with the
/// pinned epoch revalidated first:
///
///  * WHEN pre-evaluated false AND the store is still at the pinned epoch
///    -> the verdict is exact; retire the activation with the serial
///    path's observable side effects (an empty autonomous commit).
///  * anything else (WHEN true or errored, ghost reads needed, epoch moved
///    on) -> defer: run the unchanged legacy on-writer detached path.
///
/// This two-phase scheme keeps the final graph state and per-trigger
/// firing order byte-identical to the serial on-writer baseline whenever
/// applies are drained at statement boundaries (the differential suite
/// runs with async_queue_capacity = 0), while moving the dominant cost —
/// condition evaluation — off the writer.
///
/// Ordering: applies advance a single next-sequence cursor; a work item
/// can only be applied when every earlier item has been. Workers race for
/// the writer interlock to apply ready prefixes; the writer itself applies
/// inline only when quiescing. Per-trigger FIFO follows from the global
/// FIFO.
///
/// Shutdown, CheckpointNow, and DDL quiesce the pool first (the Database
/// calls QuiesceHoldingWriterMu while holding the writer interlock), so a
/// catalog or index mutation never races an in-flight execution and a
/// checkpoint image never silently forgets queued detached work.
class AsyncExecutor {
 public:
  AsyncExecutor(Database* db, int workers, size_t capacity);
  ~AsyncExecutor();
  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  /// True until Stop(): new work is accepted. The engine falls back to the
  /// legacy inline drain when false (shutdown races).
  bool accepting() const { return accepting_.load(std::memory_order_acquire); }

  /// Hands one commit's detached activations to the pool. Caller holds the
  /// writer interlock (called from AfterCommit). Never blocks.
  void Enqueue(std::vector<Activation>&& acts,
               std::shared_ptr<const GraphDelta> source,
               std::shared_ptr<const GraphSnapshot> snapshot);

  /// Backpressure hook, called at a statement boundary with the writer
  /// interlock RELEASED: waits for the workers to drain the queue to at
  /// most `capacity` outstanding items.
  void StatementBoundary();

  /// Drain barrier: applies/awaits every outstanding item, in order.
  /// Caller must hold the writer interlock. Items another worker is still
  /// pre-evaluating are waited for; everything else is applied inline.
  void QuiesceHoldingWriterMu();

  /// Stops accepting work and joins the workers. Call after a final
  /// quiesce; any items enqueued after this fall back to inline execution.
  void Stop();

  bool Idle() const;
  AsyncPoolStats Stats() const;

 private:
  struct Item {
    uint64_t seq = 0;
    Activation act;
    std::shared_ptr<const GraphDelta> source;
    std::shared_ptr<const GraphSnapshot> snapshot;
    /// The trigger's compiled plans, handed over by the writer so workers
    /// never compile (null when the trigger has no WHEN, or its plans
    /// failed to compile — the item then always takes the full run).
    std::shared_ptr<const TriggerPlans> plans;
    /// Worker verdict: WHEN evaluated conclusively false at the pinned
    /// epoch (still revalidated against the live epoch at apply time).
    bool no_fire = false;
  };

  void WorkerMain();
  /// Pre-evaluates WHEN on the pinned snapshot; sets item->no_fire.
  void PreEvaluate(Item* item) const;
  /// Applies ready items (seq == next_apply_) under the writer interlock,
  /// acquired per batch. No locks held on entry.
  void TryApply();
  /// Applies one item per its verdict (or drops it past the chain valve).
  /// Caller holds the writer interlock, not mu_, and advances next_apply_
  /// afterwards.
  void ApplyOwned(Item* item);

  /// Extracts the item with seq == next_apply_ if it is immediately
  /// available (evaluated, or still pending — returned unevaluated for a
  /// full inline run). Returns nullptr while a worker is mid-evaluation.
  std::unique_ptr<Item> TakeNextLocked();

  size_t OutstandingLocked() const {
    return static_cast<size_t>(next_seq_ - next_apply_);
  }

  Database* db_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // workers: pending_ non-empty / stop
  std::condition_variable cv_state_;  // eval finished / apply advanced
  std::deque<std::unique_ptr<Item>> pending_;      // awaiting pre-eval
  std::map<uint64_t, std::unique_ptr<Item>> done_; // evaluated, not applied
  uint64_t next_seq_ = 0;    // next sequence number to assign
  uint64_t next_apply_ = 0;  // lowest sequence number not yet applied
  size_t evaluating_ = 0;    // items claimed by a worker, mid-eval
  /// Workers still alive (not lost to an injected "async.worker" fault).
  /// The last dying worker adopts the whole queue unevaluated and drains
  /// it, then flips accepting_ off (docs/robustness.md).
  int alive_workers_ = 0;
  bool stop_ = false;
  /// True while an apply is in progress (appliers hold the writer
  /// interlock, so at most one at a time). Lets Enqueue tell nested
  /// (chain) hand-offs from fresh writer commits.
  bool applying_ = false;
  /// Consecutive applies since the pool was last idle / last fed by a
  /// fresh writer commit — the pool-mode kMaxDetachedQueue chain valve.
  uint64_t chain_applies_ = 0;
  std::atomic<bool> accepting_{true};

  std::atomic<uint64_t> enqueued_{0};
  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> prefiltered_{0};
  std::atomic<uint64_t> deferred_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> worker_deaths_{0};

  std::vector<std::thread> workers_;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_ASYNC_EXECUTOR_H_
