#include "src/trigger/async_executor.h"

#include <utility>

#include "src/common/fault.h"
#include "src/cypher/ast.h"
#include "src/cypher/eval.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/storage/store_view.h"
#include "src/trigger/database.h"
#include "src/trigger/trigger_def.h"

namespace pgt {

AsyncExecutor::AsyncExecutor(Database* db, int workers, size_t capacity)
    : db_(db), capacity_(capacity) {
  if (workers < 0) workers = 0;
  alive_workers_ = workers;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

AsyncExecutor::~AsyncExecutor() { Stop(); }

void AsyncExecutor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // already stopped and joined
    stop_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  cv_work_.notify_all();
  cv_state_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void AsyncExecutor::Enqueue(std::vector<Activation>&& acts,
                            std::shared_ptr<const GraphDelta> source,
                            std::shared_ptr<const GraphSnapshot> snapshot) {
  // Resolve each trigger's compiled plans here, on the writer (compiling
  // touches the live store's dictionaries and the plan caches), before
  // taking the queue lock.
  std::vector<std::shared_ptr<const TriggerPlans>> plans(acts.size());
  for (size_t i = 0; i < acts.size(); ++i) {
    const TriggerDef& def = *acts[i].trigger;
    if (def.when_expr == nullptr && def.when_query.clauses.empty()) continue;
    auto compiled = GetOrCompileTriggerPlans(def, db_->store(),
                                             db_->PlanEpoch(),
                                             &db_->plan_compile_counters());
    if (compiled.ok()) plans[i] = std::move(compiled).value();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A hand-off from the writer's own commit (not from an apply we are
  // running) starts a fresh detached chain (see the chain valve in
  // ApplyOwned).
  if (!applying_) chain_applies_ = 0;
  for (size_t i = 0; i < acts.size(); ++i) {
    Activation& act = acts[i];
    // Fault containment: an injected hand-off failure sheds the activation
    // (the commit that produced it is already durable; DETACHED effects
    // are post-commit and shed-able by contract — docs/robustness.md).
    if (!FaultRegistry::Global().Hit("async.enqueue").ok()) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto item = std::make_unique<Item>();
    item->seq = next_seq_++;
    item->act = std::move(act);
    item->source = source;
    item->snapshot = snapshot;
    item->plans = std::move(plans[i]);
    pending_.push_back(std::move(item));
    enqueued_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_work_.notify_all();
}

void AsyncExecutor::WorkerMain() {
  for (;;) {
    std::unique_ptr<Item> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;  // leftovers are drained by the final quiesce
      item = std::move(pending_.front());
      pending_.pop_front();
      ++evaluating_;
    }
    // Fault containment: an injected "async.worker" fault kills this worker
    // mid-claim. Crucially the claimed item is still published — unevaluated
    // (no_fire stays false), so it gets the full on-writer run — which keeps
    // the FIFO apply chain satisfiable: the quiesce wait watches for
    // done_.count(next_apply_), and a silently vanished head would park it
    // forever (docs/robustness.md).
    const bool dying = !FaultRegistry::Global().Hit("async.worker").ok();
    if (!dying) PreEvaluate(item.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      --evaluating_;
      done_.emplace(item->seq, std::move(item));
      if (dying) {
        worker_deaths_.fetch_add(1, std::memory_order_relaxed);
        if (--alive_workers_ <= 0) {
          // Last worker down: nobody is left to claim pending_ items, so a
          // writer blocked on backpressure would wait forever.
          // Adopt the whole queue unevaluated (full runs at apply) and stop
          // accepting — the engine serial-drains future commits inline.
          accepting_.store(false, std::memory_order_release);
          while (!pending_.empty()) {
            std::unique_ptr<Item> orphan = std::move(pending_.front());
            pending_.pop_front();
            done_.emplace(orphan->seq, std::move(orphan));
          }
        }
      }
    }
    cv_state_.notify_all();
    TryApply();
    if (dying) return;
  }
}

void AsyncExecutor::PreEvaluate(Item* item) const {
  item->no_fire = false;  // default: defer to the full on-writer run
  const TriggerDef& def = *item->act.trigger;
  const bool has_expr = def.when_expr != nullptr;
  const bool has_query = !def.when_query.clauses.empty();
  // No WHEN: the action always runs; there is nothing to prefilter.
  if (!has_expr && !has_query) return;
  if (item->snapshot == nullptr || item->plans == nullptr) return;
  // A no-fire verdict is only usable while the pinned epoch is still
  // current, and epochs never rewind: once the writer has moved past it,
  // the item is headed for the full on-writer run no matter what we would
  // compute here — skip the evaluation instead of paying for it twice
  // (without this, one stale item under a lagging pool makes every
  // successor cost pre-eval + full run and the backlog never recovers).
  if (db_->store().snapshots().commit_epoch() != item->snapshot->epoch()) {
    return;
  }
  // OLD transition variables of deleted items resolve through transaction
  // ghosts the snapshot cannot carry — the on-writer run re-injects them.
  if (!item->source->deleted_nodes.empty() ||
      !item->source->deleted_rels.empty()) {
    return;
  }
  // Pathological WHEN pipelines that would write are evaluated (and
  // rejected) only by the real run.
  if (has_query && !cypher::IsReadOnlyQuery(def.when_query)) return;

  // Snapshot evaluation context: exactly QueryAt's shape (txless, pinned
  // view, no clock, no procedures — statements needing either error out
  // here and defer), plus the activation's transition environment.
  static const Params kNoParams;
  cypher::EvalContext ctx;
  ctx.tx = nullptr;
  ctx.view = StoreView::Snapshot(*item->snapshot);
  ctx.params = &kNoParams;
  ctx.clock = nullptr;
  ctx.procedures = nullptr;
  ctx.transition = &item->act.env;

  // The plans were compiled against the live store; the executor
  // re-resolves their index probes against the snapshot. No frame pool:
  // the Database's pool belongs to the writer thread.
  const cypher::plan::TriggerProgram& prog = item->plans->program;
  cypher::plan::PlanExecutor exec(ctx, prog.slot_names);
  cypher::plan::Frame seed = PgTriggerEngine::SeedFrame(prog, item->act, exec);
  if (prog.when_expr != nullptr) {
    auto pass = exec.EvalPredicate(*prog.when_expr, seed);
    item->no_fire = pass.ok() && !pass.value();
    return;
  }
  std::vector<cypher::plan::Frame> frames;
  frames.push_back(std::move(seed));
  auto out = exec.RunClauses(prog.when_steps, std::move(frames));
  item->no_fire = out.ok() && out.value().empty();
}

void AsyncExecutor::TryApply() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (done_.find(next_apply_) == done_.end()) return;
  }
  // The head of the sequence is ready: take the writer interlock and apply
  // every consecutively-ready item. Racing appliers are harmless — whoever
  // wins the interlock drains the ready prefix; the loser finds nothing.
  std::lock_guard<std::mutex> writer(db_->writer_interlock());
  for (;;) {
    std::unique_ptr<Item> item;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = done_.find(next_apply_);
      if (it == done_.end()) return;
      item = std::move(it->second);
      done_.erase(it);
    }
    ApplyOwned(item.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++next_apply_;
      if (OutstandingLocked() == 0) chain_applies_ = 0;
    }
    cv_state_.notify_all();
  }
}

void AsyncExecutor::ApplyOwned(Item* item) {
  uint64_t chain = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    applying_ = true;
    chain = ++chain_applies_;
  }
  // Pool-mode analog of the serial drain's kMaxDetachedQueue valve: a
  // self-sustaining detached chain (each apply enqueues successors) is cut
  // off by dropping instead of erroring — the activating committer already
  // returned, so there is nobody left to hand the error to (docs/async.md).
  if (chain > static_cast<uint64_t>(PgTriggerEngine::kMaxDetachedQueue)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  } else if (!FaultRegistry::Global().Hit("async.apply").ok()) {
    // Fault containment: an injected apply failure sheds the activation but
    // still retires it, so next_apply_ advances and the FIFO never stalls.
    shed_.fetch_add(1, std::memory_order_relaxed);
    applied_.fetch_add(1, std::memory_order_relaxed);
  } else if (item->no_fire && item->snapshot != nullptr &&
             db_->store().snapshots().commit_epoch() ==
                 item->snapshot->epoch()) {
    // The pinned epoch is still current, so the snapshot verdict is exact.
    db_->engine().ApplyPoolSkip(item->act);
    prefiltered_.fetch_add(1, std::memory_order_relaxed);
    applied_.fetch_add(1, std::memory_order_relaxed);
  } else {
    (void)db_->engine().ApplyPoolDeferred(item->act, *item->source);
    deferred_.fetch_add(1, std::memory_order_relaxed);
    applied_.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  applying_ = false;
}

std::unique_ptr<AsyncExecutor::Item> AsyncExecutor::TakeNextLocked() {
  auto it = done_.find(next_apply_);
  if (it != done_.end()) {
    std::unique_ptr<Item> item = std::move(it->second);
    done_.erase(it);
    return item;
  }
  // pending_ is seq-ordered; the head item is at the front iff no worker
  // has claimed it yet. An unevaluated item keeps no_fire == false and
  // gets the full run.
  if (!pending_.empty() && pending_.front()->seq == next_apply_) {
    std::unique_ptr<Item> item = std::move(pending_.front());
    pending_.pop_front();
    return item;
  }
  return nullptr;  // head is on a worker, mid-evaluation
}

void AsyncExecutor::QuiesceHoldingWriterMu() {
  for (;;) {
    std::unique_ptr<Item> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (OutstandingLocked() == 0) return;
      item = TakeNextLocked();
      if (item == nullptr) {
        // Head is mid-evaluation. The worker needs only mu_ to finish (it
        // only takes the writer interlock — which we hold — when it later
        // tries to *apply*, after publishing to done_), so this wait
        // cannot deadlock.
        cv_state_.wait(lock, [this] {
          return done_.count(next_apply_) != 0 || OutstandingLocked() == 0;
        });
        continue;
      }
    }
    ApplyOwned(item.get());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++next_apply_;
      if (OutstandingLocked() == 0) chain_applies_ = 0;
    }
    cv_state_.notify_all();
  }
}

void AsyncExecutor::StatementBoundary() {
  std::unique_lock<std::mutex> lock(mu_);
  // alive_workers_ == 0: every worker died to an injected fault; nothing
  // will drain pending_, so waiting would deadlock. Leftovers are applied
  // at the next quiesce point (DDL / checkpoint / shutdown).
  cv_state_.wait(lock, [this] {
    return stop_ || alive_workers_ <= 0 || OutstandingLocked() <= capacity_;
  });
}

bool AsyncExecutor::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_ == next_apply_;
}

AsyncPoolStats AsyncExecutor::Stats() const {
  AsyncPoolStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = next_seq_ - next_apply_;
    s.in_flight = evaluating_;
    s.workers = static_cast<int>(workers_.size());
  }
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.applied = applied_.load(std::memory_order_relaxed);
  s.prefiltered = prefiltered_.load(std::memory_order_relaxed);
  s.deferred = deferred_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.worker_deaths = worker_deaths_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace pgt
