#ifndef PGTRIGGERS_TRIGGER_ENGINE_H_
#define PGTRIGGERS_TRIGGER_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/cypher/eval.h"
#include "src/cypher/plan/program.h"
#include "src/trigger/catalog.h"
#include "src/trigger/options.h"
#include "src/trigger/trigger_def.h"
#include "src/tx/delta.h"
#include "src/tx/transaction.h"

namespace pgt {

class Database;
struct TriggerPlans;  // src/trigger/trigger_plan.h

namespace ivm {
class TriggerIvmState;  // src/ivm/ivm_manager.h
}

namespace cypher::plan {
class PlanExecutor;  // src/cypher/plan/plan_executor.h
}

/// Per-trigger runtime counters (benchmarks and tests read these).
struct TriggerStats {
  uint64_t considered = 0;  ///< activations whose condition was evaluated
  uint64_t fired = 0;       ///< activations whose action executed
  uint64_t action_rows = 0; ///< condition rows the action ran over
  uint64_t errors = 0;      ///< contained failures (DETACHED autonomous txs)
};

/// Engine-wide counters.
struct EngineStats {
  std::map<std::string, TriggerStats> per_trigger;
  uint64_t statements = 0;
  uint64_t cascade_depth_max = 0;
  uint64_t oncommit_rounds_max = 0;
  uint64_t detached_runs = 0;

  void Clear() { *this = EngineStats(); }
};

/// One activation of a trigger: the trigger plus the transition environment
/// derived from the matched events (Section 4.2 "Transition Variables").
///
/// The trigger definition is shared with the catalog, so an activation —
/// in particular one sitting in the DETACHED queue — stays valid even if
/// the trigger is dropped before it runs.
struct Activation {
  std::shared_ptr<const TriggerDef> trigger;
  cypher::TransitionEnv env;
};

/// Recycler for TransitionEnvs: the engine builds one env per activation;
/// instead of allocating its containers per firing, envs drained by a
/// statement / commit round come back here (cleared, capacities kept) and
/// the next round's activations reuse them (docs/values.md).
class TransitionEnvPool {
 public:
  cypher::TransitionEnv Acquire() {
    if (free_.empty()) return {};
    cypher::TransitionEnv env = std::move(free_.back());
    free_.pop_back();
    return env;
  }

  void Release(cypher::TransitionEnv&& env) {
    if (free_.size() >= kMaxFree) return;  // bound pool memory
    env.Clear();
    free_.push_back(std::move(env));
  }

 private:
  static constexpr size_t kMaxFree = 64;
  std::vector<cypher::TransitionEnv> free_;
};

/// Strategy interface between the Database and a trigger runtime.
///
/// The native PG-Trigger engine implements the paper's proposed semantics;
/// the APOC and Memgraph emulators (src/emul) implement the respective
/// systems' *actual* documented behaviors (Section 5), so the benches can
/// compare them executably.
class TriggerRuntime {
 public:
  virtual ~TriggerRuntime() = default;

  /// Called after every top-level statement, inside the open transaction,
  /// with that statement's delta.
  virtual Status OnStatement(Transaction& tx, const GraphDelta& delta) = 0;

  /// Called when the transaction reaches its commit point (still inside
  /// the transaction; failure rolls the whole transaction back).
  virtual Status OnCommitPoint(Transaction& tx) = 0;

  /// Called after a successful physical commit with the transaction's
  /// accumulated delta. Runs outside any transaction.
  virtual Status AfterCommit(const GraphDelta& tx_delta) = 0;

  virtual const char* name() const = 0;
};

/// The native PG-Trigger engine (the paper's Section 4 semantics):
///
///  * BEFORE — runs on the activating statement's delta before AFTER
///    processing; may only SET properties on NEW transition items; its
///    writes fold into the statement's delta without raising events (D1).
///  * AFTER — runs per statement; every action executes in its own delta
///    scope and its delta is recursively processed (SQL3-style cascaded
///    execution with an execution-context stack), bounded by
///    EngineOptions::max_cascade_depth.
///  * ONCOMMIT — at the commit point, iterated to fixpoint over the deltas
///    the ONCOMMIT actions produce (D4), still inside the transaction.
///  * DETACHED — after the physical commit, each activation runs in its own
///    autonomous transaction (full trigger processing applies to it too).
///
/// Ordering within an action time follows EngineOptions::trigger_ordering
/// (creation-time by default, per Section 4.2).
class PgTriggerEngine : public TriggerRuntime {
 public:
  /// ONCOMMIT fixpoint rounds (paper Section 4: ONCOMMIT actions run at
  /// the commit point on the accumulated delta) before the commit aborts
  /// with CascadeLimitExceeded.
  static constexpr int kMaxOnCommitRounds = 32;
  /// DETACHED activations processed in one post-commit chain: the serial
  /// drain aborts past it, the async pool's chain valve drops past it.
  static constexpr int kMaxDetachedQueue = 1024;

  explicit PgTriggerEngine(Database* db);
  ~PgTriggerEngine() override;  // MatchScratch is engine.cc-private

  Status OnStatement(Transaction& tx, const GraphDelta& delta) override;
  Status OnCommitPoint(Transaction& tx) override;
  Status AfterCommit(const GraphDelta& tx_delta) override;
  const char* name() const override { return "pg-triggers"; }

  EngineStats& stats() { return stats_; }

  /// Derives the activations of `def` raised by `delta`, whether or not
  /// `def` is installed or enabled (tests and the Table 3 bench use it).
  /// Runs the same walk as MatchAll over a one-trigger DispatchIndex, so
  /// event matching (Section 4.2 and Table 3) and label-event semantics
  /// (EngineOptions::label_event_semantics) are MatchAll's exactly. The
  /// returned activations alias `def` without owning it; they must not
  /// outlive it.
  std::vector<Activation> MatchActivations(const TriggerDef& def,
                                           const GraphDelta& delta);

  /// All activations of enabled `time` triggers raised by `delta`, in
  /// execution order (EngineOptions::trigger_ordering across triggers,
  /// delta order within one trigger). Walks the delta once and probes the
  /// catalog's DispatchIndex per event, so the cost is O(|delta| +
  /// matches) however many triggers are installed.
  std::vector<Activation> MatchAll(ActionTime time, const GraphDelta& delta);

  /// Evaluates condition and (if it holds) executes the action of one
  /// activation inside `tx`, running the trigger's cached WHEN/action plans
  /// (compiled on first activation, recompiled after DDL epoch bumps). Does
  /// not open a delta scope; callers manage scoping/cascading.
  Status RunActivation(Transaction& tx, const Activation& act);

  /// Seed frame for one activation of `prog`: the single transition
  /// variables, plus (FOR ALL) the set variables as lists. Shared by
  /// RunActivation and the async pool's snapshot pre-evaluation
  /// (src/trigger/async_executor.cc). Pure: reads only the activation.
  static cypher::plan::Frame SeedFrame(const cypher::plan::TriggerProgram& prog,
                                       const Activation& act,
                                       cypher::plan::PlanExecutor& exec);

  // --- Async pool apply hooks (docs/async.md) -----------------------------
  // Both run on a pool thread that holds the Database's writer interlock,
  // so they may touch engine state exactly like the on-writer paths.

  /// Retires an activation whose WHEN pre-evaluated false at a
  /// still-current epoch: ticks the counters the serial no-fire run would
  /// have ticked (detached_runs, per-trigger considered) and recycles the
  /// env. Unlike the serial path it commits no empty autonomous
  /// transaction — see docs/async.md for the documented divergence.
  void ApplyPoolSkip(Activation& act);

  /// Full on-writer run of a pool item: the unchanged legacy detached path
  /// (autonomous transaction, ghost re-injection, contained failures).
  Status ApplyPoolDeferred(Activation& act, const GraphDelta& source_delta);

  /// Observation hook for every runtime cascade edge writer -> woken
  /// (used by tests/test_analysis_soundness.cc to check the static
  /// triggering graph covers actual cascades). `writer` is the trigger
  /// whose action produced the activating delta (empty for user
  /// statements). `fired` is true when the woken trigger's WHEN held and
  /// its action ran; false for derivation-only observations (the
  /// activation was considered, or a commit-time/detached activation was
  /// derived from the writer's delta without running here). Pass nullptr
  /// to disarm. Probe-armed runs derive extra ONCOMMIT/DETACHED matches
  /// per statement for attribution — test-only overhead.
  using CascadeProbe =
      std::function<void(const std::string& writer, const std::string& woken,
                         ActionTime woken_time, bool fired)>;
  void SetCascadeProbe(CascadeProbe probe) {
    cascade_probe_ = std::move(probe);
  }

 private:
  /// `ivm_state` (nullable) is the trigger's maintained WHEN match state:
  /// when present, the condition pipeline is served as a state lookup and
  /// the full re-match runs only as a per-firing defensive fallback.
  Status RunPlans(cypher::EvalContext& ctx, const Activation& act,
                  const TriggerPlans& plans, TriggerStats& ts,
                  ivm::TriggerIvmState* ivm_state);
  /// The one Section 4.2 event-matching routine behind MatchAll and
  /// MatchActivations: resolves `index`'s pending triggers, walks `delta`
  /// once probing `index` for `time` events, and builds the activations in
  /// execution order. Envs come from `pool` when non-null.
  std::vector<Activation> Derive(DispatchIndex& index, ActionTime time,
                                 const GraphDelta& delta,
                                 TransitionEnvPool* pool);
  /// `writer` is the trigger whose action produced `delta` (nullptr for a
  /// user statement): it attributes cascade-probe edges and lets the
  /// max_cascade_depth abort cite the statically-found cycle through the
  /// looping trigger (docs/analysis.md).
  Status ProcessStatementLevel(Transaction& tx, const GraphDelta& delta,
                               int depth, const TriggerDef* writer);
  Status ValidateBeforeDelta(const TriggerDef& def, const Activation& act,
                             const GraphDelta& delta) const;
  Status RunDetachedActivation(const Activation& act,
                               const GraphDelta& source_delta);

  /// Feeds one activation outcome to the catalog's circuit breaker
  /// (docs/robustness.md): success resets the consecutive-failure count,
  /// failure advances it toward quarantine.
  void NoteOutcome(const std::string& trigger, const Status& st);

  /// Recyclers for the per-round activation vectors (LIFO: cascaded
  /// rounds nest, each level owns its own buffer).
  std::vector<Activation> AcquireActs() {
    if (acts_pool_.empty()) return {};
    std::vector<Activation> v = std::move(acts_pool_.back());
    acts_pool_.pop_back();
    return v;
  }
  void ReleaseActs(std::vector<Activation>&& v) {
    v.clear();
    if (v.capacity() != 0 && acts_pool_.size() < 16) {
      acts_pool_.push_back(std::move(v));
    }
  }

  Database* db_;
  EngineStats stats_;
  TransitionEnvPool env_pool_;
  std::vector<std::vector<Activation>> acts_pool_;
  /// Scratch buffers for Derive (per-trigger entry buckets), reused
  /// across statements so the dispatch walk allocates nothing once warm.
  /// Only live within one Derive call.
  struct MatchScratch;
  std::unique_ptr<MatchScratch> scratch_;
  CascadeProbe cascade_probe_;  // null when disarmed (the common case)
  bool draining_detached_ = false;
  // One shared transaction delta per activating commit (not one copy per
  // queued activation).
  std::deque<std::pair<Activation, std::shared_ptr<const GraphDelta>>>
      detached_queue_;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_ENGINE_H_
