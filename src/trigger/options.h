#ifndef PGTRIGGERS_TRIGGER_OPTIONS_H_
#define PGTRIGGERS_TRIGGER_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace pgt {

/// Semantics of label SET/REMOVE events (`AFTER SET ON 'L' FOR ... NODE`
/// with no property). The paper's Section 4.2 assumption — "no trigger can
/// monitor the setting or removal of its target label" — admits two
/// readings; both are implemented and compared in the ablation bench
/// (DESIGN.md D3):
enum class LabelEventSemantics {
  /// The ON label *is* the monitored label: the trigger fires when label L
  /// itself is set on / removed from a node. This matches the paper's
  /// translation schemes (Table 3 builds NEW from $assignedLabels) and is
  /// the default.
  kMonitoredLabel,
  /// Strict Section 4.2 reading: the ON label only defines the target set;
  /// the trigger fires when *some other* label is set on / removed from a
  /// node carrying L, and monitoring L itself is rejected at install time.
  kTargetSetChange,
};

/// Trigger ordering among same-action-time triggers (Section 4.2
/// "the most sensible option ... is to resort to the trigger creation
/// time"; footnote 3 notes PostgreSQL's name-based alternative).
enum class TriggerOrdering {
  kCreationTime,  ///< paper default: total order by installation sequence
  kName,          ///< PostgreSQL-style alphabetical order (ablation)
};

/// What the static termination analysis (src/analysis/, docs/analysis.md)
/// does when CREATE TRIGGER would close a cycle in the triggering graph
/// with no WHEN guard on any cycle member (Baralis/Ceri/Widom: such a rule
/// set cannot be proven terminating).
enum class TerminationPolicy {
  /// No registration-time analysis; max_cascade_depth remains the only
  /// backstop. Default — preserves pre-analysis behavior byte-for-byte.
  kOff,
  /// Maintain the triggering graph incrementally; unguarded cycles are
  /// surfaced via SHOW TRIGGER ANALYSIS / CALL pgt.analyzeTriggers() but
  /// the CREATE succeeds.
  kWarn,
  /// Refuse a CREATE TRIGGER that introduces an unguarded cycle, naming
  /// the cycle in the error.
  kReject,
};

/// What the writer does at a statement boundary when the ASYNC pool's
/// queue exceeds async_queue_capacity (docs/async.md). Applied only when
/// async_pool_size > 0.
enum class AsyncBackpressure {
  /// Wait until the workers drain the queue below capacity. Lossless;
  /// bounds memory at the cost of writer latency spikes.
  kBlock,
  /// The writer takes over the oldest queued item (always the next one in
  /// the global apply order) and executes it inline until the queue is
  /// below capacity again. Lossless and FIFO-preserving; degrades toward
  /// on-writer execution under sustained overload.
  kSpill,
  /// New activations are dropped at enqueue time while the queue is at
  /// capacity (counted in pgt.asyncStats() as `rejected`). Lossy: final
  /// state may miss detached effects — explicit opt-in for fire-and-forget
  /// workloads only.
  kReject,
};

/// Tunables of the reactive engine (RocksDB-style options struct).
struct EngineOptions {
  /// Maximum depth of cascaded trigger activations before the transaction
  /// aborts with CascadeLimitExceeded (runaway-rule backstop; Section 6.2.3
  /// discusses non-terminating relocation cascades). When the static
  /// analysis is active (termination_policy != kOff), the abort message
  /// also cites the statically-found cycle through the looping trigger —
  /// see docs/analysis.md.
  int max_cascade_depth = 32;

  /// Maximum ONCOMMIT fixpoint rounds (DESIGN.md D4) before aborting.
  int max_oncommit_rounds = 32;

  /// Maximum queued DETACHED activations processed after one commit chain.
  int max_detached_queue = 1024;

  LabelEventSemantics label_event_semantics =
      LabelEventSemantics::kMonitoredLabel;

  /// Capacity of the Database's prepared-plan LRU for ad-hoc statement
  /// text. Every statement executes as a compiled plan (src/cypher/plan,
  /// docs/plan.md); the LRU keeps them across calls, and any index/trigger
  /// DDL bumps the plan epoch and invalidates them. 0 disables ad-hoc
  /// caching (each statement is parsed and compiled per call); trigger
  /// plans, cached on their TriggerDef, are unaffected.
  size_t plan_cache_capacity = 128;

  /// Incremental WHEN evaluation (src/ivm, docs/ivm.md). True (default):
  /// triggers whose WHEN lowers to the supported single-MATCH +
  /// sargable-WHERE shape keep a materialized match set, maintained from
  /// the same per-mutation hook sites as the property indexes, so a
  /// firing's condition check is a state lookup (O(delta)) instead of a
  /// re-match (O(graph)). Unsupported shapes, pending symbols, and
  /// degraded states transparently use the full re-match path of the
  /// compiled WHEN pipeline (IVM lowers from the compiled TriggerProgram).
  /// False: every firing re-matches; kept as the differential oracle
  /// (tests/test_ivm_differential.cc). Both settings produce
  /// byte-identical firing order, results, and stats.
  bool use_ivm = true;

  /// Per-trigger cap on maintained IVM state (approximate resident bytes).
  /// A trigger whose state outgrows the cap degrades to the re-match path
  /// instead of OOMing — semantics are unchanged, only the firing cost.
  /// 0 = unlimited.
  int64_t max_ivm_state_bytes = 64 << 20;

  TriggerOrdering trigger_ordering = TriggerOrdering::kCreationTime;

  /// Registration-time termination analysis (docs/analysis.md). kOff skips
  /// all analyzer maintenance on trigger DDL (SHOW TRIGGER ANALYSIS still
  /// builds a report on demand); kWarn/kReject keep the triggering graph
  /// incrementally up to date on every CREATE/DROP TRIGGER.
  TerminationPolicy termination_policy = TerminationPolicy::kOff;

  // --- Off-writer ASYNC (DETACHED) execution (docs/async.md) ----------------

  /// Worker threads for DETACHED trigger execution. 0 (default) keeps the
  /// legacy on-writer drain: every DETACHED activation runs inline inside
  /// AfterCommit, bit-for-bit as before. > 0 hands activations to an
  /// AsyncExecutor pool: workers pre-evaluate WHEN against a snapshot
  /// pinned at the activating commit's epoch, and activations are applied
  /// in strict global FIFO order through the single-writer commit pipeline.
  int async_pool_size = 0;

  /// Queue depth (outstanding activations) above which the backpressure
  /// policy engages at the next statement boundary.
  size_t async_queue_capacity = 1024;

  AsyncBackpressure async_backpressure = AsyncBackpressure::kBlock;

  // --- Execution budgets & fault containment (docs/robustness.md) -----------

  /// Wall-clock budget per top-level statement, including every trigger it
  /// cascades into (BEFORE/AFTER/ONCOMMIT run inside the statement's
  /// budget; each DETACHED activation gets its own fresh budget). 0
  /// (default) disables the check entirely — the matcher/executor tick is
  /// one predicted-not-taken branch. When exceeded the statement aborts
  /// with BudgetExceeded, the transaction rolls back cleanly, and the
  /// error names the trigger (if any) that was executing.
  int64_t statement_timeout_ms = 0;

  /// Logical step budget per top-level statement: every matcher candidate,
  /// expansion edge, var-length DFS node, and executed plan step counts as
  /// one step. Deterministic companion to statement_timeout_ms (same
  /// enforcement sites, same abort semantics). 0 (default) disables.
  int64_t max_plan_steps = 0;

  /// Trigger circuit breaker: after this many *consecutive* action/WHEN
  /// errors a trigger is auto-quarantined — disabled with a recorded
  /// reason + timestamp, visible in SHOW TRIGGER STATUS / CALL
  /// pgt.health(). Statement-time triggers (BEFORE/AFTER/ONCOMMIT) stay
  /// quarantined until a manual ALTER TRIGGER ... ENABLE; DETACHED
  /// triggers retry via exponential-backoff half-open probes (below).
  /// 0 (default) disables the breaker.
  int quarantine_threshold = 0;

  /// DETACHED half-open retry: after quarantine, the trigger skips
  /// quarantine_backoff_base firing opportunities, then lets exactly one
  /// activation through as a probe. Success re-enables the trigger and
  /// resets its failure count; failure doubles the backoff (capped at
  /// quarantine_backoff_cap) and re-quarantines. Measured in firing
  /// opportunities, not wall time, so recovery is deterministic and
  /// testable.
  int quarantine_backoff_base = 4;
  int quarantine_backoff_cap = 256;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_OPTIONS_H_
