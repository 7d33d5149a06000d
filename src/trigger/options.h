#ifndef PGTRIGGERS_TRIGGER_OPTIONS_H_
#define PGTRIGGERS_TRIGGER_OPTIONS_H_

#include <cstddef>
#include <cstdint>

namespace pgt {

/// Semantics of label SET/REMOVE events (`AFTER SET ON 'L' FOR ... NODE`
/// with no property). The paper's Section 4.2 assumption — "no trigger can
/// monitor the setting or removal of its target label" — admits two
/// readings; both are implemented and compared in the ablation bench
/// (paper Section 4.2):
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
/// set cannot be proven terminating). Under either policy the triggering
/// graph is maintained incrementally on every trigger DDL.
enum class TerminationPolicy {
  /// Unguarded cycles are surfaced via SHOW TRIGGER ANALYSIS / CALL
  /// pgt.analyzeTriggers() and cited by cascade aborts, but the CREATE
  /// succeeds. Default.
  kWarn,
  /// Refuse a CREATE TRIGGER that introduces an unguarded cycle, naming
  /// the cycle in the error.
  kReject,
};

/// Tunables of the reactive engine (RocksDB-style options struct).
struct EngineOptions {
  /// Maximum depth of cascaded trigger activations before the transaction
  /// aborts with CascadeLimitExceeded (runaway-rule backstop; Section 6.2.3
  /// discusses non-terminating relocation cascades). The abort message
  /// also cites the statically-found cycle through the looping trigger —
  /// see docs/analysis.md.
  int max_cascade_depth = 32;

  LabelEventSemantics label_event_semantics =
      LabelEventSemantics::kMonitoredLabel;

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

  /// Registration-time termination analysis (docs/analysis.md).
  TerminationPolicy termination_policy = TerminationPolicy::kWarn;

  // --- Off-writer ASYNC (DETACHED) execution (docs/async.md) ----------------

  /// Worker threads for DETACHED trigger execution. 0 (default) keeps the
  /// legacy on-writer drain: every DETACHED activation runs inline inside
  /// AfterCommit, bit-for-bit as before. > 0 hands activations to an
  /// AsyncExecutor pool: workers pre-evaluate WHEN against a snapshot
  /// pinned at the activating commit's epoch, and activations are applied
  /// in strict global FIFO order through the single-writer commit pipeline.
  int async_pool_size = 0;

  /// Queue depth (outstanding activations) above which the writer blocks
  /// at the next statement boundary until the workers drain below it.
  size_t async_queue_capacity = 1024;

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
  /// triggers retry via exponential-backoff half-open probes
  /// (TriggerCatalog::kQuarantineBackoffBase / kQuarantineBackoffCap).
  /// 0 (default) disables the breaker.
  int quarantine_threshold = 0;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_OPTIONS_H_
