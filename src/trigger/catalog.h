#ifndef PGTRIGGERS_TRIGGER_CATALOG_H_
#define PGTRIGGERS_TRIGGER_CATALOG_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/trigger/dispatch_index.h"
#include "src/trigger/options.h"
#include "src/trigger/trigger_def.h"

namespace pgt {

namespace ivm {
class IvmManager;
}

/// Per-trigger circuit-breaker state (docs/robustness.md). Deliberately
/// *not* transactional: a trigger that fails its host transaction still
/// has its failure recorded — that is the whole point of the breaker.
struct TriggerHealth {
  uint64_t consecutive_failures = 0;
  bool quarantined = false;
  std::string reason;                // error that tripped the breaker
  int64_t quarantined_at_micros = 0; // logical-clock stamp of the trip

  // DETACHED half-open retry state, measured in firing opportunities (not
  // wall time) so recovery is deterministic under test.
  uint64_t backoff = 0;           // opportunities to skip per window
  uint64_t skips_remaining = 0;   // left in the current window
  bool probe_inflight = false;    // one activation let through half-open

  // Lifetime counters (SHOW TRIGGER STATUS).
  uint64_t total_failures = 0;
  uint64_t probes = 0;
  uint64_t quarantines = 0;
  uint64_t skipped = 0;  ///< firing opportunities suppressed by quarantine
};

/// What the engine should do with a DETACHED firing opportunity.
enum class DetachedGate {
  kRun,    ///< not quarantined: run normally
  kProbe,  ///< half-open: run this one as the recovery probe
  kSkip,   ///< quarantined: suppress (counts down the backoff window)
};

/// The installed-trigger catalog: owns TriggerDefs (shared with queued
/// activations, so a DROP TRIGGER can never dangle an in-flight
/// activation), validates legality at install time, maintains the
/// event-dispatch index, and defines the per-action-time execution order
/// (Section 4.2 "Order of execution": creation-time total order, with the
/// PostgreSQL-style name order available for the ablation).
class TriggerCatalog {
 public:
  /// DETACHED half-open retry: a quarantined trigger skips
  /// kQuarantineBackoffBase firing opportunities, then lets exactly one
  /// activation through as a probe. Each failed probe doubles the window,
  /// up to kQuarantineBackoffCap. Counted in firing opportunities, not wall
  /// time, so recovery is deterministic and testable.
  static constexpr uint64_t kQuarantineBackoffBase = 4;
  static constexpr uint64_t kQuarantineBackoffCap = 256;

  explicit TriggerCatalog(const EngineOptions* options)
      : options_(options) {}

  /// Validates and installs a trigger. Enforced legality rules:
  ///  * unique name;
  ///  * property monitors (`ON L.p`) only with SET/REMOVE events;
  ///  * label events (SET/REMOVE without property) only on nodes
  ///    (relationships have exactly one immutable type);
  ///  * under kTargetSetChange semantics, a label-event trigger may not
  ///    monitor its own target label (strict Section 4.2 assumption);
  ///  * the statement must not SET/REMOVE the target label (Section 4.2;
  ///    checked statically here, guarded at runtime by the engine);
  ///  * BEFORE triggers may only SET properties (they "condition NEW
  ///    states", Section 4);
  ///  * WHEN pipelines must be read-only (MATCH/UNWIND/WITH);
  ///  * REFERENCING aliases must match the granularity and item kind.
  Status Install(TriggerDef def);

  Status Drop(const std::string& name);
  Status SetEnabled(const std::string& name, bool enabled);
  void DropAll();

  const TriggerDef* Find(const std::string& name) const;

  /// All triggers (enabled and disabled), in creation order.
  std::vector<const TriggerDef*> All() const;

  size_t size() const { return triggers_.size(); }

  /// The event-keyed dispatch index (maintained by Install / Drop /
  /// SetEnabled / DropAll; the engine resolves late-interned symbols
  /// through DispatchIndex::ResolvePending before probing).
  DispatchIndex& dispatch() { return dispatch_; }
  const DispatchIndex& dispatch() const { return dispatch_; }

  /// Monotone trigger-DDL version: bumped by Install / Drop / SetEnabled /
  /// DropAll. Folded into Database::PlanEpoch so trigger DDL invalidates
  /// cached query plans alongside index DDL.
  uint64_t ddl_epoch() const { return ddl_epoch_; }

  /// Number of enabled triggers with the given action time (O(1),
  /// maintained by Install / Drop / SetEnabled / DropAll). The engine's
  /// MatchAll early-outs on zero, skipping the delta walk entirely —
  /// statements in databases without, say, BEFORE triggers never pay a
  /// BEFORE matching pass.
  size_t EnabledCount(ActionTime time) const {
    return enabled_counts_[static_cast<size_t>(time)];
  }

  // --- Circuit breaker (docs/robustness.md) --------------------------------

  /// Records a successful firing: resets the consecutive-failure count and,
  /// when the firing was a half-open probe, lifts the quarantine.
  void NoteSuccess(const std::string& name);

  /// Records an action/WHEN failure at `now_micros`. When the consecutive
  /// count reaches `EngineOptions::quarantine_threshold` the trigger is
  /// quarantined: statement-time triggers are disabled (manual ALTER
  /// TRIGGER ... ENABLE required); DETACHED triggers stay installed and
  /// enter the exponential-backoff half-open cycle. A failed probe doubles
  /// the backoff (capped) and re-arms the quarantine. No-op when the
  /// breaker is off (threshold == 0).
  void NoteFailure(const std::string& name, const Status& error,
                   int64_t now_micros);

  /// Gates one DETACHED firing opportunity for `name`: kRun when healthy,
  /// kSkip while backing off, kProbe exactly once per window.
  DetachedGate GateDetached(const std::string& name);

  /// Breaker state for `name`, or nullptr when it never failed.
  const TriggerHealth* Health(const std::string& name) const;

  /// Names of currently quarantined triggers (SHOW HEALTH).
  std::vector<std::string> Quarantined() const;

  /// Wires the IVM manager so trigger lifecycle transitions tear down
  /// maintained match state: Drop / DropAll / disable / quarantine all
  /// unregister (a disabled or quarantined trigger must not pay — or
  /// trust — maintenance); re-enabling lets the state rebuild lazily at
  /// the next firing. Null detaches (the default).
  void SetIvmSink(ivm::IvmManager* ivm) { ivm_ = ivm; }

  /// The Section 4.2 execution-order comparator: the engine orders the
  /// triggers one statement activates by it (creation time, or name under
  /// TriggerOrdering::kName).
  static bool ExecutionOrderLess(TriggerOrdering ordering,
                                 const TriggerDef& a, const TriggerDef& b) {
    return ordering == TriggerOrdering::kName ? a.name < b.name
                                              : a.seq < b.seq;
  }

 private:
  Status Validate(const TriggerDef& def) const;
  void IvmUnregister(const std::string& name);
  void IvmUnregisterAll();

  void BumpCount(ActionTime time, int d) {
    enabled_counts_[static_cast<size_t>(time)] =
        static_cast<size_t>(static_cast<long long>(
            enabled_counts_[static_cast<size_t>(time)]) + d);
  }

  const EngineOptions* options_;
  ivm::IvmManager* ivm_ = nullptr;  // not owned; see SetIvmSink
  std::vector<std::shared_ptr<TriggerDef>> triggers_;  // creation order
  std::array<size_t, 4> enabled_counts_{};  // indexed by ActionTime
  DispatchIndex dispatch_;
  uint64_t next_seq_ = 1;
  uint64_t ddl_epoch_ = 0;
  // Breaker state, keyed by trigger name. Entries are created on first
  // failure, erased by Drop/DropAll and by a manual ENABLE (fresh start).
  std::map<std::string, TriggerHealth> health_;
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_CATALOG_H_
