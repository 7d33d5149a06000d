#ifndef PGTRIGGERS_COMMON_FAULT_H_
#define PGTRIGGERS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"

namespace pgt {

/// Unified fault-injection registry (docs/robustness.md).
///
/// Production code declares *fault points* — named sites on failure-prone
/// paths (WAL append/fsync, snapshot publication, async enqueue/worker/
/// apply, transaction commit) — by calling `Hit("wal.sync")` and
/// propagating a non-OK result exactly as it would a real IO error. Tests
/// arm points with `FaultSpec`s: fail the Nth hit, fail each hit with a
/// probability (seeded, deterministic), fail a scripted subset, or cap a
/// byte budget for short writes.
///
/// Cost when disarmed: one relaxed atomic load and a predicted-not-taken
/// branch — no lock, no map lookup, no string hashing. Arming anything
/// flips the `armed_points_` counter, and only then does `Hit` take the
/// slow path. This keeps the registry permanently compiled into release
/// builds (the chaos suite runs against the production binary, not a
/// special build) without taxing the hot paths it guards.
///
/// Thread contract: `Hit` is safe from any thread (the slow path locks);
/// Arm/Disarm/DisarmAll are safe from any thread but are intended for the
/// test driver between or around workload phases.
class FaultRegistry {
 public:
  /// How an armed point decides whether a given hit fails.
  struct FaultSpec {
    /// Status the failing hit returns. `message` defaults to
    /// "injected fault at <point>" when empty.
    StatusCode code = StatusCode::kIoError;
    std::string message;

    /// Nth-hit mode: skip the first `skip_first` hits, then fail the next
    /// `trigger_count` hits (0 = this mode disabled). Counted per point,
    /// reset by Arm.
    uint64_t skip_first = 0;
    uint64_t trigger_count = 0;

    /// Probabilistic mode: each hit fails with probability `probability`
    /// (0.0 = disabled). Deterministic per (seed, hit index) — replaying
    /// the same seed against the same workload fails the same hits.
    double probability = 0.0;
    uint64_t seed = 0;

    /// Unit-budget mode: hits carry a unit count (e.g. bytes for a WAL
    /// append); the point accepts units until the budget is exhausted,
    /// then fails. A hit that straddles the boundary reports the accepted
    /// prefix via Hit's `accepted_units` (short-write semantics).
    /// -1 = disabled.
    int64_t unit_budget = -1;

    /// Scripted mode: full control — called with the 0-based hit index,
    /// returns true to fail that hit. Checked after the other modes.
    std::function<bool(uint64_t hit_index)> script;
  };

  /// The process-wide registry used by engine fault points.
  static FaultRegistry& Global();

  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Production-side check. Returns OK (and counts the hit) unless `point`
  /// is armed and the spec elects this hit to fail. `units` feeds the
  /// unit-budget mode (default 1); when a budget boundary splits the hit,
  /// `accepted_units` (if non-null) receives how many units fit before
  /// the failure — callers implementing short writes persist that prefix.
  Status Hit(std::string_view point, uint64_t units = 1,
             uint64_t* accepted_units = nullptr) {
    if (armed_points_.load(std::memory_order_relaxed) == 0) {
      return Status::OK();  // disarmed fast path: one predicted branch
    }
    return HitSlow(point, units, accepted_units);
  }

  /// Arms `point` with `spec`, replacing any previous arming and resetting
  /// the point's hit/unit counters.
  void Arm(std::string_view point, FaultSpec spec);

  /// Convenience: fail the Nth future hit (1 = the next one) once.
  void ArmNthHit(std::string_view point, uint64_t nth,
                 StatusCode code = StatusCode::kIoError,
                 std::string message = "");

  /// Convenience: fail each future hit with probability `p` (seeded).
  void ArmProbabilistic(std::string_view point, double p, uint64_t seed,
                        StatusCode code = StatusCode::kIoError,
                        std::string message = "");

  void Disarm(std::string_view point);
  void DisarmAll();

  /// Total hits observed at `point` since it was first armed (armed
  /// points only — disarmed points are not counted, by design: counting
  /// would put a lock on the fast path).
  uint64_t HitCount(std::string_view point) const;
  /// Total injected failures at `point` since it was first armed.
  uint64_t FailureCount(std::string_view point) const;

  /// Names of currently armed points (diagnostics / SHOW HEALTH).
  std::vector<std::string> ArmedPoints() const;

 private:
  struct PointState {
    FaultSpec spec;
    bool armed = false;
    uint64_t hits = 0;      // hits observed while armed
    uint64_t failures = 0;  // injected failures
    int64_t units_seen = 0;
  };

  Status HitSlow(std::string_view point, uint64_t units,
                 uint64_t* accepted_units);

  std::atomic<uint64_t> armed_points_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
};

}  // namespace pgt

#endif  // PGTRIGGERS_COMMON_FAULT_H_
