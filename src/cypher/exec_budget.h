#ifndef PGTRIGGERS_CYPHER_EXEC_BUDGET_H_
#define PGTRIGGERS_CYPHER_EXEC_BUDGET_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace pgt::cypher {

/// Cooperative execution budget for one top-level statement
/// (docs/robustness.md). Armed by the Database from
/// `EngineOptions::statement_timeout_ms` / `max_plan_steps`; ticked from
/// the plan executor's matcher candidate loops and step loop.
/// Triggers cascading inside the statement inherit the statement's budget;
/// each DETACHED activation is armed afresh.
///
/// Cost model: when neither budget is set the Database leaves
/// `EvalContext::budget == nullptr`, so the hot paths pay exactly one
/// predicted-not-taken branch. When armed, a tick is a decrement plus a
/// compare; the wall clock is consulted only every `kTimeCheckStride`
/// ticks (steady_clock reads are ~20ns — amortized to noise).
struct ExecBudget {
  static constexpr uint32_t kTimeCheckStride = 256;

  int64_t steps_left = 0;
  bool steps_armed = false;
  std::chrono::steady_clock::time_point deadline{};
  bool deadline_armed = false;
  uint32_t ticks_until_time_check = kTimeCheckStride;
  /// Sticky: once blown, every later tick fails too, so deeply nested
  /// loops unwind promptly no matter which frame ticks next.
  bool exhausted = false;

  int64_t step_limit = 0;   // for the error message
  int64_t timeout_ms = 0;   // for the error message
  /// Name of the trigger currently executing (set/restored by the engine
  /// around each activation) so the abort names the culprit.
  const std::string* current_trigger = nullptr;

  void Arm(int64_t max_steps, int64_t statement_timeout_ms) {
    step_limit = max_steps;
    timeout_ms = statement_timeout_ms;
    steps_armed = max_steps > 0;
    steps_left = max_steps;
    deadline_armed = statement_timeout_ms > 0;
    if (deadline_armed) {
      deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(statement_timeout_ms);
    }
    ticks_until_time_check = kTimeCheckStride;
    exhausted = false;
    current_trigger = nullptr;
  }

  Status Tick() {
    if (exhausted) return Exceeded();
    if (steps_armed && --steps_left < 0) {
      exhausted = true;
      return Exceeded();
    }
    if (deadline_armed && --ticks_until_time_check == 0) {
      ticks_until_time_check = kTimeCheckStride;
      if (std::chrono::steady_clock::now() >= deadline) {
        exhausted = true;
        return Exceeded();
      }
    }
    return Status::OK();
  }

  Status Exceeded() const {
    std::string what;
    if (steps_armed && steps_left < 0) {
      what = "statement exceeded max_plan_steps (" +
             std::to_string(step_limit) + ")";
    } else {
      what = "statement exceeded statement_timeout_ms (" +
             std::to_string(timeout_ms) + "ms)";
    }
    if (current_trigger != nullptr) {
      what += " while executing trigger '" + *current_trigger + "'";
    }
    return Status::BudgetExceeded(std::move(what));
  }
};

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_EXEC_BUDGET_H_
