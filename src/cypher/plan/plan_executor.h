#ifndef PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_
#define PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/cypher/eval.h"
#include "src/cypher/scan_plan.h"
#include "src/cypher/plan/program.h"

namespace pgt::cypher {

/// Tabular result of a query (populated by a trailing RETURN; queries
/// without RETURN produce an empty table but still report row counts).
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;

  /// Convenience for tests: single-cell access.
  const Value& at(size_t r, size_t c) const { return rows[r][c]; }

  /// Renders an aligned ASCII table (examples/bench output).
  std::string ToTable() const;
};

}  // namespace pgt::cypher

namespace pgt::cypher::plan {

/// Executes compiled programs over slot-addressed frames — the one query
/// executor: ad-hoc statements, snapshot reads, trigger WHEN/action
/// bodies, and the emulators' trigger statements all run here.
///
/// Clauses execute strictly left to right over materialized frames; writes
/// apply immediately through the change-tracking Transaction, so later
/// clauses observe earlier writes — the "interleaving of MATCH clauses
/// with ... creations, updates and deletions" of the paper's Section 4.2.
/// Variables are slot reads, label/type/property names hit per-plan symbol
/// caches, and scan planning instantiates a compile-time template.
/// tests/test_plan_differential.cc pins the results against a recorded
/// transcript.
///
/// Callers must validate plan affinity (PlanProgram::store / epoch) before
/// executing; a stale plan may hold dangling index pointers.
class PlanExecutor {
 public:
  /// `pool` (optional) recycles frame slot buffers across frames and across
  /// executions — the Database / engine pass their long-lived pool so
  /// steady-state firings run without frame allocations.
  PlanExecutor(EvalContext ctx, const std::vector<std::string>& slot_names,
               FramePool* pool = nullptr)
      : ctx_(ctx), slot_names_(slot_names), pool_(pool) {}

  /// A fresh frame of slot_count() slots (pooled when a pool is wired).
  Frame NewFrame() {
    return pool_ != nullptr ? pool_->Acquire(slot_count())
                            : Frame(slot_count());
  }
  /// A copy of `src` into a pooled buffer.
  Frame CopyFrame(const Frame& src) {
    return pool_ != nullptr ? pool_->AcquireCopy(src) : src;
  }
  void Recycle(Frame&& f) {
    if (pool_ != nullptr) pool_->Recycle(std::move(f));
  }
  void RecycleAll(std::vector<Frame>&& frames) {
    if (pool_ != nullptr) pool_->RecycleAll(std::move(frames));
  }
  /// An empty frames vector with banked capacity when pooled.
  std::vector<Frame> NewFrameVec() {
    return pool_ != nullptr ? pool_->AcquireVec() : std::vector<Frame>{};
  }

  /// Node-scan buffers, recycled via the shared FramePool so they stay
  /// warm across executor instances (one executor is built per statement /
  /// activation).
  NodeScanBuffers AcquireScanBufs() {
    return pool_ != nullptr ? pool_->AcquireScanBufs() : NodeScanBuffers{};
  }
  void ReleaseScanBufs(NodeScanBuffers&& b) {
    if (pool_ != nullptr) pool_->ReleaseScanBufs(std::move(b));
  }

  /// Executes a full statement, shaping the result table from the final
  /// RETURN step. `seed` provides the initial bindings.
  Result<QueryResult> Run(const std::vector<PStep>& steps, Frame seed);

  /// Applies steps to explicit frames and returns the resulting frames
  /// (trigger WHEN pipelines, emulator statements; a RETURN projects).
  Result<std::vector<Frame>> RunClauses(const std::vector<PStep>& steps,
                                        std::vector<Frame> frames);

  /// Runs update steps over explicit frames (trigger actions, FOREACH
  /// bodies).
  Status RunUpdates(const std::vector<PStep>& steps,
                    std::vector<Frame> frames);

  /// Expression evaluation. Takes a mutable frame so list comprehensions
  /// can bind their iteration slot in place (saved/restored around the
  /// loop); every other path leaves the frame untouched. Aggregate calls
  /// are rejected outside WITH/RETURN projections.
  Result<Value> Eval(const PExpr& e, Frame& f);
  /// True iff `e` evaluates to boolean true (NULL and false both fail, per
  /// Cypher WHERE); a non-boolean value is a type error.
  Result<bool> EvalPredicate(const PExpr& e, Frame& f);

  EvalContext& ctx() { return ctx_; }
  size_t slot_count() const { return slot_names_.size(); }

  /// Enumerates the matches of `pattern` extending `row` (MATCH/MERGE steps
  /// and EXISTS subqueries); `emit` may return non-OK to stop.
  Status MatchPattern(const PPattern& pattern, const Frame& row,
                      const std::function<Status(Frame&)>& emit);

  /// Instantiates a pattern part's compile-time scan template against the
  /// bindings in `row`: evaluates probe comparands and picks, in order, an
  /// equality probe on a unique index, on any index, a range scan on an
  /// ordered index, a scan of the least-populated label, or a full scan.
  /// Whatever is picked, candidates enumerate in ascending id order, so
  /// results are identical across access paths. `satisfied_prop_idx`
  /// (out): the inline-prop index the chosen equality probe proves for
  /// every candidate, or -1.
  NodeScanPlan SelectScan(const PScanTemplate& t,
                          const std::vector<LabelId>& real_labels, Frame& row,
                          int* satisfied_prop_idx);

 private:
  Result<std::vector<Frame>> ApplyStep(const PStep& s,
                                       std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyMatch(const PStep& s,
                                        std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyUnwind(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyProjection(const PStep& s,
                                             std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyCreate(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyMerge(const PStep& s,
                                        std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyDelete(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplySet(const PStep& s,
                                      std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyRemove(const PStep& s,
                                         std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyForeach(const PStep& s,
                                          std::vector<Frame> frames);
  Result<std::vector<Frame>> ApplyCall(const PStep& s,
                                       std::vector<Frame> frames);

  /// `row` is mutable scratch: Eval binds list-comprehension slots in
  /// place (restored by SlotSaver).
  Status ApplySetItems(const std::vector<PSetItem>& items, Frame& row);
  Result<Frame> CreatePatternPart(const PPatternPart& part, Frame row);

  Result<bool> PatternExists(const PPattern& pattern, const PExpr* where,
                             const Frame& row);

  /// Computes the aggregate calls of one projection item over a group, in
  /// substitution pre-order, into `results` (indexed by PExpr::agg_index).
  Status ComputeAggregates(const PExpr& e, std::vector<Frame>& group,
                           std::vector<Value>* results);

  EvalContext ctx_;
  const std::vector<std::string>& slot_names_;
  FramePool* pool_ = nullptr;
  /// Non-null only while evaluating a projection item whose aggregates were
  /// precomputed; aggregate nodes then read their substituted value.
  const std::vector<Value>* agg_results_ = nullptr;
};

/// Compiles `q` against the context's view with `seed`'s names as seed
/// variables, then runs it as a clause pipeline over the one seed row (a
/// RETURN projects; the resulting rows are discarded). For callers holding
/// a parsed statement and named bindings instead of a cached plan: the
/// emulators' trigger statements and apoc.do.when.
Status RunSeeded(EvalContext ctx, const Query& q, const Row& seed,
                 FramePool* pool = nullptr);

}  // namespace pgt::cypher::plan

#endif  // PGTRIGGERS_CYPHER_PLAN_PLAN_EXECUTOR_H_
