#ifndef PGTRIGGERS_CYPHER_SCAN_PLAN_H_
#define PGTRIGGERS_CYPHER_SCAN_PLAN_H_

#include <optional>
#include <vector>

#include "src/cypher/ast.h"
#include "src/cypher/eval.h"
#include "src/cypher/scan_buffers.h"
#include "src/index/property_index.h"
#include "src/storage/store_view.h"

namespace pgt::cypher {

/// The access path chosen for enumerating candidates of the first node of a
/// pattern part (PlanExecutor::SelectScan). Whatever the path,
/// ExecuteNodeScanInto returns candidates in ascending id order, so match
/// results are byte-identical across plans — an index only prunes
/// candidates the pattern's constraints or WHERE would reject anyway.
struct NodeScanPlan {
  enum class Kind { kFullScan, kLabelScan, kIndexEquality, kIndexRange };

  Kind kind = Kind::kFullScan;
  LabelId label = 0;   // kLabelScan
  IndexRef idx;        // kIndexEquality/kIndexRange; view-polymorphic
  Value eq_value;      // kIndexEquality
  std::optional<Value> lo, hi;                  // kIndexRange
  bool lo_inclusive = false, hi_inclusive = false;
};

/// Range bounds accumulated for one property key while intersecting
/// sargable </ />= / < / <= conjuncts (the plan executor's scan templates
/// and the analyzer's WHEN-guard refutation share it).
struct RangeBounds {
  std::optional<Value> lo, hi;
  bool lo_inclusive = false, hi_inclusive = false;

  /// Narrows the bound named by `op` (kGt/kGe -> lo, kLt/kLe -> hi) to `v`
  /// when `v` is tighter; mixed comparison classes are ignored.
  void Tighten(BinOp op, const Value& v);
};

/// Materializes the plan's candidate nodes in ascending id order into
/// caller-owned buffers; returns bufs.ids (cleared first).
const std::vector<NodeId>& ExecuteNodeScanInto(const NodeScanPlan& plan,
                                               EvalContext& ctx,
                                               NodeScanBuffers& bufs);

}  // namespace pgt::cypher

#endif  // PGTRIGGERS_CYPHER_SCAN_PLAN_H_
