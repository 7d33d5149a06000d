#include "src/cypher/scan_plan.h"

#include <algorithm>

#include "src/index/index_catalog.h"

namespace pgt::cypher {

void RangeBounds::Tighten(BinOp op, const Value& v) {
  const bool is_lo = op == BinOp::kGt || op == BinOp::kGe;
  const bool inclusive = op == BinOp::kGe || op == BinOp::kLe;
  std::optional<Value>& bound = is_lo ? lo : hi;
  bool& bound_incl = is_lo ? lo_inclusive : hi_inclusive;
  if (!bound.has_value()) {
    bound = v;
    bound_incl = inclusive;
    return;
  }
  if (index::CompareClassOf(*bound) != index::CompareClassOf(v)) return;
  const int c = v.TotalCompare(*bound);
  const bool tighter = is_lo ? c > 0 : c < 0;
  if (tighter) {
    bound = v;
    bound_incl = inclusive;
  } else if (c == 0 && !inclusive) {
    bound_incl = false;  // strict beats inclusive at the same endpoint
  }
}

const std::vector<NodeId>& ExecuteNodeScanInto(const NodeScanPlan& plan,
                                               EvalContext& ctx,
                                               NodeScanBuffers& bufs) {
  bufs.raw.clear();
  bufs.ids.clear();
  switch (plan.kind) {
    case NodeScanPlan::Kind::kFullScan:
      bufs.ids = ctx.store()->AllNodes();
      break;
    case NodeScanPlan::Kind::kLabelScan:
      bufs.ids = ctx.store()->NodesByLabel(plan.label);
      break;
    case NodeScanPlan::Kind::kIndexEquality: {
      plan.idx.Lookup(plan.eq_value, &bufs.raw);
      // Posting lists are id-sorted already.
      bufs.ids.reserve(bufs.raw.size());
      for (uint64_t v : bufs.raw) bufs.ids.push_back(NodeId{v});
      break;
    }
    case NodeScanPlan::Kind::kIndexRange: {
      plan.idx.Range(plan.lo, plan.lo_inclusive, plan.hi, plan.hi_inclusive,
                     &bufs.raw);
      // Range traversal is value-ordered; restore global id order so the
      // access path never changes result order.
      std::sort(bufs.raw.begin(), bufs.raw.end());
      bufs.ids.reserve(bufs.raw.size());
      for (uint64_t v : bufs.raw) bufs.ids.push_back(NodeId{v});
      break;
    }
  }
  return bufs.ids;
}

}  // namespace pgt::cypher
