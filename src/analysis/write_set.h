#ifndef PGTRIGGERS_ANALYSIS_WRITE_SET_H_
#define PGTRIGGERS_ANALYSIS_WRITE_SET_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/storage/graph_store.h"
#include "src/trigger/trigger_def.h"

namespace pgt::analysis {

/// One abstract write a trigger action may perform, expressed as the event
/// keys it can raise. The unit the triggering-graph analyzer matches
/// against monitor keys (docs/analysis.md).
///
/// Soundness contract: for every concrete event the action can raise at
/// runtime, some WriteEvent of the inferred set matches it. The engine
/// emits event keys for *every* label the affected node carries at match
/// time, so label knowledge is tracked with an exactness bit: when
/// `label_wildcard` is set the item may carry labels beyond `labels` (the
/// set is then a lower bound, used for PG-Schema narrowing); when clear,
/// `labels` is the complete possible label/type set.
struct WriteEvent {
  ItemKind item = ItemKind::kNode;
  TriggerEvent event = TriggerEvent::kCreate;

  /// Possible labels (node events) / relationship types (rel events).
  std::set<std::string> labels;
  bool label_wildcard = false;

  /// Property key for kSet/kRemove property events; empty = structural or
  /// label event. prop_wildcard: statically unknown key (`SET n += map`).
  std::string prop;
  bool prop_wildcard = false;

  /// Written value when the SET right-hand side is a literal (never null:
  /// `SET p = null` acts as a removal and is recorded as kRemove).
  std::optional<Value> const_value;

  /// Label SET/REMOVE write (`SET n:L` / `REMOVE n:L`): `labels` holds the
  /// written label names exactly; carrier_* describe the node they land on
  /// (the kTargetSetChange event keys — see options.h LabelEventSemantics).
  bool is_label_write = false;
  std::set<std::string> carrier_labels;
  bool carrier_wildcard = false;

  std::string ToString() const;
};

struct WriteSet {
  std::vector<WriteEvent> events;

  std::string ToString() const;
};

/// Infers the write set of `def`'s action over its compiled TriggerProgram
/// (slot universe + SymbolRefs — MERGE/FOREACH/DETACH DELETE and
/// late-interned symbols are handled once, in one place). Procedures a
/// CALL invokes are opaque to the analysis; only the variables they yield
/// are modeled (as unknown items). `plan_epoch` is the caller's plan epoch
/// (Database::PlanEpoch()); passing the engine's value shares the cached
/// per-trigger plan.
WriteSet InferWriteSet(const TriggerDef& def, const GraphStore& store,
                       uint64_t plan_epoch);

}  // namespace pgt::analysis

#endif  // PGTRIGGERS_ANALYSIS_WRITE_SET_H_
