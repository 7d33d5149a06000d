#ifndef PGTRIGGERS_INDEX_INDEX_CATALOG_H_
#define PGTRIGGERS_INDEX_INDEX_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/common/prop_map.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/index/index_def.h"
#include "src/index/property_index.h"

namespace pgt::index {

/// The set of property indexes over one GraphStore, plus the maintenance
/// hooks the store invokes on every node mutation.
///
/// Transactional consistency comes for free from the tx layer's design:
/// Transaction applies mutations eagerly through the store and keeps an
/// undo log of *inverse store mutations*; each hook site therefore fires
/// symmetrically on do and undo. A rolled-back CREATE removes its entries
/// via the store's DeleteNode, a rolled-back DELETE re-inserts them via
/// ReviveNode, a rolled-back SET restores the old value's entry — so
/// aborted transactions and tombstoned nodes never leave stale postings.
///
/// At most one index exists per (label, property) pair. The catalog indexes
/// nodes only (relationship property indexes are a future direction; the
/// trigger hot path — condition matching — is node-predicate dominated).
class IndexCatalog {
 public:
  IndexCatalog() = default;
  IndexCatalog(const IndexCatalog&) = delete;
  IndexCatalog& operator=(const IndexCatalog&) = delete;

  /// Registers an (empty) index. Fails with AlreadyExists if one covers
  /// (spec.label, spec.prop). The caller (GraphStore::CreateIndex) backfills.
  Result<PropertyIndex*> Register(IndexSpec spec);

  /// Drops the index on (label, prop); NotFound if none exists.
  Status Unregister(LabelId label, PropKeyId prop);

  /// The index on (label, prop), or nullptr.
  const PropertyIndex* Find(LabelId label, PropKeyId prop) const;

  bool empty() const { return by_key_.empty(); }
  size_t size() const { return by_key_.size(); }

  /// Monotone structural version: bumped whenever an index is registered or
  /// unregistered. Compiled query plans (src/cypher/plan) resolve their
  /// access paths against a catalog snapshot and key the result on this
  /// epoch; any index DDL invalidates them wholesale.
  uint64_t epoch() const { return epoch_; }

  /// Iterates all indexes in (label, prop) order (deterministic).
  void ForEach(const std::function<void(const PropertyIndex&)>& fn) const;

  // --- Maintenance hooks (invoked by GraphStore) ---------------------------

  /// Node became visible with these labels/props (create or revive).
  void OnNodeAdded(NodeId id, const std::vector<LabelId>& labels,
                   const PropMap& props);

  /// Node is about to be tombstoned; labels/props are its final image.
  void OnNodeRemoved(NodeId id, const std::vector<LabelId>& labels,
                     const PropMap& props);

  /// Label added to / removed from an alive node with these props.
  void OnLabelAdded(NodeId id, LabelId label,
                    const PropMap& props);
  void OnLabelRemoved(NodeId id, LabelId label,
                      const PropMap& props);

  /// Property of an alive node changed old -> new (either side may be NULL
  /// for absent); `labels` is the node's current label set.
  void OnPropChanged(NodeId id, const std::vector<LabelId>& labels,
                     PropKeyId key, const Value& old_value,
                     const Value& new_value);

  // --- Write-time unique probes (invoked by the Transaction layer) ---------

  /// A conflicting entry found by a unique probe.
  struct UniqueConflict {
    const PropertyIndex* index = nullptr;
    NodeId holder;  ///< the node already owning the value
    Value value;
  };

  /// Would creating a node with these labels/props duplicate a key in some
  /// unique enforce-on-write index?
  std::optional<UniqueConflict> CheckNodeAdd(
      const std::vector<LabelId>& labels,
      const PropMap& props) const;

  /// Would adding `label` to node `id` (current props given) conflict?
  std::optional<UniqueConflict> CheckLabelAdd(
      NodeId id, LabelId label,
      const PropMap& props) const;

  /// Would setting `key` = `value` on node `id` (current labels given)
  /// conflict?
  std::optional<UniqueConflict> CheckPropSet(
      NodeId id, const std::vector<LabelId>& labels, PropKeyId key,
      const Value& value) const;

 private:
  using Key = std::pair<uint32_t, uint32_t>;  // (label, prop)

  const std::vector<PropertyIndex*>* IndexesOnLabel(LabelId label) const;

  // (label, prop) -> index; std::map keeps ForEach deterministic.
  std::map<Key, std::unique_ptr<PropertyIndex>> by_key_;
  uint64_t epoch_ = 0;
  // label -> indexes over that label (hook fan-out without a full scan).
  std::unordered_map<LabelId, std::vector<PropertyIndex*>> by_label_;
};

}  // namespace pgt::index

#endif  // PGTRIGGERS_INDEX_INDEX_CATALOG_H_
