#ifndef PGTRIGGERS_TX_TRANSACTION_H_
#define PGTRIGGERS_TX_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "src/common/macros.h"
#include "src/storage/graph_store.h"
#include "src/tx/delta.h"

namespace pgt {

/// A single-writer transaction over the GraphStore.
///
/// Responsibilities:
///  * apply mutations through a change-tracking API, so that every change is
///    captured in a GraphDelta (the substrate for trigger events);
///  * keep an undo log so Rollback() restores the pre-transaction state
///    exactly (ONCOMMIT trigger failures roll back the whole transaction,
///    Section 4.2);
///  * maintain a delta *stack*: the trigger engine opens one delta scope per
///    statement (including per trigger-action statement), pops it to derive
///    that statement's events, and the entries fold into the enclosing scope
///    so the transaction-level delta ends up with everything for
///    ONCOMMIT / DETACHED processing;
///  * retain "ghost" images of deleted items so OLD transition variables
///    stay readable after deletion.
///
/// Transactions are created by TransactionManager and must end in exactly
/// one Commit() or Rollback() call.
class Transaction {
 public:
  explicit Transaction(GraphStore* store, uint64_t id);
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }
  GraphStore* store() { return store_; }
  const GraphStore* store() const { return store_; }
  bool active() const { return state_ == State::kActive; }
  bool committed() const { return state_ == State::kCommitted; }

  /// WAL replay mode: suppresses write-time unique-index probes. Replaying
  /// a commit in canonical final-state order (creates, updates, deletes)
  /// can pass through transient duplicate states the original execution
  /// order never exhibited; the log is already-committed history, so the
  /// probes would only reject valid state. Cleared by Reset.
  void SetReplayUnchecked(bool on) { replay_unchecked_ = on; }
  bool replay_unchecked() const { return replay_unchecked_; }

  // --- Delta scopes --------------------------------------------------------

  /// Opens a nested delta scope (one per executed statement). Reuses a
  /// recycled scope's buffers when one is available.
  void PushDeltaScope();

  /// Hands a delta obtained from PopDeltaScope back for reuse: the next
  /// PushDeltaScope gets its (cleared) buffers instead of allocating.
  void RecycleDelta(GraphDelta&& d) {
    if (spare_scopes_.size() >= 8) return;
    d.Clear();
    spare_scopes_.push_back(std::move(d));
  }

  /// Re-initializes a finished transaction for reuse by the manager,
  /// keeping warm container capacities (undo log, delta scopes, spares).
  void Reset(uint64_t id);

  /// Closes the innermost scope, returning its delta; the entries also fold
  /// into the parent scope.
  GraphDelta PopDeltaScope();

  /// The accumulated transaction-level delta (everything since Begin).
  const GraphDelta& AccumulatedDelta() const { return delta_stack_.front(); }

  /// Moves the accumulated delta out (for AfterCommit processing). Only
  /// legal after a successful Commit — the transaction no longer needs it —
  /// and saves the full-delta copy the commit path used to make.
  GraphDelta TakeAccumulatedDelta() {
    return std::move(delta_stack_.front());
  }

  // --- Change-tracked mutations --------------------------------------------
  // Property values nesting more than kMaxValueDepth lists/maps are
  // refused with InvalidArgument.

  Result<NodeId> CreateNode(const std::vector<LabelId>& labels,
                            PropMap props);
  Result<RelId> CreateRel(NodeId src, RelTypeId type, NodeId dst,
                          PropMap props);

  /// Deletes a node; if `detach`, first deletes all incident relationships
  /// (each recorded as its own deletion, as in Cypher DETACH DELETE).
  Status DeleteNode(NodeId id, bool detach);
  Status DeleteRel(RelId id);

  Status AddLabel(NodeId id, LabelId label);
  Status RemoveLabel(NodeId id, LabelId label);
  Status SetNodeProp(NodeId id, PropKeyId key, Value value);
  Status RemoveNodeProp(NodeId id, PropKeyId key);
  Status SetRelProp(RelId id, PropKeyId key, Value value);
  Status RemoveRelProp(RelId id, PropKeyId key);

  // --- Reads (see through to the store; ghosts for deleted items) ----------

  /// Reads a node property; falls back to the ghost image when the node was
  /// deleted in this transaction (for OLD transition variables).
  Value ReadNodeProp(NodeId id, PropKeyId key) const;
  Value ReadRelProp(RelId id, PropKeyId key) const;

  /// Labels of a node, ghost-aware.
  std::vector<LabelId> ReadNodeLabels(NodeId id) const;

  /// Zero-copy variant: the node's sorted label vector (ghost-aware), or
  /// nullptr when the node never existed. The pointer is invalidated by the
  /// next store mutation; used by the compiled matcher's per-candidate
  /// label checks (src/cypher/plan), which read and immediately test.
  const std::vector<LabelId>* ReadNodeLabelsView(NodeId id) const;

  /// Ghost image lookup (nullptr when the item was not deleted here).
  const DeletedNodeImage* GhostNode(NodeId id) const;
  const DeletedRelImage* GhostRel(RelId id) const;

  /// Pre-seeds ghost images into this transaction
  /// (Database::BeginAutonomousTx): the activating transaction is already
  /// committed, so images of the items it deleted are injected into the
  /// autonomous transaction to keep them readable.
  void InjectGhostNode(const DeletedNodeImage& image) {
    ghost_nodes_[image.id] = image;
  }
  void InjectGhostRel(const DeletedRelImage& image) {
    ghost_rels_[image.id] = image;
  }

  // --- Lifecycle -----------------------------------------------------------

  /// Makes the transaction's effects permanent. (The in-memory store is
  /// already updated; commit discards the undo log and releases the
  /// adjacency of the nodes it deleted.)
  Status Commit();

  /// Restores the exact pre-transaction state.
  Status Rollback();

 private:
  enum class State { kActive, kCommitted, kRolledBack };

  // Undo log entries, applied inverse-first on rollback.
  struct UndoCreateNode {
    NodeId id;
  };
  struct UndoDeleteNode {
    DeletedNodeImage image;
  };
  struct UndoCreateRel {
    RelId id;
  };
  struct UndoDeleteRel {
    DeletedRelImage image;
  };
  struct UndoAddLabel {
    NodeId id;
    LabelId label;
  };
  struct UndoRemoveLabel {
    NodeId id;
    LabelId label;
  };
  struct UndoSetNodeProp {
    NodeId id;
    PropKeyId key;
    Value old_value;
  };
  struct UndoSetRelProp {
    RelId id;
    PropKeyId key;
    Value old_value;
  };
  using UndoOp =
      std::variant<UndoCreateNode, UndoDeleteNode, UndoCreateRel,
                   UndoDeleteRel, UndoAddLabel, UndoRemoveLabel,
                   UndoSetNodeProp, UndoSetRelProp>;

  GraphDelta& CurrentDelta() { return delta_stack_.back(); }
  Status CheckActive() const;

  GraphStore* store_;
  uint64_t id_;
  State state_ = State::kActive;
  bool replay_unchecked_ = false;
  std::vector<GraphDelta> delta_stack_;
  std::vector<GraphDelta> spare_scopes_;  // recycled (cleared) scopes
  std::vector<UndoOp> undo_log_;
  std::unordered_map<NodeId, DeletedNodeImage> ghost_nodes_;
  std::unordered_map<RelId, DeletedRelImage> ghost_rels_;
};

/// Hands out transactions one at a time (single-writer engine,
/// docs/semantics.md D7) and tracks commit counts for the visibility
/// experiments.
class TransactionManager {
 public:
  explicit TransactionManager(GraphStore* store) : store_(store) {}

  /// Starts a transaction — a pooled one when available (the finished
  /// transaction banked by Release keeps its warm undo-log / delta-scope
  /// buffers). Fails with FailedPrecondition if one is already active (the
  /// engine serializes writers).
  Result<std::unique_ptr<Transaction>> Begin();

  /// Must be called with the active transaction after Commit/Rollback.
  /// The ownership-taking overload banks the object for reuse by the next
  /// Begin; the raw-pointer overload only clears the active slot.
  void Release(Transaction* tx);
  void Release(std::unique_ptr<Transaction> tx);

  /// Hands a spent transaction-level delta (TakeAccumulatedDelta output,
  /// after AfterCommit processing) to the banked spare transaction, so the
  /// next transaction's accumulated delta starts with warm buffers.
  void RecycleDelta(GraphDelta&& d) {
    if (spare_ != nullptr) spare_->RecycleDelta(std::move(d));
  }

  uint64_t committed_count() const { return committed_; }
  void NoteCommit() { ++committed_; }

  /// WAL recovery: restores the counter to the value the crashed process
  /// had after the commit being replayed (replay itself must not make the
  /// count drift — logged `committed_after` values are authoritative).
  void RestoreCommitted(uint64_t n) { committed_ = n; }

  /// True while a transaction is in flight (snapshot arming must not race
  /// an active writer's mutations).
  bool HasActive() const { return active_ != nullptr; }

 private:
  GraphStore* store_;
  uint64_t next_id_ = 1;
  uint64_t committed_ = 0;
  Transaction* active_ = nullptr;
  std::unique_ptr<Transaction> spare_;  // finished tx banked for reuse
};

}  // namespace pgt

#endif  // PGTRIGGERS_TX_TRANSACTION_H_
