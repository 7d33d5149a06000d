#ifndef PGTRIGGERS_ANALYSIS_ANALYZER_H_
#define PGTRIGGERS_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/analysis/predicate.h"
#include "src/analysis/write_set.h"
#include "src/schema/pg_schema.h"
#include "src/storage/graph_store.h"
#include "src/trigger/catalog.h"
#include "src/trigger/options.h"
#include "src/trigger/trigger_def.h"

namespace pgt::analysis {

/// Deterministic, name-sorted result of one triggering-graph analysis.
struct AnalysisReport {
  struct Row {
    std::string name;
    bool enabled = false;
    bool guarded = false;  // has a WHEN condition (expression or pipeline)
    std::string monitor;   // e.g. "AFTER SET ON 'L'.'p' FOR EACH NODE"
    std::string guard;     // extracted sargable guard, "-" if none usable
    std::string writes;    // inferred write set (WriteSet::ToString)
    std::vector<std::string> wakes;   // out-edges, name-sorted
    std::vector<std::string> pruned;  // predicate-pruned out-edges
  };
  std::vector<Row> rows;  // name-sorted

  size_t trigger_count = 0;
  size_t edge_count = 0;
  size_t pruned_count = 0;

  /// Cycles (multi-trigger SCCs and self-loops) among enabled triggers,
  /// each with whether every member carries a WHEN guard. Ordered by
  /// smallest member name; members in edge order starting from it.
  std::vector<std::pair<std::vector<std::string>, bool>> cycles;
  bool guaranteed_termination = false;

  std::string ToString() const;
};

/// The incrementally-maintained plan-grounded triggering graph
/// (docs/analysis.md). Nodes are installed triggers; an edge A -> B means
/// A's action may raise B's event at an action time B can observe. Edges
/// whose writes provably fail B's WHEN guard — and cannot be interfered
/// with by any other enabled writer of the monitored property — are kept
/// separately as pruned edges.
///
/// Maintenance is O(affected pairs) per trigger DDL: monitors and write
/// events register in event-keyed buckets (the DispatchIndex idea applied
/// at analysis level), so a CREATE/DROP only re-evaluates the pairs its
/// keys can touch, not the full O(n^2) pair space. A full Rebuild from the
/// catalog produces the identical graph (tested), and is the fallback
/// whenever the catalog changed without notifications (EnsureSynced
/// compares the catalog's ddl_epoch).
///
/// Single-threaded: only the writer touches it, and trigger DDL quiesces
/// the async pool first (docs/async.md, "Quiesce fences").
class TriggerAnalyzer {
 public:
  TriggerAnalyzer(const TriggerCatalog* catalog, const GraphStore* store,
                  const EngineOptions* options)
      : catalog_(catalog), store_(store), options_(options) {}

  /// Attaches (or detaches, nullptr) the PG-Schema used to narrow wildcard
  /// write events to declared labels. Forces a rebuild on next sync.
  void SetSchema(const schema::SchemaDef* schema) {
    schema_ = schema;
    dirty_ = true;
  }

  /// Marks the graph stale; the next EnsureSynced rebuilds from the
  /// catalog.
  void Invalidate() { dirty_ = true; }

  /// Brings the graph up to date with the catalog. Incremental
  /// notifications keep this a no-op on the hot path; a ddl_epoch mismatch
  /// (DDL applied without notification) triggers a full rebuild.
  void EnsureSynced(uint64_t plan_epoch);

  /// Incremental DDL notifications. Each must be called right after the
  /// corresponding catalog mutation; if the analyzer missed earlier
  /// mutations it falls back to a full rebuild instead.
  void NoteInstall(const std::string& name, uint64_t plan_epoch);
  void NoteDrop(const std::string& name);
  void NoteSetEnabled(const std::string& name, uint64_t plan_epoch);

  /// Full analysis over the current graph (syncs first).
  AnalysisReport Analyze(uint64_t plan_epoch);

  /// If `name` lies on a cycle (enabled triggers) with at least one member
  /// lacking a WHEN guard, returns the cycle as names in edge order
  /// starting and ending at `name` ("A -> B -> A" when joined); empty
  /// otherwise. Used by TerminationPolicy::kReject. Does not sync.
  std::vector<std::string> UnguardedCycleThrough(const std::string& name) const;

  /// Formatted cycle through `name` (any guardedness) for cascade-abort
  /// messages, e.g. "A -> B -> A"; empty when `name` is on no cycle.
  std::string CycleHintFor(const std::string& name) const;

  // --- Introspection (soundness tests, stats) -------------------------------

  /// All unpruned edges as (writer, woken) name pairs.
  std::set<std::pair<std::string, std::string>> Edges() const;
  /// Predicate-pruned pairs (statically matched, provably cannot fire).
  std::set<std::pair<std::string, std::string>> PrunedEdges() const;

  size_t entry_count() const;
  size_t edge_count() const;

 private:
  struct Entry {
    std::string name;
    uint64_t seq = 0;
    ActionTime time = ActionTime::kAfter;
    TriggerEvent event = TriggerEvent::kCreate;
    ItemKind item = ItemKind::kNode;
    Granularity granularity = Granularity::kEach;
    std::string label;
    std::string property;
    bool guarded = false;
    bool enabled = false;
    WriteSet writes;  // schema-narrowed
    PropGuard guard;
    // Adjacency by entry index (tid).
    std::set<int> out, in, pruned_out, pruned_in;
    bool alive = false;
  };

  /// Event-key bucket: (item, event, label-or-*, prop-or-*-or-"").
  using Key = std::tuple<int, int, std::string, std::string>;
  using Buckets = std::map<Key, std::set<int>>;

  enum class EdgeKind { kNoMatch, kEdge, kPruned };

  int CreateEntry(const TriggerDef& def, uint64_t plan_epoch);
  void FreeEntry(int tid);
  /// Registers buckets, discovers and classifies edges, and resurrects
  /// pruned edges the new writer now interferes with.
  void Attach(int tid);
  /// Unregisters, removes edges, and re-prunes edges whose last
  /// interfering writer this was.
  void Detach(int tid);
  void Rebuild(uint64_t plan_epoch);

  EdgeKind Evaluate(const Entry& writer, const Entry& monitor) const;
  bool MatchesMonitor(const WriteEvent& w, const Entry& monitor) const;
  /// Any enabled trigger whose kSet writes can put a guard-satisfying (or
  /// statically unknown) value into `monitor`'s property — the condition
  /// under which constant-refutation pruning is unsound.
  bool HasInterferingWriter(const Entry& monitor) const;

  std::vector<Key> MonitorForms(const Entry& e) const;
  std::vector<Key> WriterForms(const WriteEvent& w) const;
  /// Writer forms restricted to kSet property events (interference keys).
  std::vector<Key> SetWriterForms(const Entry& e) const;
  void NarrowWithSchema(WriteSet* ws) const;

  /// Re-evaluates every in-edge (pruned or not) of the monitors whose keys
  /// intersect `e`'s kSet writer forms — shared by Attach (resurrection)
  /// and Detach (re-prune).
  void ReclassifyAffectedMonitors(const Entry& e, int skip_tid);

  void AddEdge(int from, int to, EdgeKind kind);
  void RemoveEdge(int from, int to);

  /// Tarjan SCCs over enabled entries; each result is a member-tid list.
  std::vector<std::vector<int>> EnabledSccs() const;
  /// Cycle path (names, edge order, starting/ending at tid) within an SCC.
  std::vector<std::string> CyclePathThrough(
      int tid, const std::set<int>& scc) const;

  const TriggerCatalog* catalog_;
  const GraphStore* store_;
  const EngineOptions* options_;
  const schema::SchemaDef* schema_ = nullptr;

  std::vector<Entry> entries_;
  std::vector<int> free_list_;
  std::map<std::string, int> by_name_;
  Buckets monitor_buckets_;
  Buckets writer_buckets_;

  bool dirty_ = true;
  uint64_t synced_epoch_ = 0;
};

}  // namespace pgt::analysis

#endif  // PGTRIGGERS_ANALYSIS_ANALYZER_H_
