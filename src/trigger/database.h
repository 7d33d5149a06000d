#ifndef PGTRIGGERS_TRIGGER_DATABASE_H_
#define PGTRIGGERS_TRIGGER_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/cypher/exec_budget.h"
#include "src/cypher/functions.h"
#include "src/cypher/plan/plan_cache.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/ivm/ivm_manager.h"
#include "src/schema/pg_schema.h"
#include "src/storage/graph_store.h"
#include "src/trigger/catalog.h"
#include "src/trigger/engine.h"
#include "src/trigger/options.h"
#include "src/trigger/trigger_plan.h"
#include "src/trigger/trigger_parser.h"
#include "src/tx/transaction.h"
#include "src/wal/wal_manager.h"

namespace pgt {

class AsyncExecutor;  // src/trigger/async_executor.h

/// The reactive graph database facade: storage + transactions + the Cypher
/// subset + the PG-Trigger runtime, wired together.
///
///   Database db;
///   db.Execute("CREATE TRIGGER Alert AFTER CREATE ON 'Mutation' "
///              "FOR EACH NODE BEGIN CREATE (:Alert {m: NEW.name}) END");
///   db.Execute("CREATE (:Mutation {name: 'Spike:D614G'})");
///   // -> the trigger fired inside the same transaction.
///
/// Every Execute() call is one auto-committed transaction; ExecuteTx() runs
/// several statements in a single transaction (admission waves in the
/// paper's Section 6 are modeled this way). Trigger DDL (CREATE/DROP/ALTER
/// TRIGGER) is routed to the catalog.
///
/// The trigger runtime is pluggable (SetRuntime): by default the native
/// PG-Trigger engine runs; the APOC / Memgraph emulators substitute the
/// respective Section 5 semantics for comparison experiments.
class Database {
 public:
  explicit Database(EngineOptions options = {});
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Durability (docs/durability.md) --------------------------------------

  /// Opens a durable database rooted at `wal.dir`: loads the newest valid
  /// snapshot, replays the WAL to the last durable record (a torn tail from
  /// a crash is discarded), and resumes logging. Recovery runs through the
  /// normal commit path, so snapshot publication, index postings, the
  /// trigger catalog, and the commit/clock counters all come back exactly
  /// as the durable prefix left them.
  static Result<std::unique_ptr<Database>> Open(wal::WalOptions wal,
                                                EngineOptions options = {});

  /// Open with default WAL options (fsync on, group size 8) at `path`.
  static Result<std::unique_ptr<Database>> Open(const std::string& path);

  /// Clean shutdown: waits for an in-flight checkpoint, flushes the
  /// group-commit buffer, fsyncs, and writes the CLEAN marker so the next
  /// Open skips torn-tail tolerance. Idempotent; the destructor calls it
  /// best-effort. No-op for in-memory databases.
  Status Close();

  /// Forces a checkpoint and waits for it: rotates to a fresh WAL segment,
  /// streams a full snapshot of the epoch pinned at the rotation, and
  /// purges every segment the snapshot covers. Also starts automatically
  /// every `WalOptions::snapshot_interval` commits; those checkpoints run
  /// on a background thread while the writer keeps committing
  /// (docs/durability.md). At most one checkpoint is in flight.
  Status CheckpointNow();

  /// The write-ahead log, or nullptr for an in-memory database.
  wal::WalManager* wal() { return wal_.get(); }

  // --- Query / DDL execution ----------------------------------------------

  /// Executes one statement (query or trigger DDL) as its own transaction.
  /// Execute, ExecuteTx and QueryAt refuse (InvalidArgument) a parameter
  /// nesting more than kMaxValueDepth lists/maps.
  Result<cypher::QueryResult> Execute(std::string_view text,
                                      const Params& params = {});

  /// Executes several statements in one transaction (one statement-level
  /// trigger round per statement, one commit at the end).
  Result<std::vector<cypher::QueryResult>> ExecuteTx(
      const std::vector<std::string>& statements, const Params& params = {});

  // --- Off-writer ASYNC execution (docs/async.md) ---------------------------

  /// The async DETACHED pool, or nullptr (EngineOptions::async_pool_size ==
  /// 0, the default — behavior is then byte-identical to the serial
  /// on-writer drain).
  AsyncExecutor* async() { return async_.get(); }

  /// The writer interlock: serializes the single logical writer (Execute /
  /// ExecuteTx / DDL / checkpoint) against the async pool's apply step.
  /// Pool internals acquire it; everything else goes through the public
  /// entry points, which lock it themselves.
  std::mutex& writer_interlock() { return writer_mu_; }

  /// Drain barrier: blocks until every queued DETACHED activation has been
  /// applied and the in-flight checkpoint, if any, has finished (tests,
  /// benches, and anything needing serial-equivalent state or a settled
  /// WAL directory), then frees the snapshot versions no pin still holds.
  void DrainAsync();

  // --- Snapshot reads (docs/snapshots.md) -----------------------------------

  /// Pins a snapshot of the last committed state. The first call arms the
  /// snapshot substrate and must not race an in-flight transaction (call
  /// it from the writer thread, or once up front); afterwards OpenSnapshot
  /// is safe from any thread while the writer commits. Snapshots opened at
  /// the same epoch share one pinned object. Releasing the last reference
  /// unpins the epoch and frees nothing itself: the writer frees the
  /// superseded sidecar versions only that pin held at its next commit,
  /// or at CheckpointNow / DrainAsync / Close when idle.
  Result<std::shared_ptr<const GraphSnapshot>> OpenSnapshot();

  /// Runs a read-only statement against a pinned snapshot. Safe to call
  /// from any number of reader threads concurrently with the single
  /// writer: the read path takes no locks and never touches writer-mutable
  /// state. Statements that could write (including CALL) are rejected;
  /// clock functions (datetime()/timestamp()) are unavailable. Each call
  /// parses and compiles the statement against the snapshot's dictionaries
  /// and index image, then runs the compiled plan.
  Result<cypher::QueryResult> QueryAt(const GraphSnapshot& snapshot,
                                      std::string_view text,
                                      const Params& params = {}) const;

  // --- Components -----------------------------------------------------------

  GraphStore& store() { return store_; }
  const GraphStore& store() const { return store_; }
  TriggerCatalog& catalog() { return catalog_; }
  const TriggerCatalog& catalog() const { return catalog_; }
  cypher::ProcedureRegistry& procedures() { return procedures_; }
  LogicalClock& clock() { return clock_; }
  EngineOptions& options() { return options_; }

  /// The native engine (also reachable when a different runtime is active;
  /// emulators delegate activation matching to it).
  PgTriggerEngine& engine() { return *engine_; }
  EngineStats& stats() { return engine_->stats(); }

  /// Replaces the trigger runtime (pass nullptr to restore the native
  /// engine). The Database keeps ownership.
  void SetRuntime(std::unique_ptr<TriggerRuntime> runtime);
  TriggerRuntime& runtime() {
    return runtime_ != nullptr ? *runtime_ : *engine_;
  }

  // --- Static termination analysis (docs/analysis.md) -----------------------

  /// The plan-grounded triggering-graph analyzer, maintained incrementally
  /// on every trigger DDL (SHOW TRIGGER ANALYSIS / CALL
  /// pgt.analyzeTriggers() read it).
  analysis::TriggerAnalyzer& analyzer() { return analyzer_; }

  /// Runs (or refreshes) the analysis and returns the deterministic report.
  analysis::AnalysisReport AnalyzeTriggers() {
    return analyzer_.Analyze(PlanEpoch());
  }

  /// Statically-found cycle through `trigger_name`, formatted
  /// "A -> B -> A", for max_cascade_depth abort messages. Empty when the
  /// trigger is on no cycle.
  std::string TerminationCycleHint(const std::string& trigger_name);

  // --- PG-Schema attachment --------------------------------------------------

  /// Attaches a PG-Schema as a commit-time guard: after ONCOMMIT triggers
  /// (and their side effects) run, the whole graph is validated against
  /// the schema; any violation rolls the transaction back with
  /// ConstraintViolation. This realizes the paper's footnote 1 direction
  /// — PG-Types standing in for labels — as an enforcement mechanism.
  /// Pass std::nullopt to detach.
  ///
  /// PG-Key properties get index-backed enforcement: attaching auto-creates
  /// a deferred unique index per key (label, property), so the commit
  /// guard's uniqueness check reads duplicates off index postings instead
  /// of rescanning every node; the indexes are dropped again on detach.
  /// Other schema rules remain whole-graph checks (O(store) per mutating
  /// commit), intended for correctness-first workloads.
  void AttachSchema(std::optional<schema::SchemaDef> schema);
  const std::optional<schema::SchemaDef>& attached_schema() const {
    return schema_;
  }

  // --- Fault containment & resource governance (docs/robustness.md) --------

  /// RAII: arms the writer-thread execution budget
  /// (EngineOptions::statement_timeout_ms / max_plan_steps) for the
  /// enclosing top-level statement. Nested trigger statements find the
  /// budget already armed and inherit it — BEFORE/AFTER/ONCOMMIT cascades
  /// spend the activating statement's allowance. `fresh = true` (DETACHED
  /// activations) saves the current budget and arms a full new one: each
  /// autonomous transaction gets its own allowance. No-op when both budget
  /// options are 0, so the default configuration never even arms.
  class BudgetScope {
   public:
    explicit BudgetScope(Database* db, bool fresh = false);
    ~BudgetScope();
    BudgetScope(const BudgetScope&) = delete;
    BudgetScope& operator=(const BudgetScope&) = delete;

   private:
    Database* db_;
    bool armed_here_ = false;
    cypher::ExecBudget saved_;
    bool saved_armed_ = false;
  };

  /// True once a WAL append/fsync failure has poisoned the log: the
  /// database stays up for reads (read-only Execute, QueryAt, the SHOW
  /// surfaces) but refuses mutating statements fast, citing the poison
  /// cause, instead of letting memory and log diverge further.
  bool degraded() const;

  // --- Internals used by trigger runtimes -----------------------------------

  /// Builds an evaluation context over `tx` (params/clock/procedures wired;
  /// transition env optional).
  cypher::EvalContext MakeEvalContext(Transaction* tx, const Params* params,
                                      const cypher::TransitionEnv* env);

  /// Execute for callers already on the writer thread inside a runtime
  /// callback (the emulators' deterministic interleaving injection): same
  /// semantics, but does not re-acquire the writer interlock and does not
  /// run the async backpressure boundary.
  Result<cypher::QueryResult> ExecuteNested(std::string_view text,
                                            const Params& params = {});

  // --- Compile-once statement pipeline --------------------------------------

  /// Plan-invalidation epoch: any index DDL (IndexCatalog::epoch) or
  /// trigger DDL (TriggerCatalog::ddl_epoch) bumps it; compiled plans are
  /// keyed on it and recompiled when stale (docs/plan.md).
  uint64_t PlanEpoch() const {
    return store_.indexes().epoch() + catalog_.ddl_epoch();
  }

  /// Parses (or fetches from the LRU plan cache) and compiles one ad-hoc
  /// Cypher statement; a cached plan left stale by DDL is recompiled from
  /// its parsed AST.
  Result<std::shared_ptr<cypher::plan::PreparedStatement>> Prepare(
      std::string_view text);

  /// Runs a prepared statement inside `tx`: opens a delta scope, executes
  /// the compiled program, pops the scope, and hands the delta to the
  /// active runtime's OnStatement. A program left stale by DDL since
  /// Prepare is recompiled for this run.
  Result<cypher::QueryResult> RunPreparedInTx(
      Transaction& tx, const cypher::plan::PreparedStatement& stmt,
      const Params& params);

  /// Capacity of the ad-hoc prepared-plan LRU. Trigger plans are cached on
  /// their TriggerDef and do not count against it (docs/plan.md).
  static constexpr size_t kPlanCacheCapacity = 128;

  /// The ad-hoc prepared-plan cache (stats read by tests/benches).
  const cypher::plan::PlanCache& plan_cache() const { return plan_cache_; }

  // --- Incremental WHEN evaluation (src/ivm, docs/ivm.md) -------------------

  /// Per-trigger maintained WHEN match state. Wired into the store's
  /// mutation hooks and the catalog's lifecycle transitions at
  /// construction; the engine acquires per-trigger states lazily at the
  /// first compiled firing (EngineOptions::use_ivm).
  ivm::IvmManager& ivm() { return ivm_; }
  const ivm::IvmManager& ivm() const { return ivm_; }

  /// Plan-churn counters (trigger plan compiles/recompiles on epoch
  /// invalidation, ad-hoc cached-plan recompiles) — CALL pgt.ivmStats().
  PlanCompileCounters& plan_compile_counters() {
    return plan_compile_counters_;
  }
  uint64_t adhoc_plan_recompiles() const { return adhoc_plan_recompiles_; }

  /// Recycler for plan-executor frame buffers, shared by ad-hoc statement
  /// execution and the trigger engine's activation runs (docs/values.md).
  cypher::plan::FramePool& frame_pool() { return frame_pool_; }

  /// Begins a transaction. The caller must finish it via
  /// CommitWithTriggers or RollbackAndRelease.
  Result<std::unique_ptr<Transaction>> BeginTx();

  /// Begins the autonomous transaction of triggers that run after
  /// `activating` committed: DETACHED activations and the emulators'
  /// after-commit phase. The activating transaction's deleted items are
  /// re-injected as ghosts, so OLD transition variables and deleted-item
  /// lists stay readable. The caller must finish it via CommitWithTriggers
  /// or RollbackAndRelease.
  Result<std::unique_ptr<Transaction>> BeginAutonomousTx(
      const GraphDelta& activating);

  /// Drives OnCommitPoint, the physical commit, and AfterCommit.
  Status CommitWithTriggers(std::unique_ptr<Transaction> tx);

  void RollbackAndRelease(std::unique_ptr<Transaction> tx);

  /// Number of committed transactions (visibility experiments).
  uint64_t committed_transactions() const {
    return tx_manager_.committed_count();
  }

 private:
  class ReplayHandler;  // WAL recovery callbacks (database.cc)

  Result<cypher::QueryResult> ExecuteDdl(std::string_view text);
  /// The FailedPrecondition returned for writes while degraded().
  Status DegradedError() const;
  Result<cypher::QueryResult> ExecuteIndexDdl(std::string_view text);
  /// ExecuteTx body; caller holds writer_mu_.
  Result<std::vector<cypher::QueryResult>> ExecuteTxLocked(
      const std::vector<std::string>& statements, const Params& params);
  /// The writer's half of a checkpoint: rotates the WAL, pins the
  /// committed epoch, captures the metadata, and hands both to the
  /// checkpoint thread, which streams the snapshot file. Caller holds
  /// writer_mu_ (or is the auto-checkpoint inside CommitWithTriggers,
  /// which runs under the committing entry point's lock) and has joined
  /// the previous checkpoint. Does not quiesce the pool.
  Status StartCheckpointLocked();
  /// Waits for the in-flight checkpoint and returns its outcome (OK when
  /// none is in flight). A failure makes the next commit retry. Caller
  /// holds writer_mu_, or the async pool is stopped.
  Status JoinCheckpoint();
  /// Final pool shutdown: quiesce under the interlock, then stop and join
  /// the workers (outside the interlock — a worker may be blocked on it).
  /// Afterwards AfterCommit falls back to the serial inline drain.
  void ShutdownAsync();

  // --- WAL plumbing ---------------------------------------------------------

  /// Replays the log into this (freshly constructed) database. `wal_` is
  /// still null here, deliberately: replayed DDL and commits must not be
  /// re-logged.
  Status RecoverFromWal(wal::WalManager& wal);
  /// Rebuilds store + indexes + schema + triggers from a snapshot image.
  Status RestoreSnapshotImage(wal::SnapshotImage&& img);
  /// Re-commits one logged transaction through the normal commit machinery
  /// (no trigger rounds — the log already contains every trigger effect).
  Status CommitReplay(const wal::WalCommit& c);
  Status ApplyReplayedDdl(const wal::WalDdl& d);
  /// Appends the commit record for `tx` (called at the commit point, before
  /// the physical commit).
  Status LogCommit(Transaction& tx);
  /// Appends a DDL record; failures poison the WAL (append-side) and are
  /// surfaced to the DDL caller.
  Status LogDdl(wal::WalDdlKind kind, std::string_view text);
  /// Logs the current schema attachment state (called from AttachSchema).
  void LogSchemaChange();
  /// A snapshot image without records: counters, clock, live dictionaries,
  /// index specs, schema and triggers. The checkpoint thread streams the
  /// records from the pinned snapshot.
  wal::SnapshotImage CaptureSnapshotMeta(uint64_t first_live_seq);
  /// Runs a prepared read-only statement without a transaction (live view,
  /// writer thread): no delta scope, no trigger round, no commit — the
  /// statement produces no events, so skipping them is unobservable.
  Result<cypher::QueryResult> RunReadOnly(
      const cypher::plan::PreparedStatement& stmt, const Params& params);
  /// (Re)compiles `stmt`'s program from its parsed AST against the live
  /// store and `epoch`.
  Status CompileInto(cypher::plan::PreparedStatement* stmt, uint64_t epoch);
  /// `stmt`'s program when it is current, else a fresh compile of it (the
  /// cached entry is left alone).
  Result<std::shared_ptr<const cypher::plan::PlanProgram>> CurrentProgram(
      const cypher::plan::PreparedStatement& stmt);
  /// LRU lookup for `text` (null on miss).
  std::shared_ptr<cypher::plan::PreparedStatement> CachedPlan(
      std::string_view text);
  /// Prepare continuing from an already-performed cache lookup.
  Result<std::shared_ptr<cypher::plan::PreparedStatement>> PrepareWith(
      std::shared_ptr<cypher::plan::PreparedStatement> stmt,
      std::string_view text);

  EngineOptions options_;
  GraphStore store_;
  TransactionManager tx_manager_;
  TriggerCatalog catalog_;
  /// Declared after store_/options_ (it holds pointers to both) and before
  /// engine_; the constructor wires it into the store's mutation hooks and
  /// the catalog's lifecycle sink.
  ivm::IvmManager ivm_{&store_, &options_};
  PlanCompileCounters plan_compile_counters_;
  uint64_t adhoc_plan_recompiles_ = 0;
  cypher::ProcedureRegistry procedures_;
  /// Fixed start of the DATETIME() clock (2023-11-14T22:13:20Z), so runs
  /// are reproducible; recovery moves the clock to the logged reading.
  static constexpr int64_t kClockEpochMicros = 1'700'000'000'000'000;
  LogicalClock clock_{kClockEpochMicros};
  std::unique_ptr<PgTriggerEngine> engine_;
  std::unique_ptr<TriggerRuntime> runtime_;  // null = native engine
  std::optional<schema::SchemaDef> schema_;  // commit-time guard
  // PG-Key indexes auto-created by AttachSchema (dropped on detach).
  std::vector<std::pair<LabelId, PropKeyId>> schema_key_indexes_;
  analysis::TriggerAnalyzer analyzer_;
  /// True while RecoverFromWal replays the log: replayed CREATE TRIGGER is
  /// never policy-rejected (it was legal when logged; recovery must bring
  /// back the durable state verbatim).
  bool in_recovery_ = false;
  cypher::plan::PlanCache plan_cache_{kPlanCacheCapacity};
  cypher::plan::FramePool frame_pool_;
  /// Writer-thread execution budget. Armed per top-level statement (and
  /// per DETACHED activation) by BudgetScope; MakeEvalContext hands out a
  /// pointer only while armed, so with budgets off every tick site costs
  /// exactly one null check.
  cypher::ExecBudget budget_;
  bool budget_armed_ = false;
  /// Serializes the logical writer against the async pool's apply step.
  /// Acquired only at the outermost entry points (Execute/ExecuteTx/
  /// CheckpointNow/AttachSchema/DrainAsync/shutdown) and by the pool;
  /// nested paths (trigger runs, recovery, auto-checkpoint) stay lock-free
  /// under their caller's hold. Uncontended (a handful of atomic ops) when
  /// async_pool_size == 0.
  std::mutex writer_mu_;
  /// Off-writer DETACHED executor; null unless async_pool_size > 0.
  std::unique_ptr<AsyncExecutor> async_;
  /// Durability subsystem; null = in-memory database (the default — no WAL
  /// hook is even reached on the hot path until Open attaches one).
  std::unique_ptr<wal::WalManager> wal_;
  /// High-water marks of dictionary entries already written to the log
  /// (wal::BuildDictDelta emits and advances).
  wal::LoggedDictSizes wal_dicts_logged_;
  /// The in-flight checkpoint (not joinable when none). Started and joined
  /// under writer_mu_. The thread writes `checkpoint_status_` and then
  /// sets `checkpoint_done_`, so the auto path can reap it without waiting.
  std::thread checkpoint_;
  Status checkpoint_status_;
  std::atomic<bool> checkpoint_done_{false};
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_DATABASE_H_
