#include "src/trigger/database.h"

#include "src/common/fault.h"
#include "src/common/macros.h"
#include "src/common/str_util.h"
#include "src/cypher/lexer.h"
#include "src/cypher/parser.h"
#include "src/cypher/plan/compiler.h"
#include "src/cypher/plan/plan_executor.h"
#include "src/cypher/statement_classifier.h"
#include "src/index/index_ddl.h"
#include "src/schema/validator.h"
#include "src/storage/snapshot.h"
#include "src/storage/store_view.h"
#include "src/trigger/async_executor.h"
#include "src/wal/commit_record.h"

namespace pgt {

namespace {

const Params kNoParams;
const std::vector<LabelId> kNoLabels;
const PropMap kNoProps;

/// The checkpoint thread's half of a checkpoint: streams every node and
/// relationship id below the pinned bounds. Ids dead or not yet created at
/// the pinned epoch become empty dead placeholders; after recovery only
/// the id hole is observable.
Status StreamRecords(const GraphSnapshot& snap, wal::SnapshotWriter& w) {
  PGT_RETURN_IF_ERROR(w.BeginNodes(snap.NodeIdBound()));
  for (uint64_t i = 0; i < snap.NodeIdBound(); ++i) {
    const NodeVersion* v = snap.Node(NodeId{i});
    if (v == nullptr || !v->alive) {
      PGT_RETURN_IF_ERROR(w.AddNode(false, kNoLabels, kNoProps));
    } else {
      PGT_RETURN_IF_ERROR(w.AddNode(true, v->labels, v->props));
    }
  }
  PGT_RETURN_IF_ERROR(w.BeginRels(snap.RelIdBound()));
  for (uint64_t i = 0; i < snap.RelIdBound(); ++i) {
    const RelVersion* v = snap.Rel(RelId{i});
    if (v == nullptr || !v->alive) {
      PGT_RETURN_IF_ERROR(w.AddRel(false, 0, NodeId{}, NodeId{}, kNoProps));
    } else {
      PGT_RETURN_IF_ERROR(w.AddRel(true, v->type, v->src, v->dst, v->props));
    }
  }
  return Status::OK();
}

// --- Introspection tables (README "Introspection tables") -----------------

using TableRows = std::vector<std::vector<Value>>;

/// An unsigned counter as a Cypher integer.
Value U64(uint64_t n) { return Value::Int(static_cast<int64_t>(n)); }

/// Sums over every incremental-WHEN state (docs/ivm.md).
struct IvmTotals {
  int64_t states = 0, maintained = 0, tuples = 0, bytes = 0;
  int64_t served = 0, fallbacks = 0;
};

IvmTotals SumIvm(const ivm::IvmManager& ivm) {
  IvmTotals t;
  for (const ivm::TriggerIvmState* st : ivm.States()) {
    ++t.states;
    if (st->mode() == ivm::IvmMode::kMaintained) ++t.maintained;
    t.tuples += static_cast<int64_t>(st->tuples());
    t.bytes += st->bytes();
    t.served += static_cast<int64_t>(st->served());
    t.fallbacks += static_cast<int64_t>(st->fallback_firings());
  }
  return t;
}

/// The triggering-graph report (docs/analysis.md): one row per trigger,
/// and the whole-catalog verdict repeated on each.
TableRows TriggerAnalysisRows(Database& db) {
  const analysis::AnalysisReport rep = db.AnalyzeTriggers();
  std::string verdict;
  if (rep.guaranteed_termination) {
    verdict = "termination guaranteed";
  } else {
    size_t unguarded = 0;
    for (const auto& [path, guarded] : rep.cycles) {
      unguarded += guarded ? 0 : 1;
    }
    verdict = "cycles: " + std::to_string(rep.cycles.size()) +
              " (unguarded: " + std::to_string(unguarded) + ")";
  }
  TableRows rows;
  for (const analysis::AnalysisReport::Row& r : rep.rows) {
    rows.push_back({Value::String(r.name), Value::Bool(r.enabled),
                    Value::Bool(r.guarded), Value::String(r.monitor),
                    Value::String(r.guard), Value::String(r.writes),
                    Value::String(Join(r.wakes, ",")),
                    Value::String(Join(r.pruned, ",")),
                    Value::String(verdict)});
  }
  return rows;
}

/// The same report as text, one row per line.
TableRows AnalysisReportLines(Database& db) {
  const std::string text = db.AnalyzeTriggers().ToString();
  TableRows rows;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    rows.push_back({Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  return rows;
}

/// One row per installed trigger: its circuit-breaker state
/// (docs/robustness.md) and its incremental-WHEN maintenance state
/// (docs/ivm.md). Healthy triggers that never failed show zeros; triggers
/// without maintained state show ivm_mode "idle" (state builds lazily at
/// the first compiled firing) or "off" when EngineOptions::use_ivm is
/// false.
TableRows TriggerStatusRows(Database& db) {
  static const TriggerHealth kHealthy;
  const TriggerCatalog& catalog = db.catalog();
  TableRows rows;
  for (const TriggerDef* t : catalog.All()) {
    const TriggerHealth* h = catalog.Health(t->name);
    if (h == nullptr) h = &kHealthy;
    const ivm::TriggerIvmState* st = db.ivm().Find(t->name);
    const char* mode = db.options().use_ivm ? "idle" : "off";
    int64_t tuples = 0, bytes = 0, served = 0, fallbacks = 0;
    if (st != nullptr) {
      mode = ivm::IvmModeName(st->mode());
      tuples = static_cast<int64_t>(st->tuples());
      bytes = st->bytes();
      served = static_cast<int64_t>(st->served());
      fallbacks = static_cast<int64_t>(st->fallback_firings());
    }
    rows.push_back(
        {Value::String(t->name), Value::String(ActionTimeName(t->time)),
         Value::Bool(t->enabled), Value::Bool(h->quarantined),
         U64(h->consecutive_failures), U64(h->total_failures),
         U64(h->probes), U64(h->skipped), Value::String(h->reason),
         Value::Int(h->quarantined_at_micros), Value::String(mode),
         Value::Int(tuples), Value::Int(bytes), Value::Int(served),
         Value::Int(fallbacks)});
  }
  return rows;
}

/// One row per property index (README "Property indexes").
TableRows IndexRows(Database& db) {
  TableRows rows;
  db.store().indexes().ForEach([&](const index::PropertyIndex& idx) {
    rows.push_back({Value::String(idx.spec().name),
                    Value::String(index::IndexKindName(idx.spec().kind)),
                    Value::Bool(idx.spec().unique), U64(idx.EntryCount())});
  });
  return rows;
}

/// The async pool's counters (docs/async.md); all zeros with the pool
/// off, so the table stays queryable.
TableRows AsyncStatusRows(Database& db) {
  AsyncPoolStats s;
  if (db.async() != nullptr) s = db.async()->Stats();
  return {{Value::Int(s.workers), U64(s.queue_depth), U64(s.in_flight),
           U64(s.enqueued), U64(s.prefiltered), U64(s.deferred),
           U64(s.applied), U64(s.spilled), U64(s.rejected)}};
}

/// Degraded mode, quarantine, async shedding, armed fault points and IVM
/// degradations in one row (docs/robustness.md).
TableRows HealthRows(Database& db) {
  const std::vector<std::string> quarantined = db.catalog().Quarantined();
  AsyncPoolStats s;
  if (db.async() != nullptr) s = db.async()->Stats();
  const IvmTotals ivm = SumIvm(db.ivm());
  return {{Value::String(db.degraded() ? "degraded-read-only" : "ok"),
           Value::String(db.wal() != nullptr ? db.wal()->poison_cause() : ""),
           U64(quarantined.size()), Value::String(Join(quarantined, ",")),
           U64(s.shed), U64(s.worker_deaths),
           U64(FaultRegistry::Global().ArmedPoints().size()),
           Value::Int(ivm.maintained), Value::Int(ivm.bytes),
           U64(db.ivm().counters().degradations)}};
}

/// Plan-churn counters plus the summed IVM maintenance state
/// (docs/ivm.md).
TableRows IvmStatsRows(Database& db) {
  const IvmTotals t = SumIvm(db.ivm());
  const ivm::IvmManager::Counters& c = db.ivm().counters();
  return {{U64(db.plan_compile_counters().trigger_compiles),
           U64(db.plan_compile_counters().trigger_recompiles),
           U64(db.adhoc_plan_recompiles()), Value::Int(t.states),
           Value::Int(t.maintained), Value::Int(t.tuples),
           Value::Int(t.bytes), Value::Int(t.served), Value::Int(t.fallbacks),
           U64(c.maintain_ops), U64(c.seeds), U64(c.degradations),
           U64(c.resolutions)}};
}

/// One read-only status table. `show` holds the words that follow SHOW
/// (null when unused), `procedure` the CALL name (null for none).
struct IntrospectionTable {
  const char* show[2];
  const char* procedure;
  std::vector<std::string> columns;
  TableRows (*rows)(Database& db);
};

/// Every SHOW and CALL pgt.* table. A new status table is one entry here.
const IntrospectionTable kIntrospectionTables[] = {
    {{"TRIGGER ANALYSIS", nullptr},
     nullptr,
     {"name", "enabled", "guarded", "monitor", "guard", "writes", "wakes",
      "pruned", "verdict"},
     TriggerAnalysisRows},
    {{"TRIGGER STATUS", nullptr},
     nullptr,
     {"name", "time", "enabled", "quarantined", "failures", "total_failures",
      "probes", "skipped", "reason", "since_micros", "ivm_mode", "ivm_tuples",
      "ivm_bytes", "ivm_served", "ivm_fallbacks"},
     TriggerStatusRows},
    {{"INDEXES", "INDEX"},
     nullptr,
     {"name", "kind", "unique", "entries"},
     IndexRows},
    {{"ASYNC STATUS", nullptr},
     "pgt.asyncStats",
     {"workers", "queue_depth", "in_flight", "enqueued", "prefiltered",
      "deferred", "applied", "spilled", "rejected"},
     AsyncStatusRows},
    {{"HEALTH", nullptr},
     "pgt.health",
     {"mode", "wal_poison_cause", "quarantined_count", "quarantined",
      "async_shed", "async_worker_deaths", "armed_fault_points",
      "ivm_maintained", "ivm_bytes", "ivm_degradations"},
     HealthRows},
    {{nullptr, nullptr},
     "pgt.ivmStats",
     {"trigger_plan_compiles", "trigger_plan_recompiles",
      "adhoc_plan_recompiles", "states", "maintained", "tuples", "bytes",
      "served", "fallbacks", "maintain_ops", "seeds", "degradations",
      "resolutions"},
     IvmStatsRows},
    {{nullptr, nullptr}, "pgt.analyzeTriggers", {"line"}, AnalysisReportLines},
};

/// Answers `SHOW <phrase>`: the phrase's words (any case, an optional
/// trailing ';') must equal one of a table's SHOW phrases.
Result<cypher::QueryResult> ExecuteShow(Database& db, std::string_view text) {
  PGT_ASSIGN_OR_RETURN(std::vector<cypher::Token> toks,
                       cypher::Lexer::Tokenize(text));
  toks.pop_back();  // kEnd
  if (!toks.empty() && toks.back().type == cypher::TokenType::kSemicolon) {
    toks.pop_back();
  }
  // Only bare words form a phrase: any other token ("?") matches no table.
  std::string phrase;
  for (size_t i = 1; i < toks.size(); ++i) {
    if (i > 1) phrase += ' ';
    phrase += toks[i].type == cypher::TokenType::kIdent ? toks[i].text : "?";
  }
  std::string known;
  for (const IntrospectionTable& t : kIntrospectionTables) {
    for (const char* show : t.show) {
      if (show == nullptr) continue;
      if (EqualsIgnoreCase(phrase, show)) {
        return cypher::QueryResult{t.columns, t.rows(db)};
      }
      known += known.empty() ? "SHOW " : ", SHOW ";
      known += show;
    }
  }
  return Status::SyntaxError("unknown SHOW statement; expected one of: " +
                             known);
}

/// Parameters nest at most kMaxValueDepth lists/maps, like stored property
/// values: evaluating a value recurses once per level, so an unbounded one
/// could overflow the stack.
Status CheckParamDepth(const Params& params) {
  for (const auto& [name, v] : params) {
    if (!v.WithinMaxDepth()) {
      return Status::InvalidArgument("parameter $" + name +
                                     " nests deeper than " +
                                     std::to_string(kMaxValueDepth) +
                                     " lists/maps");
    }
  }
  return Status::OK();
}

}  // namespace

Database::Database(EngineOptions options)
    : options_(options),
      tx_manager_(&store_),
      catalog_(&options_),
      engine_(std::make_unique<PgTriggerEngine>(this)),
      analyzer_(&catalog_, &store_, &options_) {
  // Incremental WHEN maintenance (docs/ivm.md): the store's mutation hooks
  // feed the manager; the catalog tears state down on drop / disable /
  // quarantine. States build lazily at the first compiled firing.
  store_.SetIvmManager(&ivm_);
  catalog_.SetIvmSink(&ivm_);
  // The CALL pgt.* procedures of the introspection tables.
  for (const IntrospectionTable& t : kIntrospectionTables) {
    if (t.procedure == nullptr) continue;
    procedures_.Register(
        t.procedure, t.columns,
        [this, &t](cypher::EvalContext&, const std::vector<Value>&,
                   const cypher::Row&) -> Result<std::vector<cypher::Row>> {
          std::vector<cypher::Row> out;
          for (std::vector<Value>& values : t.rows(*this)) {
            cypher::Row r;
            for (size_t i = 0; i < t.columns.size(); ++i) {
              r.Set(t.columns[i], std::move(values[i]));
            }
            out.push_back(std::move(r));
          }
          return out;
        });
  }
  if (options_.async_pool_size > 0) {
    async_ = std::make_unique<AsyncExecutor>(
        this, options_.async_pool_size, options_.async_queue_capacity);
    // Arm the snapshot substrate up front: AfterCommit pins one snapshot
    // per detached hand-off, and arming mid-stream would have to wait for
    // an idle writer.
    (void)store_.OpenSnapshot();
  }
}

Database::~Database() {
  ShutdownAsync();
  (void)JoinCheckpoint();
  if (wal_ != nullptr) (void)wal_->CloseClean();
}

void Database::ShutdownAsync() {
  if (async_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    async_->QuiesceHoldingWriterMu();
  }
  // Join OUTSIDE the interlock: a worker that saw a ready head before the
  // quiesce may still be blocked acquiring it. Between the quiesce and the
  // stop nothing can enqueue (the single logical writer is here).
  async_->Stop();
}

void Database::DrainAsync() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (async_ != nullptr) async_->QuiesceHoldingWriterMu();
  (void)JoinCheckpoint();
  // The pool's and the checkpoint's pins are gone: free what they held
  // instead of waiting for the next commit.
  store_.snapshots().Reclaim();
}

// --- Durability -------------------------------------------------------------

/// Private nested class: routes the recovered history into the enclosing
/// database's private replay methods.
class Database::ReplayHandler final : public wal::WalReplayHandler {
 public:
  explicit ReplayHandler(Database* db) : db_(db) {}
  Status OnSnapshot(wal::SnapshotImage&& img) override {
    return db_->RestoreSnapshotImage(std::move(img));
  }
  Status OnCommit(wal::WalCommit&& c) override { return db_->CommitReplay(c); }
  Status OnDdl(wal::WalDdl&& d) override { return db_->ApplyReplayedDdl(d); }

 private:
  Database* db_;
};

Result<std::unique_ptr<Database>> Database::Open(wal::WalOptions wal,
                                                 EngineOptions options) {
  auto db = std::make_unique<Database>(options);
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<wal::WalManager> mgr,
                       wal::WalManager::Open(std::move(wal)));
  PGT_RETURN_IF_ERROR(db->RecoverFromWal(*mgr));
  PGT_RETURN_IF_ERROR(mgr->StartAppending());
  // Only now does logging arm: recovery itself must never re-log the
  // history it is replaying.
  db->wal_ = std::move(mgr);
  db->wal_dicts_logged_.labels =
      static_cast<uint32_t>(db->store_.LabelDictSize());
  db->wal_dicts_logged_.rel_types =
      static_cast<uint32_t>(db->store_.RelTypeDictSize());
  db->wal_dicts_logged_.prop_keys =
      static_cast<uint32_t>(db->store_.PropKeyDictSize());
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path) {
  wal::WalOptions wal;
  wal.dir = path;
  return Open(std::move(wal));
}

Status Database::Close() {
  // Queued DETACHED work is part of the durable history the WAL promises:
  // drain it (and stop the workers) before the CLEAN marker is written.
  ShutdownAsync();
  (void)JoinCheckpoint();
  store_.snapshots().Reclaim();
  if (wal_ == nullptr) return Status::OK();
  return wal_->CloseClean();
}

Status Database::RecoverFromWal(wal::WalManager& wal) {
  ReplayHandler handler(this);
  in_recovery_ = true;
  Status st = wal.Recover(handler);
  in_recovery_ = false;
  return st;
}

Status Database::RestoreSnapshotImage(wal::SnapshotImage&& img) {
  std::vector<NodeRecord> nodes;
  nodes.reserve(img.nodes.size());
  for (wal::SnapshotNode& sn : img.nodes) {
    NodeRecord n;
    n.alive = sn.alive;
    n.labels = std::move(sn.labels);
    n.props = std::move(sn.props);
    nodes.push_back(std::move(n));
  }
  std::vector<RelRecord> rels;
  rels.reserve(img.rels.size());
  for (wal::SnapshotRel& sr : img.rels) {
    RelRecord r;
    r.alive = sr.alive;
    r.type = sr.type;
    r.src = sr.src;
    r.dst = sr.dst;
    r.props = std::move(sr.props);
    rels.push_back(std::move(r));
  }
  PGT_RETURN_IF_ERROR(store_.LoadForRecovery(img.labels, img.rel_types,
                                             img.prop_keys, std::move(nodes),
                                             std::move(rels)));

  // User indexes. Lookup, never Intern: the names were interned when the
  // original CREATE INDEX ran, so a miss means the image is inconsistent —
  // and interning here would silently shift the dense-id sequence replayed
  // records rely on.
  for (const wal::SnapshotIndexSpec& ix : img.indexes) {
    auto label = store_.LookupLabel(ix.label);
    auto prop = store_.LookupPropKey(ix.prop);
    if (!label.has_value() || !prop.has_value()) {
      return Status::IoError("snapshot index " + ix.label + "(" + ix.prop +
                             ") references a symbol missing from the "
                             "recovered dictionaries");
    }
    index::IndexSpec spec;
    spec.label = *label;
    spec.prop = *prop;
    spec.kind = static_cast<index::IndexKind>(ix.kind);
    spec.unique = ix.unique;
    spec.enforce_on_write = ix.enforce_on_write;
    PGT_RETURN_IF_ERROR(store_.CreateIndex(std::move(spec)).status());
  }

  // Schema (re-creates its PG-Key indexes; they were excluded from the
  // image for exactly that reason).
  if (img.schema_ddl.has_value()) {
    PGT_ASSIGN_OR_RETURN(schema::SchemaDef def,
                         schema::ParseSchemaDdl(*img.schema_ddl));
    AttachSchema(std::move(def));
  }

  // Triggers, in creation order; relative priority (seq order) is preserved
  // even though the absolute seq values renumber.
  for (const wal::SnapshotTrigger& t : img.triggers) {
    PGT_RETURN_IF_ERROR(ExecuteDdl(t.ddl).status());
    if (!t.enabled) {
      const auto all = catalog_.All();
      PGT_RETURN_IF_ERROR(catalog_.SetEnabled(all.back()->name, false));
    }
  }

  tx_manager_.RestoreCommitted(img.committed_count);
  clock_.AdvanceMicros(img.clock_micros - clock_.PeekMicros());
  return Status::OK();
}

Status Database::CommitReplay(const wal::WalCommit& c) {
  PGT_RETURN_IF_ERROR(wal::ApplyDictDelta(store_, c.dicts));
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx, tx_manager_.Begin());
  tx->SetReplayUnchecked(true);
  Status st = wal::ApplyWalCommit(*tx, c);
  if (!st.ok()) {
    RollbackAndRelease(std::move(tx));
    return st;
  }
  // Physical commit only: PublishCommit and index maintenance already ran
  // through the mutation path; trigger rounds must NOT run again (their
  // effects are part of the logged record).
  st = tx->Commit();
  if (!st.ok()) {
    tx_manager_.Release(std::move(tx));
    return st;
  }
  tx_manager_.Release(std::move(tx));
  // The logged counters are authoritative — replay must not drift them
  // (rolled-back transactions ticked the clock too, invisibly to the log).
  tx_manager_.RestoreCommitted(c.committed_after);
  clock_.AdvanceMicros(c.clock_after - clock_.PeekMicros());
  return Status::OK();
}

Status Database::ApplyReplayedDdl(const wal::WalDdl& d) {
  PGT_RETURN_IF_ERROR(wal::ApplyDictDelta(store_, d.dicts));
  switch (d.kind) {
    case wal::WalDdlKind::kTriggerDdl:
      return ExecuteDdl(d.text).status();
    case wal::WalDdlKind::kIndexDdl:
      return ExecuteIndexDdl(d.text).status();
    case wal::WalDdlKind::kAttachSchema: {
      PGT_ASSIGN_OR_RETURN(schema::SchemaDef def,
                           schema::ParseSchemaDdl(d.text));
      AttachSchema(std::move(def));
      return Status::OK();
    }
    case wal::WalDdlKind::kDetachSchema:
      AttachSchema(std::nullopt);
      return Status::OK();
  }
  return Status::IoError("unknown replayed DDL kind");
}

Status Database::LogCommit(Transaction& tx) {
  wal::WalCommit c = wal::BuildWalCommit(store_, tx.AccumulatedDelta());
  c.committed_after = tx_manager_.committed_count() + 1;
  c.clock_after = clock_.PeekMicros();
  c.dicts = wal::BuildDictDelta(store_, &wal_dicts_logged_);
  return wal_->AppendCommit(c);
}

Status Database::LogDdl(wal::WalDdlKind kind, std::string_view text) {
  if (wal_ == nullptr) return Status::OK();
  wal::WalDdl d;
  d.kind = kind;
  d.text = std::string(text);
  d.dicts = wal::BuildDictDelta(store_, &wal_dicts_logged_);
  return wal_->AppendDdl(d);
}

wal::SnapshotImage Database::CaptureSnapshotMeta(uint64_t first_live_seq) {
  wal::SnapshotImage img;
  img.first_live_seq = first_live_seq;
  img.wal_epoch = wal_->logged_epoch();
  img.committed_count = tx_manager_.committed_count();
  img.clock_micros = clock_.PeekMicros();

  // Full *live* dictionaries (not the snapshot's): DDL between commits can
  // intern names the epoch-pinned dictionaries have not absorbed yet, and
  // id continuity with post-checkpoint records needs every entry.
  img.labels.reserve(store_.LabelDictSize());
  for (size_t i = 0; i < store_.LabelDictSize(); ++i) {
    img.labels.push_back(store_.LabelName(static_cast<LabelId>(i)));
  }
  img.rel_types.reserve(store_.RelTypeDictSize());
  for (size_t i = 0; i < store_.RelTypeDictSize(); ++i) {
    img.rel_types.push_back(store_.RelTypeName(static_cast<RelTypeId>(i)));
  }
  img.prop_keys.reserve(store_.PropKeyDictSize());
  for (size_t i = 0; i < store_.PropKeyDictSize(); ++i) {
    img.prop_keys.push_back(store_.PropKeyName(static_cast<PropKeyId>(i)));
  }

  store_.indexes().ForEach([&](const index::PropertyIndex& idx) {
    const index::IndexSpec& spec = idx.spec();
    if (spec.schema_managed) return;  // AttachSchema recreates these
    wal::SnapshotIndexSpec out;
    out.label = store_.LabelName(spec.label);
    out.prop = store_.PropKeyName(spec.prop);
    out.kind = static_cast<uint8_t>(spec.kind);
    out.unique = spec.unique;
    out.enforce_on_write = spec.enforce_on_write;
    img.indexes.push_back(std::move(out));
  });

  if (schema_.has_value()) img.schema_ddl = schema_->ToDdl();

  for (const TriggerDef* t : catalog_.All()) {
    img.triggers.push_back(wal::SnapshotTrigger{t->ToDdl(), t->enabled});
  }
  return img;
}

Status Database::CheckpointNow() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A checkpoint should capture queued detached effects rather than park
  // them behind the fresh segment boundary.
  if (async_ != nullptr) async_->QuiesceHoldingWriterMu();
  // An earlier automatic checkpoint's outcome is moot: this one covers more.
  (void)JoinCheckpoint();
  PGT_RETURN_IF_ERROR(StartCheckpointLocked());
  Status st = JoinCheckpoint();
  store_.snapshots().Reclaim();  // the checkpoint's pin is released
  return st;
}

Status Database::StartCheckpointLocked() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "in-memory database has no WAL to checkpoint");
  }
  if (tx_manager_.HasActive()) {
    return Status::FailedPrecondition(
        "cannot checkpoint while a transaction is active");
  }
  if (checkpoint_.joinable()) {
    return Status::Internal("a checkpoint is already in flight");
  }
  // Between transactions the last logged commit is the last committed one,
  // and the rotation has synced it: the epoch pinned here is exactly the
  // durable prefix the new segment continues from.
  PGT_ASSIGN_OR_RETURN(uint64_t first_live_seq, wal_->RotateForSnapshot());
  Result<std::shared_ptr<const GraphSnapshot>> snap = OpenSnapshot();
  if (!snap.ok()) {
    wal_->SnapshotFailed();
    return snap.status();
  }
  checkpoint_done_.store(false, std::memory_order_relaxed);
  checkpoint_ = std::thread([this, meta = CaptureSnapshotMeta(first_live_seq),
                             pin = std::move(snap).value()]() mutable {
    Status st = wal_->WriteSnapshot(meta, [&pin](wal::SnapshotWriter& w) {
      return StreamRecords(*pin, w);
    });
    // Unpin before reporting: once joined, the writer's next reclamation
    // (the next commit, or CheckpointNow / DrainAsync / Close when idle)
    // frees the versions the pin held.
    pin.reset();
    checkpoint_status_ = std::move(st);
    checkpoint_done_.store(true, std::memory_order_release);
  });
  return Status::OK();
}

Status Database::JoinCheckpoint() {
  if (!checkpoint_.joinable()) return Status::OK();
  checkpoint_.join();
  Status st = std::move(checkpoint_status_);
  checkpoint_status_ = Status::OK();
  if (!st.ok()) wal_->SnapshotFailed();
  return st;
}

void Database::SetRuntime(std::unique_ptr<TriggerRuntime> runtime) {
  runtime_ = std::move(runtime);
}

cypher::EvalContext Database::MakeEvalContext(
    Transaction* tx, const Params* params, const cypher::TransitionEnv* env) {
  cypher::EvalContext ctx;
  ctx.tx = tx;
  ctx.view = StoreView::Live(store_);
  ctx.params = params != nullptr ? params : &kNoParams;
  ctx.clock = &clock_;
  ctx.transition = env;
  ctx.procedures = &procedures_;
  // One predicted branch per tick site when budgets are off: the context
  // only ever carries a budget pointer while a BudgetScope is armed.
  ctx.budget = budget_armed_ ? &budget_ : nullptr;
  return ctx;
}

Database::BudgetScope::BudgetScope(Database* db, bool fresh) : db_(db) {
  const EngineOptions& o = db->options_;
  if (o.statement_timeout_ms <= 0 && o.max_plan_steps <= 0) return;
  // Nested statements (trigger cascades) inherit the enclosing budget;
  // DETACHED activations (`fresh`) save it and arm their own.
  if (db->budget_armed_ && !fresh) return;
  saved_ = db->budget_;
  saved_armed_ = db->budget_armed_;
  db->budget_.Arm(o.max_plan_steps, o.statement_timeout_ms);
  db->budget_armed_ = true;
  armed_here_ = true;
}

Database::BudgetScope::~BudgetScope() {
  if (!armed_here_) return;
  db_->budget_ = saved_;
  db_->budget_armed_ = saved_armed_;
}

bool Database::degraded() const {
  return wal_ != nullptr && wal_->broken();
}

Status Database::DegradedError() const {
  return Status::FailedPrecondition(
      "database is in read-only degraded mode (WAL poisoned: " +
      wal_->poison_cause() + "); reads still work, writes are refused — "
      "reopen the database to recover to the last durable state");
}

Result<std::shared_ptr<const GraphSnapshot>> Database::OpenSnapshot() {
  if (!store_.snapshots().armed() && tx_manager_.HasActive()) {
    return Status::FailedPrecondition(
        "cannot arm the snapshot substrate while a transaction is active; "
        "open the first snapshot between transactions");
  }
  return store_.OpenSnapshot();
}

Result<cypher::QueryResult> Database::QueryAt(const GraphSnapshot& snapshot,
                                              std::string_view text,
                                              const Params& params) const {
  PGT_RETURN_IF_ERROR(CheckParamDepth(params));
  // Parse and compile per call: the plan cache and the frame pool are
  // writer-thread structures, while a program compiled here against the
  // snapshot's own dictionaries and index image is confined to this thread
  // (parsing and compiling are pure, execution allocates locally).
  PGT_ASSIGN_OR_RETURN(cypher::Query query, cypher::Parser::ParseQuery(text));
  if (!cypher::IsReadOnlyQuery(query)) {
    return Status::InvalidArgument(
        "QueryAt requires a read-only statement (MATCH/UNWIND/WITH/RETURN)");
  }
  cypher::EvalContext ctx;
  ctx.tx = nullptr;
  ctx.view = StoreView::Snapshot(snapshot);
  ctx.params = &params;
  ctx.clock = nullptr;      // clock functions would mutate shared state
  ctx.procedures = nullptr; // CALL is rejected above
  PGT_ASSIGN_OR_RETURN(
      const cypher::plan::PlanProgram program,
      cypher::plan::CompileQuery(query, cypher::plan::CompileEnv{}, ctx.view,
                                 /*epoch=*/0));
  cypher::plan::PlanExecutor exec(ctx, program.slot_names);
  return exec.Run(program.steps, exec.NewFrame());
}

Result<cypher::QueryResult> Database::RunReadOnly(
    const cypher::plan::PreparedStatement& stmt, const Params& params) {
  // Observable parity with the transactional path: the native engine's
  // statement counter still ticks (a read-only statement is processed, it
  // just cannot produce events — an empty delta's trigger round is a no-op
  // by definition, and there is nothing to commit or validate). When an
  // emulator runtime is active the transactional path never reaches the
  // native OnStatement, so the counter must not tick here either.
  if (runtime_ == nullptr) ++engine_->stats().statements;
  PGT_ASSIGN_OR_RETURN(std::shared_ptr<const cypher::plan::PlanProgram> prog,
                       CurrentProgram(stmt));
  cypher::EvalContext ctx = MakeEvalContext(nullptr, &params, nullptr);
  cypher::plan::PlanExecutor exec(ctx, prog->slot_names, &frame_pool_);
  return exec.Run(prog->steps, exec.NewFrame());
}

Result<std::unique_ptr<Transaction>> Database::BeginTx() {
  return tx_manager_.Begin();
}

Result<std::unique_ptr<Transaction>> Database::BeginAutonomousTx(
    const GraphDelta& activating) {
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx, BeginTx());
  for (const DeletedNodeImage& img : activating.deleted_nodes) {
    tx->InjectGhostNode(img);
  }
  for (const DeletedRelImage& img : activating.deleted_rels) {
    tx->InjectGhostRel(img);
  }
  return tx;
}

Status Database::CompileInto(cypher::plan::PreparedStatement* stmt,
                             uint64_t epoch) {
  PGT_ASSIGN_OR_RETURN(
      cypher::plan::PlanProgram program,
      cypher::plan::CompileQuery(stmt->query, cypher::plan::CompileEnv{},
                                 StoreView::Live(store_), epoch));
  stmt->program =
      std::make_shared<const cypher::plan::PlanProgram>(std::move(program));
  stmt->store = &store_;
  stmt->epoch = epoch;
  return Status::OK();
}

Result<std::shared_ptr<const cypher::plan::PlanProgram>>
Database::CurrentProgram(const cypher::plan::PreparedStatement& stmt) {
  const uint64_t epoch = PlanEpoch();
  if (stmt.epoch == epoch && stmt.store == &store_) return stmt.program;
  PGT_ASSIGN_OR_RETURN(
      cypher::plan::PlanProgram program,
      cypher::plan::CompileQuery(stmt.query, cypher::plan::CompileEnv{},
                                 StoreView::Live(store_), epoch));
  return std::make_shared<const cypher::plan::PlanProgram>(
      std::move(program));
}

Result<std::shared_ptr<cypher::plan::PreparedStatement>> Database::Prepare(
    std::string_view text) {
  return PrepareWith(CachedPlan(text), text);
}

Result<std::shared_ptr<cypher::plan::PreparedStatement>> Database::PrepareWith(
    std::shared_ptr<cypher::plan::PreparedStatement> stmt,
    std::string_view text) {
  const uint64_t epoch = PlanEpoch();
  if (stmt == nullptr) {
    PGT_ASSIGN_OR_RETURN(cypher::Query query,
                         cypher::Parser::ParseQuery(text));
    stmt = std::make_shared<cypher::plan::PreparedStatement>();
    stmt->query = std::move(query);
    stmt->read_only = cypher::IsReadOnlyQuery(stmt->query);
    PGT_RETURN_IF_ERROR(CompileInto(stmt.get(), epoch));
    plan_cache_.Put(text, stmt);
  } else if (stmt->epoch != epoch || stmt->store != &store_) {
    // DDL bumped the plan epoch: recompile from the cached AST (the parse
    // is still saved). Counted — silent recompiles made plan churn
    // invisible to benchmarks (CALL pgt.ivmStats()).
    ++adhoc_plan_recompiles_;
    PGT_RETURN_IF_ERROR(CompileInto(stmt.get(), epoch));
  }
  return stmt;
}

std::shared_ptr<cypher::plan::PreparedStatement> Database::CachedPlan(
    std::string_view text) {
  return plan_cache_.Get(text);
}

Result<cypher::QueryResult> Database::RunPreparedInTx(
    Transaction& tx, const cypher::plan::PreparedStatement& stmt,
    const Params& params) {
  // A stale program may hold index pointers freed by DDL. Normally Prepare
  // revalidated just before this call, but a registered procedure can
  // reach the catalogs mid-transaction (ExecuteTx prepares up front), so
  // re-check and recompile when stale.
  PGT_ASSIGN_OR_RETURN(std::shared_ptr<const cypher::plan::PlanProgram> prog,
                       CurrentProgram(stmt));
  tx.PushDeltaScope();
  cypher::EvalContext ctx = MakeEvalContext(&tx, &params, nullptr);
  cypher::plan::PlanExecutor exec(ctx, prog->slot_names, &frame_pool_);
  auto result = exec.Run(prog->steps, exec.NewFrame());
  GraphDelta delta = tx.PopDeltaScope();
  if (!result.ok()) return result.status();
  PGT_RETURN_IF_ERROR(runtime().OnStatement(tx, delta));
  tx.RecycleDelta(std::move(delta));
  return result;
}

void Database::AttachSchema(std::optional<schema::SchemaDef> schema) {
  // Outermost entry point (tests and recovery call it directly; nothing
  // calls it while holding the interlock): serialize against pool applies
  // and drain them — attaching a commit-time guard mid-queue would apply
  // it to detached work that semantically predates it.
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (async_ != nullptr) async_->QuiesceHoldingWriterMu();
  // Drop the PG-Key indexes that backed the previous schema — but only if
  // the index at (label, prop) is still the schema-managed one; a user
  // index that replaced it stays.
  for (const auto& [label, prop] : schema_key_indexes_) {
    const index::PropertyIndex* idx = store_.indexes().Find(label, prop);
    if (idx != nullptr && idx->spec().schema_managed) {
      (void)store_.DropIndex(label, prop);
    }
  }
  schema_key_indexes_.clear();
  schema_ = std::move(schema);
  if (!schema_.has_value()) {
    analyzer_.SetSchema(nullptr);
    LogSchemaChange();
    return;
  }
  // Index-backed PG-Key enforcement: one deferred unique index per key
  // property. Deferred (enforce_on_write = false) so a transaction may pass
  // through a temporarily-duplicated state; the commit guard reads
  // violations off the index postings (ValidateGraph's fast path) instead
  // of rescanning every node. A user-created index on the same
  // (label, prop) is left alone and serves the same purpose.
  for (const schema::NodeTypeSpec& t : schema_->node_types) {
    auto props = schema_->EffectiveProps(t);
    if (!props.ok()) continue;
    for (const schema::PropertySpec& p : props.value()) {
      if (!p.is_key) continue;
      index::IndexSpec spec;
      spec.label = store_.InternLabel(t.label);
      spec.prop = store_.InternPropKey(p.name);
      spec.kind = index::IndexKind::kHash;
      spec.unique = true;
      spec.enforce_on_write = false;
      spec.schema_managed = true;
      if (store_.indexes().Find(spec.label, spec.prop) != nullptr) continue;
      const LabelId label = spec.label;
      const PropKeyId prop = spec.prop;
      if (store_.CreateIndex(std::move(spec)).ok()) {
        schema_key_indexes_.emplace_back(label, prop);
      }
    }
  }
  analyzer_.SetSchema(schema_.has_value() ? &*schema_ : nullptr);
  LogSchemaChange();
}

std::string Database::TerminationCycleHint(const std::string& trigger_name) {
  analyzer_.EnsureSynced(PlanEpoch());
  return analyzer_.CycleHintFor(trigger_name);
}

void Database::LogSchemaChange() {
  // Best effort (AttachSchema is void): an append failure has already
  // poisoned the WAL, so later commits fail loudly rather than diverge.
  if (wal_ == nullptr) return;
  if (schema_.has_value()) {
    (void)LogDdl(wal::WalDdlKind::kAttachSchema, schema_->ToDdl());
  } else {
    (void)LogDdl(wal::WalDdlKind::kDetachSchema, "");
  }
}

Status Database::CommitWithTriggers(std::unique_ptr<Transaction> tx) {
  Status st = runtime().OnCommitPoint(*tx);
  if (!st.ok()) {
    RollbackAndRelease(std::move(tx));
    return st;
  }
  // PG-Schema commit guard: the post-trigger state must conform.
  if (schema_.has_value() && !tx->AccumulatedDelta().Empty()) {
    schema::ValidationReport report =
        schema::ValidateGraph(store_, *schema_);
    if (!report.ok()) {
      std::string first = report.violations.front().ToString();
      RollbackAndRelease(std::move(tx));
      return Status::ConstraintViolation(
          "commit violates attached PG-Schema '" + schema_->name +
          "': " + first +
          (report.violations.size() > 1
               ? " (+" + std::to_string(report.violations.size() - 1) +
                     " more)"
               : ""));
    }
  }
  // Write-ahead: the commit record must be in the log before the commit is
  // acknowledged. Append failure rolls back, keeping memory and log in
  // step; empty deltas (pure reads in a tx) log nothing.
  bool logged = false;
  if (wal_ != nullptr && !tx->AccumulatedDelta().Empty()) {
    st = LogCommit(*tx);
    if (!st.ok()) {
      RollbackAndRelease(std::move(tx));
      return st;
    }
    logged = true;
  }
  st = tx->Commit();
  if (!st.ok()) {
    // Appended but not committed: the log now claims a commit memory never
    // made. Poison it so nothing else is appended after the divergence.
    if (logged) {
      wal_->Poison("commit logged but refused in memory: " + st.message());
    }
    // A refused physical commit (fault injection at tx.commit /
    // snapshot.publish) leaves the transaction active with its undo log
    // intact — roll it back so the store returns to the last committed
    // state instead of leaking half a transaction into the live graph.
    RollbackAndRelease(std::move(tx));
    return st;
  }
  // The committed transaction no longer needs its delta: move it out for
  // AfterCommit instead of copying.
  GraphDelta total = tx->TakeAccumulatedDelta();
  tx_manager_.Release(std::move(tx));
  tx_manager_.NoteCommit();
  Status after = runtime().AfterCommit(total);
  // ... and once AfterCommit has consumed it, its buffers re-arm the next
  // transaction's accumulated delta.
  tx_manager_.RecycleDelta(std::move(total));
  // Auto-checkpoint once the configured commit budget is spent. A
  // finished background checkpoint is reaped first; one still running
  // makes this path skip. Best effort: a failed checkpoint leaves the WAL
  // chain fully usable, and the commit that reaps the failure retries.
  // Skipped while a transaction is active (DETACHED trigger commits nest
  // inside AfterCommit of an outer commit) and while the async pool has
  // work in flight (the public CheckpointNow quiesces; this opportunistic
  // path just waits for a quieter commit).
  if (after.ok() && wal_ != nullptr) {
    if (checkpoint_.joinable() &&
        checkpoint_done_.load(std::memory_order_acquire)) {
      (void)JoinCheckpoint();
    }
    if (!checkpoint_.joinable() && wal_->ShouldSnapshot() &&
        !tx_manager_.HasActive() && (async_ == nullptr || async_->Idle())) {
      (void)StartCheckpointLocked();
    }
  }
  return after;
}

void Database::RollbackAndRelease(std::unique_ptr<Transaction> tx) {
  if (tx == nullptr) return;
  if (tx->active()) {
    // Rollback failures indicate a bug in the undo log; surface loudly in
    // debug builds, tolerate in release (the store may be inconsistent).
    Status st = tx->Rollback();
    (void)st;
  }
  tx_manager_.Release(std::move(tx));
}

Result<cypher::QueryResult> Database::ExecuteDdl(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(TriggerDdl ddl, TriggerDdlParser::Parse(text));
  // Catalog mutation fence: drain the async pool first, so DROP/DISABLE
  // never races a queued activation — queued work runs to completion under
  // the pre-DDL catalog, exactly as the serial drain would have ordered it
  // (docs/async.md). During WAL recovery the pool is empty and this is a
  // no-op.
  if (async_ != nullptr) async_->QuiesceHoldingWriterMu();
  // Degraded mode refuses catalog mutations too: LogDdl would fail after
  // the catalog changed, diverging memory from the durable history.
  if (degraded()) return DegradedError();
  switch (ddl.kind) {
    case TriggerDdl::Kind::kCreate: {
      const std::string name = ddl.def.name;
      PGT_RETURN_IF_ERROR(catalog_.Install(std::move(ddl.def)));
      analyzer_.NoteInstall(name, PlanEpoch());
      // Replayed DDL was legal when logged; recovery must restore the
      // durable catalog verbatim, so the reject policy only applies to
      // fresh CREATEs.
      if (options_.termination_policy == TerminationPolicy::kReject &&
          !in_recovery_) {
        const std::vector<std::string> cycle =
            analyzer_.UnguardedCycleThrough(name);
        if (!cycle.empty()) {
          (void)catalog_.Drop(name);
          analyzer_.NoteDrop(name);
          return Status::InvalidArgument(
              "CREATE TRIGGER '" + name +
              "' rejected: introduces unguarded triggering cycle " +
              Join(cycle, " -> ") +
              " (termination_policy = reject; a cycle member lacks a "
              "WHEN guard — see SHOW TRIGGER ANALYSIS)");
        }
      }
      break;
    }
    case TriggerDdl::Kind::kDrop:
      PGT_RETURN_IF_ERROR(catalog_.Drop(ddl.name));
      analyzer_.NoteDrop(ddl.name);
      break;
    case TriggerDdl::Kind::kEnable:
      PGT_RETURN_IF_ERROR(catalog_.SetEnabled(ddl.name, true));
      analyzer_.NoteSetEnabled(ddl.name, PlanEpoch());
      break;
    case TriggerDdl::Kind::kDisable:
      PGT_RETURN_IF_ERROR(catalog_.SetEnabled(ddl.name, false));
      analyzer_.NoteSetEnabled(ddl.name, PlanEpoch());
      break;
  }
  PGT_RETURN_IF_ERROR(LogDdl(wal::WalDdlKind::kTriggerDdl, text));
  return cypher::QueryResult{};
}

Result<cypher::QueryResult> Database::ExecuteIndexDdl(std::string_view text) {
  PGT_ASSIGN_OR_RETURN(index::IndexDdl ddl,
                       index::IndexDdlParser::Parse(text));
  // Same fence as trigger DDL: index create/drop invalidates compiled
  // trigger plans and frees live index structures a queued apply could
  // touch.
  if (async_ != nullptr) async_->QuiesceHoldingWriterMu();
  if (degraded()) return DegradedError();
  switch (ddl.kind) {
    case index::IndexDdl::Kind::kCreate: {
      index::IndexSpec spec;
      spec.label = store_.InternLabel(ddl.label);
      spec.prop = store_.InternPropKey(ddl.prop);
      spec.kind = ddl.layout;
      spec.unique = ddl.unique;
      spec.enforce_on_write = true;
      PGT_RETURN_IF_ERROR(store_.CreateIndex(std::move(spec)).status());
      PGT_RETURN_IF_ERROR(LogDdl(wal::WalDdlKind::kIndexDdl, text));
      return cypher::QueryResult{};
    }
    case index::IndexDdl::Kind::kDrop: {
      auto label = store_.LookupLabel(ddl.label);
      auto prop = store_.LookupPropKey(ddl.prop);
      if (!label.has_value() || !prop.has_value()) {
        return Status::NotFound("no index on :" + ddl.label + "(" +
                                ddl.prop + ")");
      }
      PGT_RETURN_IF_ERROR(store_.DropIndex(*label, *prop));
      PGT_RETURN_IF_ERROR(LogDdl(wal::WalDdlKind::kIndexDdl, text));
      return cypher::QueryResult{};
    }
  }
  return Status::Internal("unhandled index DDL kind");
}

Result<cypher::QueryResult> Database::Execute(std::string_view text,
                                              const Params& params) {
  PGT_RETURN_IF_ERROR(CheckParamDepth(params));
  Result<cypher::QueryResult> result = [&] {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return ExecuteNested(text, params);
  }();
  // Backpressure runs with the interlock RELEASED so the pool's workers
  // can apply through it while the writer waits.
  if (async_ != nullptr) async_->StatementBoundary();
  return result;
}

Result<cypher::QueryResult> Database::ExecuteNested(std::string_view text,
                                                    const Params& params) {
  // A plan-cache hit proves the text is plain Cypher (DDL and SHOW never
  // enter the cache), so repeated statements skip even the single
  // classification pass. Misses classify once and route; SHOW takes no
  // async fence and answers in degraded mode.
  std::shared_ptr<cypher::plan::PreparedStatement> stmt = CachedPlan(text);
  if (stmt == nullptr) {
    switch (ClassifyStatement(text)) {
      case StatementKind::kTriggerDdl:
        return ExecuteDdl(text);
      case StatementKind::kIndexDdl:
        return ExecuteIndexDdl(text);
      case StatementKind::kShow:
        return ExecuteShow(*this, text);
      case StatementKind::kCypher:
        break;
    }
  }
  PGT_ASSIGN_OR_RETURN(stmt, PrepareWith(std::move(stmt), text));
  // The statement budget covers everything downstream: the statement
  // itself, every trigger it cascades into, and the commit-point round.
  BudgetScope budget(this);
  // Read-only statements skip transaction setup entirely: no delta scope,
  // no trigger round, no commit (visible in BENCH_value as removed
  // allocations on the read path).
  if (stmt->read_only) return RunReadOnly(*stmt, params);
  // Degraded mode: a poisoned WAL can never log another commit, so refuse
  // writes up front with the cause instead of failing deep in the commit.
  if (degraded()) return DegradedError();
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx, BeginTx());
  auto result = RunPreparedInTx(*tx, *stmt, params);
  if (!result.ok()) {
    RollbackAndRelease(std::move(tx));
    return result.status();
  }
  PGT_RETURN_IF_ERROR(CommitWithTriggers(std::move(tx)));
  return result;
}

Result<std::vector<cypher::QueryResult>> Database::ExecuteTx(
    const std::vector<std::string>& statements, const Params& params) {
  PGT_RETURN_IF_ERROR(CheckParamDepth(params));
  Result<std::vector<cypher::QueryResult>> result = [&] {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return ExecuteTxLocked(statements, params);
  }();
  if (async_ != nullptr) async_->StatementBoundary();
  return result;
}

Result<std::vector<cypher::QueryResult>> Database::ExecuteTxLocked(
    const std::vector<std::string>& statements, const Params& params) {
  std::vector<std::shared_ptr<cypher::plan::PreparedStatement>> prepared;
  prepared.reserve(statements.size());
  for (const std::string& s : statements) {
    switch (ClassifyStatement(s)) {
      case StatementKind::kTriggerDdl:
        return Status::InvalidArgument(
            "trigger DDL is not allowed inside a multi-statement "
            "transaction");
      case StatementKind::kIndexDdl:
        return Status::InvalidArgument(
            "index DDL is not allowed inside a multi-statement transaction");
      case StatementKind::kShow:
        return Status::InvalidArgument(
            "SHOW is not allowed inside a multi-statement transaction");
      case StatementKind::kCypher:
        break;
    }
    PGT_ASSIGN_OR_RETURN(
        std::shared_ptr<cypher::plan::PreparedStatement> stmt, Prepare(s));
    prepared.push_back(std::move(stmt));
  }
  if (degraded()) return DegradedError();
  PGT_ASSIGN_OR_RETURN(std::unique_ptr<Transaction> tx, BeginTx());
  std::vector<cypher::QueryResult> results;
  for (const auto& stmt : prepared) {
    // Each statement of the transaction gets its own budget (matching the
    // one-statement Execute path); the commit round below gets another.
    BudgetScope budget(this);
    auto result = RunPreparedInTx(*tx, *stmt, params);
    if (!result.ok()) {
      RollbackAndRelease(std::move(tx));
      return result.status();
    }
    results.push_back(std::move(result).value());
  }
  BudgetScope commit_budget(this);
  PGT_RETURN_IF_ERROR(CommitWithTriggers(std::move(tx)));
  return results;
}

}  // namespace pgt
