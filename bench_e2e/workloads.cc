#include "workloads.h"

#include <deque>
#include <filesystem>

#include "src/common/macros.h"
#include "src/covid/generator.h"
#include "src/covid/triggers.h"
#include "src/cypher/statement_classifier.h"
#include "src/trigger/async_executor.h"

namespace pgt::e2e {

namespace {

Result<int64_t> CountOf(Database& db, const std::string& text) {
  PGT_ASSIGN_OR_RETURN(cypher::QueryResult r, db.Execute(text));
  if (r.rows.size() != 1 || r.rows[0].size() != 1) {
    return Status::Internal("count query returned no single value: " + text);
  }
  return r.rows[0][0].int_value();
}

uint64_t Fired(Database& db, const std::string& trigger) {
  auto it = db.stats().per_trigger.find(trigger);
  return it == db.stats().per_trigger.end() ? 0 : it->second.fired;
}

Status Expect(bool ok, const std::string& what) {
  return ok ? Status::OK() : Status::FailedPrecondition("oracle: " + what);
}

Status ExecAll(Database& db, const std::vector<std::string>& statements) {
  for (const std::string& s : statements) {
    PGT_RETURN_IF_ERROR(db.Execute(s).status());
  }
  return Status::OK();
}

std::string Num(double v) { return std::to_string(v); }
std::string Str(const std::string& s) { return "\"" + s + "\""; }

// --- covid_surge -------------------------------------------------------------
//
// The Section 6.2 scenario at scale: one closed-loop writer, in-memory, no
// readers during the window, no async pool. The four event streams of
// src/covid/workload.cc (statement texts reproduced below so the traced
// writer can drive them step by step) plus discharges that keep the ICU
// population, and so every per-op cost, flat.

class CovidSurge final : public Workload {
 public:
  Status Setup(const SetupEnv& env) override {
    rng_ = Rng(env.seed * 0x9E3779B97F4A7C15ull + 11);
    db_ = std::make_unique<Database>(options_);
    InstallRuntime(env);
    covid::GeneratorOptions gen;
    // One fixed dataset; the seed picks the event stream. Sequencing cost
    // depends on the generated graph, so a graph per seed would spread
    // throughput across seeds by more than a regression bound.
    gen.seed = kDatasetSeed;
    gen.patients = env.smoke ? 400 : 20000;
    gen.sequences = env.smoke ? 600 : 30000;
    gen.icu_beds_min = kBedsMin;
    gen.icu_beds_max = kBedsMax;
    covid::CovidDataset data = covid::GenerateCovidData(db_->store(), gen);
    const PropKeyId name = db_->store().InternPropKey("name");
    for (NodeId m : data.mutations) {
      mutation_names_.emplace_back(
          db_->store().GetNodeProp(m, name).string_value());
    }
    patients_ = gen.patients;
    sequences_ = gen.sequences;
    PGT_RETURN_IF_ERROR(ExecAll(*db_, {"CREATE INDEX ON :Hospital(name)",
                                       "CREATE INDEX ON :Lineage(name)",
                                       "CREATE INDEX ON :Mutation(name)"}));
    PGT_RETURN_IF_ERROR(covid::InstallPaperTriggers(
        *db_, {"NewCriticalMutation", "NewCriticalLineage",
               "WhoDesignationChange", "IcuPatientsOverThreshold",
               "IcuPatientIncrease", "IcuPatientMove"}));
    nodes_ = db_->store().NodeCount();
    rels_ = db_->store().RelCount();
    return WarmUp(env.smoke ? 30 : 200);
  }

  /// Ops come in shuffled decks of fixed proportions, so every run sees
  /// the same mix: sequencing events carry nearly all writer time, and a
  /// drawn share would move throughput by its sampling noise. The mix also
  /// puts the median op inside the discharges rather than on a boundary
  /// between op kinds. Once kOutstandingWaves waves are in the ICU, wave
  /// cards alternate discharge and admission.
  WriterOp NextOp() override {
    if (deck_pos_ == deck_.size()) {
      deck_.clear();
      for (const auto& [kind, n] : kDeck) deck_.insert(deck_.end(), n, kind);
      for (size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.NextBelow(i)]);
      }
      deck_pos_ = 0;
    }
    switch (deck_[deck_pos_++]) {
      case Kind::kMutation:
        return Mutation();
      case Kind::kSequence:
        return Sequence();
      case Kind::kDesignation:
        return Designation();
      case Kind::kWave:
        break;
    }
    return waves_.size() >= kOutstandingWaves ? Discharge() : Admit();
  }

  Status Oracle() override {
    PGT_ASSIGN_OR_RETURN(int64_t alerts,
                         CountOf(*db_, "MATCH (a:Alert) RETURN COUNT(*) AS n"));
    PGT_RETURN_IF_ERROR(Expect(alerts > 0, "covid_surge raised no alerts"));
    PGT_RETURN_IF_ERROR(Expect(Fired(*db_, "IcuPatientMove") > 0,
                               "no overflow patient was relocated to Meyer"));
    PGT_ASSIGN_OR_RETURN(
        int64_t icu,
        CountOf(*db_, "MATCH (p:IcuPatient) RETURN COUNT(*) AS n"));
    return Expect(icu <= static_cast<int64_t>(kOutstandingWaves) * kWave,
                  "discharges did not balance admissions");
  }

  void Describe(Meta* meta) const override {
    (*meta)["patients"] = Num(patients_);
    (*meta)["sequences"] = Num(sequences_);
    (*meta)["nodes"] = Num(static_cast<double>(nodes_));
    (*meta)["relationships"] = Num(static_cast<double>(rels_));
    (*meta)["icu_waves_outstanding"] = Num(kOutstandingWaves);
    (*meta)["writer"] = Str("closed loop, 1 thread, in-memory");
  }

 private:
  enum class Kind : uint8_t { kMutation, kSequence, kDesignation, kWave };
  static constexpr std::pair<Kind, int> kDeck[] = {{Kind::kMutation, 5},
                                                   {Kind::kDesignation, 3},
                                                   {Kind::kWave, 8},
                                                   {Kind::kSequence, 4}};
  static constexpr uint64_t kDatasetSeed = 1;
  static constexpr size_t kOutstandingWaves = 4;
  static constexpr int kWave = 12;
  static constexpr int kBedsMin = 20;
  static constexpr int kBedsMax = 30;

  std::string Lineage() {
    return "B.1." + std::to_string(1 + rng_.NextBelow(8));
  }

  WriterOp Mutation() {
    static const char* kProteins[] = {"Spike", "ORF1a", "ORF1b", "N"};
    WriterOp op;
    const std::string name = std::string(kProteins[rng_.NextBelow(4)]) +
                             ":X" + std::to_string(next_mutation_++);
    op.params["name"] = Value::String(name);
    op.params["protein"] = Value::String(name.substr(0, name.find(':')));
    if (rng_.NextBool(0.3)) {
      op.statements = {
          "MATCH (c:CriticalEffect) WITH c LIMIT 1 "
          "CREATE (m:Mutation {name: $name, protein: $protein}) "
          "CREATE (m)-[:Risk]->(c)"};
    } else {
      op.statements = {"CREATE (:Mutation {name: $name, protein: $protein})"};
    }
    mutation_names_.push_back(name);
    return op;
  }

  WriterOp Sequence() {
    WriterOp op;
    op.params["accession"] =
        Value::String("EPI_E2E_" + std::to_string(next_sequence_++));
    op.params["lineage"] = Value::String(Lineage());
    op.params["mutation"] = Value::String(
        mutation_names_[rng_.NextBelow(mutation_names_.size())]);
    op.statements = {
        "MATCH (l:Lineage {name: $lineage}) "
        "MATCH (m:Mutation {name: $mutation}) "
        "MATCH (p:Patient) WITH l, m, p LIMIT 1 "
        "CREATE (s:Sequence {accession: $accession, collection: DATE()}) "
        "CREATE (p)-[:HasSample]->(s) "
        "CREATE (m)-[:FoundIn]->(s) "
        "CREATE (s)-[:BelongsTo]->(l)"};
    return op;
  }

  WriterOp Designation() {
    static const char* kWho[] = {"Alpha", "Beta", "Gamma", "Delta",
                                 "Omicron"};
    WriterOp op;
    op.params["lineage"] = Value::String(Lineage());
    op.params["who"] = Value::String(kWho[rng_.NextBelow(5)]);
    op.statements = {
        "MATCH (l:Lineage {name: $lineage}) SET l.whoDesignation = $who"};
    return op;
  }

  WriterOp Admit() {
    WriterOp op;
    const int64_t base = 1'000'000 + next_wave_++ * kWave;
    waves_.push_back(base);
    op.params["hospital"] = Value::String("Sacco");
    op.params["n"] = Value::Int(kWave);
    op.params["base"] = Value::Int(base);
    op.statements = {
        "MATCH (h:Hospital {name: $hospital}) "
        "UNWIND RANGE(1, $n) AS i "
        "CREATE (p:Patient:HospitalizedPatient:IcuPatient "
        "{ssn: 'WSSN' + toString($base + i), "
        " name: 'WavePatient' + toString($base + i), sex: 'F', "
        " vaccinated: 2, id: $base + i, prognosis: 'severe', "
        " admission: DATE()}) "
        "CREATE (p)-[:TreatedAt]->(h)"};
    return op;
  }

  WriterOp Discharge() {
    WriterOp op;
    const int64_t base = waves_.front();
    waves_.pop_front();
    op.params["lo"] = Value::Int(base + 1);
    op.params["hi"] = Value::Int(base + kWave);
    op.statements = {
        "MATCH (p:IcuPatient) WHERE p.id >= $lo AND p.id <= $hi "
        "DETACH DELETE p"};
    return op;
  }

  Rng rng_{1};
  std::vector<std::string> mutation_names_;
  std::deque<int64_t> waves_;
  std::vector<Kind> deck_;
  size_t deck_pos_ = 0;
  int64_t next_mutation_ = 0;
  int64_t next_sequence_ = 0;
  int64_t next_wave_ = 0;
  int patients_ = 0;
  int sequences_ = 0;
  size_t nodes_ = 0;
  size_t rels_ = 0;
};

// --- fraud_stream ------------------------------------------------------------
//
// The full production stack under an open-loop event stream: durable WAL
// (fsync, group commit, auto-checkpoint), the async DETACHED pool, armed
// budgets, the circuit breaker, termination analysis, and IVM, running the
// examples/fraud_detection.cc triggers plus one rarely-firing DETACHED
// monitor whose read-only WHEN the pool prefilters. Structuring reads the
// batch through `UNWIND NEWRELS`: the example's relationship-pattern form
// `(:Account)-[t:NEWRELS]-(:Account)` matches nothing on this engine, so
// it never fires.

constexpr const char* kFraudTriggers[] = {
    R"(CREATE TRIGGER LargeTransfer
AFTER CREATE
ON 'Transfer'
FOR EACH RELATIONSHIP
WHEN NEW.amount > 50000
BEGIN
  CREATE (:FraudAlert {kind: 'large-transfer', amount: NEW.amount,
                       at: DATETIME()})
END)",
    R"(CREATE TRIGGER Structuring
ONCOMMIT CREATE
ON 'Transfer'
FOR ALL RELATIONSHIPS
WHEN
  UNWIND NEWRELS AS t
  WITH t WHERE t.amount < 10000
  WITH COUNT(t) AS small
  WHERE small >= 10
BEGIN
  CREATE (:FraudAlert {kind: 'structuring', count: small, at: DATETIME()})
END)",
    R"(CREATE TRIGGER PropagateRisk
AFTER SET
ON 'Account'.'risk'
FOR EACH NODE
WHEN NEW.risk >= 2 AND (OLD.risk IS NULL OR OLD.risk < 2)
BEGIN
  MATCH (NEW)-[:Transfer]->(next:Account)
  WHERE next.risk IS NULL OR next.risk < NEW.risk - 1
  SET next.risk = NEW.risk - 1
END)",
    R"(CREATE TRIGGER AuditAlert
DETACHED CREATE
ON 'FraudAlert'
FOR EACH NODE
BEGIN
  CREATE (:AuditEntry {kind: NEW.kind, logged: DATETIME()})
END)",
    // The benchmark's monitor: its WHEN reads only values fixed at the
    // activating commit (endpoint branches, the amount), so the pool's
    // snapshot prefilter is exact and the outcome does not depend on when
    // the pool applies it. It reads the endpoints through startNode/endNode:
    // the equivalent `MATCH (a:Account)-[NEW]->(b:Account)` form is
    // evaluated on the snapshot as a scan of every account.
    R"(CREATE TRIGGER BranchMonitor
DETACHED CREATE
ON 'Transfer'
FOR EACH RELATIONSHIP
WHEN NEW.amount > 15000 AND startNode(NEW).branch = endNode(NEW).branch
BEGIN
  CREATE (:Watch {amount: NEW.amount})
END)",
};

class FraudStream final : public Workload {
 public:
  Status Setup(const SetupEnv& env) override {
    rng_ = Rng(env.seed * 0x9E3779B97F4A7C15ull + 23);
    accounts_ = env.smoke ? 2000 : 100000;
    wal_.dir = env.dir + "/wal";
    std::error_code ec;
    std::filesystem::remove_all(wal_.dir, ec);
    wal_.fsync = true;
    wal_.group_size = kGroupSize;
    wal_.snapshot_interval = kCheckpointInterval;
    options_.async_pool_size = 1;
    options_.statement_timeout_ms = 60'000;
    options_.max_plan_steps = 1'000'000'000;
    options_.quarantine_threshold = 3;
    options_.termination_policy = TerminationPolicy::kWarn;
    options_.use_ivm = true;
    wal::WalOptions w = wal_;
    if (env.traced) {
      vfs_ = std::make_unique<TracingVfs>(wal::Vfs::Posix());
      w.vfs = vfs_.get();
    }
    PGT_ASSIGN_OR_RETURN(db_, Database::Open(w, options_));
    InstallRuntime(env);
    constexpr int64_t kBatch = 10000;
    for (int64_t lo = 0; lo < accounts_; lo += kBatch) {
      Params p;
      p["lo"] = Value::Int(lo);
      p["hi"] = Value::Int(std::min(lo + kBatch, accounts_) - 1);
      PGT_RETURN_IF_ERROR(
          db_->Execute("UNWIND RANGE($lo, $hi) AS i "
                       "CREATE (:Account {iban: 'AC' + toString(i), "
                       "risk: 0, branch: i % 100})",
                       p)
              .status());
    }
    // Indexed after the bulk load: one backfill instead of a versioned
    // posting update per created account.
    PGT_RETURN_IF_ERROR(
        db_->Execute("CREATE UNIQUE INDEX ON :Account(iban)").status());
    // Two base transfers out of every account, before any trigger exists.
    for (int round = 0; round < 2; ++round) {
      const int64_t mul = 7919 + 2 * static_cast<int64_t>(rng_.NextBelow(500));
      const int64_t add = static_cast<int64_t>(rng_.NextBelow(accounts_));
      for (int64_t lo = 0; lo < accounts_; lo += kBatch) {
        Params p;
        p["lo"] = Value::Int(lo);
        p["hi"] = Value::Int(std::min(lo + kBatch, accounts_) - 1);
        p["mul"] = Value::Int(mul);
        p["add"] = Value::Int(add);
        p["n"] = Value::Int(accounts_);
        PGT_RETURN_IF_ERROR(
            db_->Execute(
                   "UNWIND RANGE($lo, $hi) AS i "
                   "WITH i, 'AC' + toString(i) AS src, "
                   "'AC' + toString((i * $mul + $add) % $n) AS dst "
                   "MATCH (a:Account {iban: src}) "
                   "MATCH (b:Account {iban: dst}) "
                   "CREATE (a)-[:Transfer {amount: 100 + (i * 37) % 9000}]->(b)",
                   p)
                .status());
      }
    }
    for (const char* ddl : kFraudTriggers) {
      PGT_RETURN_IF_ERROR(db_->Execute(ddl).status());
    }
    PGT_RETURN_IF_ERROR(db_->CheckpointNow());
    nodes_ = db_->store().NodeCount();
    rels_ = db_->store().RelCount();
    PGT_RETURN_IF_ERROR(WarmUp(env.smoke ? 100 : 300));
    db_->DrainAsync();
    // Every window starts right after a checkpoint, so it holds the same
    // number of auto-checkpoint stalls on every seed.
    return db_->CheckpointNow();
  }

  double open_loop_rate() const override { return kRate; }

  WriterOp NextOp() override {
    const double r = rng_.NextDouble();
    if (r < 0.80) return Transfer();
    if (r < 0.90) return Settlement();
    if (r < 0.95) return Flag();
    if (flagged_.empty()) return Transfer();
    return Clear();
  }

  void Quiesce() override { db_->DrainAsync(); }

  Status Oracle() override {
    PGT_ASSIGN_OR_RETURN(
        int64_t alerts,
        CountOf(*db_, "MATCH (f:FraudAlert) RETURN COUNT(*) AS n"));
    PGT_ASSIGN_OR_RETURN(
        int64_t audits,
        CountOf(*db_, "MATCH (e:AuditEntry) RETURN COUNT(*) AS n"));
    PGT_RETURN_IF_ERROR(Expect(alerts > 0, "fraud_stream raised no alerts"));
    PGT_RETURN_IF_ERROR(Expect(
        alerts == audits, "AuditEntry count " + std::to_string(audits) +
                              " != FraudAlert count " +
                              std::to_string(alerts)));
    const AsyncPoolStats s = db_->async()->Stats();
    PGT_RETURN_IF_ERROR(Expect(s.rejected == 0 && s.shed == 0,
                               "the async pool dropped activations"));
    PGT_RETURN_IF_ERROR(Expect(db_->catalog().Quarantined().empty(),
                               "a trigger was quarantined"));
    PGT_RETURN_IF_ERROR(Expect(Fired(*db_, "Structuring") > 0,
                               "Structuring never fired"));
    return Expect(Fired(*db_, "PropagateRisk") > 0,
                  "PropagateRisk never fired");
  }

  std::optional<wal::WalOptions> DurableWal() const override { return wal_; }

  void Describe(Meta* meta) const override {
    (*meta)["accounts"] = Num(static_cast<double>(accounts_));
    (*meta)["nodes"] = Num(static_cast<double>(nodes_));
    (*meta)["relationships"] = Num(static_cast<double>(rels_));
    (*meta)["rate_per_s"] = Num(kRate);
    (*meta)["writer"] = Str("open loop, 1 thread, durable");
    (*meta)["flush_policy"] =
        Str("fsync on, group commit " + std::to_string(kGroupSize) +
            ", auto-checkpoint every " + std::to_string(kCheckpointInterval) +
            " commits");
    (*meta)["async_pool_size"] = Num(options_.async_pool_size);
  }

 private:
  static constexpr double kRate = 200;
  static constexpr uint32_t kGroupSize = 8;
  static constexpr uint64_t kCheckpointInterval = 1000;

  std::string Iban() {
    return "AC" + std::to_string(rng_.NextBelow(accounts_));
  }

  WriterOp Transfer() {
    WriterOp op;
    op.params["from"] = Value::String(Iban());
    op.params["to"] = Value::String(Iban());
    op.params["amount"] = Value::Int(rng_.NextBool(0.03)
                                         ? rng_.NextInRange(50001, 90000)
                                         : rng_.NextInRange(100, 20000));
    op.statements = {
        "MATCH (a:Account {iban: $from}), (b:Account {iban: $to}) "
        "CREATE (a)-[:Transfer {amount: $amount, at: DATETIME()}]->(b)"};
    return op;
  }

  /// Twelve sub-threshold transfers settled in one transaction, amounts
  /// inlined as literals like the example's batch: the distinct texts
  /// overflow the plan cache.
  WriterOp Settlement() {
    WriterOp op;
    op.params["a"] = Value::String(Iban());
    op.params["b"] = Value::String(Iban());
    for (int i = 0; i < 12; ++i) {
      op.statements.push_back(
          "MATCH (a:Account {iban: $a}), (b:Account {iban: $b}) "
          "CREATE (a)-[:Transfer {amount: " +
          std::to_string(rng_.NextInRange(1000, 9999)) +
          ", at: DATETIME()}]->(b)");
    }
    return op;
  }

  WriterOp Flag() {
    WriterOp op;
    const std::string iban = Iban();
    flagged_.push_back(iban);
    op.params["iban"] = Value::String(iban);
    op.statements = {"MATCH (a:Account {iban: $iban}) SET a.risk = 3"};
    return op;
  }

  /// Clears the oldest flag and the two hops its cascade can have reached,
  /// so the risky set, and with it the cascade fan-out, stays bounded.
  WriterOp Clear() {
    WriterOp op;
    op.params["iban"] = Value::String(flagged_.front());
    flagged_.pop_front();
    op.statements = {
        "MATCH (a:Account {iban: $iban}) SET a.risk = 0",
        "MATCH (a:Account {iban: $iban})-[:Transfer]->(n:Account) "
        "SET n.risk = 0",
        "MATCH (a:Account {iban: $iban})-[:Transfer]->(:Account)"
        "-[:Transfer]->(n:Account) SET n.risk = 0"};
    return op;
  }

  Rng rng_{1};
  wal::WalOptions wal_;
  int64_t accounts_ = 0;
  std::deque<std::string> flagged_;
  size_t nodes_ = 0;
  size_t rels_ = 0;
};

// --- snapshot_analytics ------------------------------------------------------
//
// Writes beside reads: one closed-loop writer places orders against the
// examples/supply_chain.cc triggers over supplier chains of depth 4, while
// two closed-loop readers pin a fresh snapshot per request and check a
// per-chain stock-conservation invariant a torn read would break. Each
// chain has a ledger node the order/delivery statements update in the same
// transaction as the stock they move, so on any consistent snapshot
//   sum(stock of the chain's warehouses) == base + delivered - ordered.

constexpr const char* kSupplyTriggers[] = {
    R"(CREATE TRIGGER NormalizeOrder
BEFORE CREATE
ON 'Order'
FOR EACH NODE
WHEN NEW.priority IS NULL
BEGIN
  SET NEW.priority = 3
END)",
    R"(CREATE TRIGGER FulfillOrder
AFTER CREATE
ON 'Order'
FOR EACH NODE
WHEN MATCH (w:Warehouse {name: NEW.warehouse})
BEGIN
  SET w.stock = w.stock - NEW.quantity
END)",
    R"(CREATE TRIGGER Restock
AFTER SET
ON 'Warehouse'.'stock'
FOR EACH NODE
WHEN
  MATCH (NEW)-[:SuppliedBy]->(s:Warehouse)
  WHERE NEW.stock < 5 AND s.stock >= 20
BEGIN
  SET s.stock = s.stock - 20
  SET NEW.stock = NEW.stock + 20
END)",
};

constexpr const char* kInvariantQuery =
    "MATCH (c:Chain {id: $chain})<-[:InChain]-(w:Warehouse) "
    "RETURN c.base + c.delivered - c.ordered AS expected, "
    "SUM(w.stock) AS actual";

class SnapshotAnalytics final : public Workload {
 public:
  Status Setup(const SetupEnv& env) override {
    rng_ = Rng(env.seed * 0x9E3779B97F4A7C15ull + 37);
    chains_ = env.smoke ? 40 : 1000;
    db_ = std::make_unique<Database>(options_);
    InstallRuntime(env);
    debt_.assign(static_cast<size_t>(chains_), 0);
    // Stocks in the middle of a chain sit at 20k + r with r < 5, so every
    // 20-unit restock step leaves them either able to give again or low
    // enough to pull from their own supplier: no chain ever stalls.
    for (int64_t c = 0; c < chains_; ++c) {
      Params p;
      int64_t total = 0;
      for (int lvl = 0; lvl < kLevels; ++lvl) {
        int64_t stock;
        if (lvl == 0) {
          stock = rng_.NextInRange(10, 24);
        } else if (lvl == kLevels - 1) {
          stock = rng_.NextInRange(150, 200);
        } else {
          stock = 20 * rng_.NextInRange(1, 2) + rng_.NextInRange(0, 4);
        }
        total += stock;
        p["n" + std::to_string(lvl)] = Value::String(WarehouseName(c, lvl));
        p["s" + std::to_string(lvl)] = Value::Int(stock);
      }
      p["c"] = Value::Int(c);
      p["total"] = Value::Int(total);
      PGT_RETURN_IF_ERROR(
          db_->Execute(
                 "CREATE (c:Chain {id: $c, base: $total, delivered: 0, "
                 "ordered: 0}) "
                 "CREATE (w0:Warehouse {name: $n0, stock: $s0, level: 0}) "
                 "CREATE (w1:Warehouse {name: $n1, stock: $s1, level: 1}) "
                 "CREATE (w2:Warehouse {name: $n2, stock: $s2, level: 2}) "
                 "CREATE (w3:Warehouse {name: $n3, stock: $s3, level: 3}) "
                 "CREATE (w0)-[:SuppliedBy]->(w1) "
                 "CREATE (w1)-[:SuppliedBy]->(w2) "
                 "CREATE (w2)-[:SuppliedBy]->(w3) "
                 "CREATE (w0)-[:InChain]->(c) CREATE (w1)-[:InChain]->(c) "
                 "CREATE (w2)-[:InChain]->(c) CREATE (w3)-[:InChain]->(c)",
                 p)
              .status());
    }
    PGT_RETURN_IF_ERROR(
        ExecAll(*db_, {"CREATE UNIQUE INDEX ON :Warehouse(name)",
                       "CREATE RANGE INDEX ON :Warehouse(stock)",
                       "CREATE UNIQUE INDEX ON :Chain(id)"}));
    for (const char* ddl : kSupplyTriggers) {
      PGT_RETURN_IF_ERROR(db_->Execute(ddl).status());
    }
    // Arm snapshot publication before the first measured commit.
    PGT_RETURN_IF_ERROR(db_->OpenSnapshot().status());
    nodes_ = db_->store().NodeCount();
    rels_ = db_->store().RelCount();
    return WarmUp(env.smoke ? 300 : 20000);
  }

  bool has_readers() const override { return true; }
  /// Archived orders leave tombstone records and versions behind, so
  /// memory grows with the orders placed. Reading it at a fixed op count
  /// keeps a faster writer from reading as a memory regression.
  uint64_t rss_probe_ops() const override { return 40000; }

  WriterOp NextOp() override {
    ++ops_;
    if (ops_ % kArchiveEvery == 0) return Archive();
    if (ops_ % kRoundEvery == kRoundEvery / 2 && !indebted_.empty()) {
      return DeliveryRound();
    }
    return Order();
  }

  ReadOp NextRead(Rng& rng) const override {
    ReadOp op;
    // Range probes cost far more than point probes; at 1 in 4 the median
    // request sits inside the point-probe mode instead of between modes.
    if (rng.NextBool(0.75)) {
      op.probe = "MATCH (w:Warehouse {name: $n}) RETURN w.stock AS stock";
      op.probe_params["n"] = Value::String(WarehouseName(
          static_cast<int64_t>(rng.NextBelow(chains_)),
          static_cast<int>(rng.NextBelow(kLevels))));
    } else {
      const int64_t lo = rng.NextInRange(0, 40);
      op.probe =
          "MATCH (w:Warehouse) WHERE w.stock >= $lo AND w.stock < $hi "
          "RETURN COUNT(w) AS n";
      op.probe_params["lo"] = Value::Int(lo);
      op.probe_params["hi"] = Value::Int(lo + 2);
    }
    op.invariant = kInvariantQuery;
    op.invariant_params["chain"] =
        Value::Int(static_cast<int64_t>(rng.NextBelow(chains_)));
    return op;
  }

  Status CheckInvariant(const cypher::QueryResult& r) const override {
    if (r.rows.size() != 1 || r.rows[0].size() != 2) {
      return Status::FailedPrecondition("invariant query returned " +
                                        std::to_string(r.rows.size()) +
                                        " rows");
    }
    if (!(r.rows[0][0] == r.rows[0][1])) {
      return Status::FailedPrecondition(
          "torn snapshot: chain stock " + r.rows[0][1].ToString() +
          " != ledger " + r.rows[0][0].ToString());
    }
    return Status::OK();
  }

  Status Oracle() override {
    PGT_ASSIGN_OR_RETURN(
        cypher::QueryResult r,
        db_->Execute("MATCH (c:Chain)<-[:InChain]-(w:Warehouse) "
                     "RETURN c.id AS id, "
                     "c.base + c.delivered - c.ordered AS expected, "
                     "SUM(w.stock) AS actual"));
    PGT_RETURN_IF_ERROR(Expect(static_cast<int64_t>(r.rows.size()) == chains_,
                               "chain count changed"));
    for (const auto& row : r.rows) {
      PGT_RETURN_IF_ERROR(Expect(row[1] == row[2],
                                 "chain " + row[0].ToString() +
                                     " does not conserve stock"));
    }
    PGT_ASSIGN_OR_RETURN(
        int64_t unnormalized,
        CountOf(*db_,
                "MATCH (o:Order) WHERE o.priority IS NULL RETURN COUNT(*) AS n"));
    PGT_RETURN_IF_ERROR(
        Expect(unnormalized == 0, "an order skipped NormalizeOrder"));
    PGT_RETURN_IF_ERROR(
        Expect(Fired(*db_, "FulfillOrder") > 0, "FulfillOrder never fired"));
    return Expect(Fired(*db_, "Restock") > 0, "Restock never fired");
  }

  void Describe(Meta* meta) const override {
    (*meta)["chains"] = Num(static_cast<double>(chains_));
    (*meta)["warehouses"] = Num(static_cast<double>(chains_ * kLevels));
    (*meta)["nodes"] = Num(static_cast<double>(nodes_));
    (*meta)["relationships"] = Num(static_cast<double>(rels_));
    (*meta)["writer"] = Str("closed loop, 1 thread, in-memory");
    (*meta)["readers"] = Num(2);
  }

 private:
  static constexpr int kLevels = 4;
  static constexpr uint64_t kArchiveEvery = 64;
  static constexpr uint64_t kRoundEvery = 64;

  static std::string WarehouseName(int64_t chain, int level) {
    return "W" + std::to_string(chain) + "-" + std::to_string(level);
  }

  WriterOp Order() {
    WriterOp op;
    const int64_t c = static_cast<int64_t>(rng_.NextBelow(chains_));
    const int64_t q = rng_.NextInRange(1, 8);
    if (debt_[static_cast<size_t>(c)] == 0) indebted_.push_back(c);
    debt_[static_cast<size_t>(c)] += q;
    op.params["chain"] = Value::Int(c);
    op.params["w"] = Value::String(WarehouseName(c, 0));
    op.params["q"] = Value::Int(q);
    if (rng_.NextBool(0.5)) {
      op.params["p"] = Value::Int(rng_.NextInRange(1, 5));
      op.statements = {
          "MATCH (c:Chain {id: $chain}) SET c.ordered = c.ordered + $q "
          "CREATE (:Order {warehouse: $w, quantity: $q, priority: $p})"};
    } else {
      op.statements = {
          "MATCH (c:Chain {id: $chain}) SET c.ordered = c.ordered + $q "
          "CREATE (:Order {warehouse: $w, quantity: $q})"};
    }
    return op;
  }

  /// Removes the orders placed since the last archive. Snapshot publish
  /// rebuilds the committed bucket of every label a commit touches, so an
  /// ever-growing Order label would make every later commit slower.
  WriterOp Archive() {
    WriterOp op;
    op.statements = {"MATCH (o:Order) DETACH DELETE o"};
    return op;
  }

  /// One delivery round: every indebted chain's whole debt to its root
  /// supplier, in one statement. Rounds are the writer's slowest op kind
  /// at 1 in 64 ops, so write_p99_ms falls on them instead of on commits
  /// that happened to wait for a reader's snapshot pin.
  WriterOp DeliveryRound() {
    WriterOp op;
    Value::List deliveries;
    for (int64_t c : indebted_) {
      Value::Map d;
      d["chain"] = Value::Int(c);
      d["root"] = Value::String(WarehouseName(c, kLevels - 1));
      d["q"] = Value::Int(debt_[static_cast<size_t>(c)]);
      debt_[static_cast<size_t>(c)] = 0;
      deliveries.push_back(Value::MakeMap(std::move(d)));
    }
    indebted_.clear();
    op.params["deliveries"] = Value::MakeList(std::move(deliveries));
    op.statements = {
        "UNWIND $deliveries AS d "
        "MATCH (c:Chain {id: d.chain}) MATCH (w:Warehouse {name: d.root}) "
        "SET c.delivered = c.delivered + d.q, w.stock = w.stock + d.q"};
    return op;
  }

  Rng rng_{1};
  int64_t chains_ = 0;
  uint64_t ops_ = 0;
  std::vector<int64_t> debt_;
  std::vector<int64_t> indebted_;  // chains with debt, in order of first debt
  size_t nodes_ = 0;
  size_t rels_ = 0;
};

}  // namespace

void Workload::InstallRuntime(const SetupEnv& env) {
  if (env.traced) {
    db_->SetRuntime(std::make_unique<TracingRuntime>(&db_->engine()));
  }
}

Status Workload::WarmUp(int n) {
  for (int i = 0; i < n; ++i) PGT_RETURN_IF_ERROR(RunOp(*db_, NextOp()));
  return Status::OK();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "covid_surge", "fraud_stream", "snapshot_analytics"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "covid_surge") return std::make_unique<CovidSurge>();
  if (name == "fraud_stream") return std::make_unique<FraudStream>();
  if (name == "snapshot_analytics") return std::make_unique<SnapshotAnalytics>();
  return nullptr;
}

Status RunOp(Database& db, const WriterOp& op) {
  if (op.statements.size() == 1) {
    return db.Execute(op.statements[0], op.params).status();
  }
  return db.ExecuteTx(op.statements, op.params).status();
}

Status RunOpTraced(Database& db, const WriterOp& op) {
  const bool single = op.statements.size() == 1;
  Status st = [&]() -> Status {
    std::unique_lock<std::mutex> lock(db.writer_interlock(), std::defer_lock);
    {
      Span s(SpanId::kWriterInterlock);
      lock.lock();
    }
    std::vector<std::shared_ptr<cypher::plan::PreparedStatement>> prepared;
    {
      Span s(SpanId::kCypherPrepare);
      for (const std::string& text : op.statements) {
        // Execute classifies a statement only on a plan-cache miss;
        // ExecuteTx classifies every statement.
        const uint64_t misses = db.plan_cache().misses();
        PGT_ASSIGN_OR_RETURN(
            std::shared_ptr<cypher::plan::PreparedStatement> stmt,
            db.Prepare(text));
        if ((!single || db.plan_cache().misses() != misses) &&
            ClassifyStatement(text) != StatementKind::kCypher) {
          return Status::InvalidArgument("writer ops must be plain Cypher");
        }
        if (stmt->read_only) {
          return Status::InvalidArgument("writer op is read-only: " + text);
        }
        prepared.push_back(std::move(stmt));
      }
    }
    // Execute arms one budget over the statement and its commit; ExecuteTx
    // arms one per statement plus one for the commit round.
    std::optional<Database::BudgetScope> op_budget;
    if (single) op_budget.emplace(&db);
    if (db.degraded()) {
      return Status::FailedPrecondition("database is degraded");
    }
    std::unique_ptr<Transaction> tx;
    {
      Span s(SpanId::kTxBegin);
      PGT_ASSIGN_OR_RETURN(tx, db.BeginTx());
    }
    for (const auto& stmt : prepared) {
      std::optional<Database::BudgetScope> budget;
      if (!single) budget.emplace(&db);
      Span s(SpanId::kCypherExec);
      Result<cypher::QueryResult> r = db.RunPreparedInTx(*tx, *stmt, op.params);
      if (!r.ok()) {
        db.RollbackAndRelease(std::move(tx));
        return r.status();
      }
    }
    std::optional<Database::BudgetScope> commit_budget;
    if (!single) commit_budget.emplace(&db);
    Span s(SpanId::kTxCommit);
    return db.CommitWithTriggers(std::move(tx));
  }();
  if (db.async() != nullptr) {
    Span s(SpanId::kAsyncBackpressure);
    db.async()->StatementBoundary();
  }
  return st;
}

}  // namespace pgt::e2e
