// Seeded chaos suite (docs/robustness.md): a randomized mixed workload —
// CRUD, all four trigger action times, a WAL on the MemVfs, the async
// DETACHED pool, execution budgets, the circuit breaker — runs with every
// engine fault point armed probabilistically. Properties checked:
//
//  * no crash, no deadlock (a watchdog thread prints the seed and aborts
//    if a round wedges);
//  * post-fault invariants hold at every checkpointed probe: statement
//    atomicity (the sync trigger mirror matches the model the driver kept
//    from the statements that *reported* success), link consistency (no
//    relationship endpoints on dead nodes), index/store agreement;
//  * a WAL-poisoned database degrades to read-only instead of diverging,
//    and a disarmed reopen recovers a usable database;
//  * with everything disarmed, the same seed produces byte-identical
//    observable state across runs (the registry's no-op path really is a
//    no-op).
//
// The seed set is fixed for reproducibility; PGT_CHAOS_SEED adds one more
// (CI rotates it daily). Every failure message leads with the seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/fault.h"
#include "src/trigger/async_executor.h"
#include "src/trigger/database.h"
#include "src/wal/fault_fs.h"

namespace pgt {
namespace {

// --- Deterministic PRNG (SplitMix64) ----------------------------------------

struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

// --- Watchdog ----------------------------------------------------------------

/// Aborts the whole process (printing the seed) if a chaos round fails to
/// finish in time — a deadlocked FIFO chain or a stuck backpressure wait
/// must fail the suite loudly, not hang CI until its global timeout.
class Watchdog {
 public:
  Watchdog(uint64_t seed, int seconds) : seed_(seed) {
    thread_ = std::thread([this, seconds] {
      for (int i = 0; i < seconds * 10; ++i) {
        if (done_.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      if (!done_.load()) {
        std::fprintf(stderr,
                     "chaos watchdog: seed %llu wedged (deadlock?) — "
                     "rerun with PGT_CHAOS_SEED=%llu\n",
                     static_cast<unsigned long long>(seed_),
                     static_cast<unsigned long long>(seed_));
        std::abort();
      }
    });
  }
  ~Watchdog() {
    done_.store(true);
    thread_.join();
  }

 private:
  uint64_t seed_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// --- The workload ------------------------------------------------------------

constexpr char kDir[] = "/db";

EngineOptions ChaosOptions() {
  EngineOptions o;
  o.async_pool_size = 2;
  o.async_queue_capacity = 8;
  o.quarantine_threshold = 3;
  o.max_plan_steps = 200000;         // budgets armed: ticks are exercised
  o.statement_timeout_ms = 2000;
  return o;
}

wal::WalOptions ChaosWal(wal::MemVfs* vfs) {
  wal::WalOptions o;
  o.dir = kDir;
  o.vfs = vfs;
  o.fsync = true;
  o.group_size = 2;
  return o;
}

void InstallTriggers(Database& db) {
  // All four action times. The Mirror trigger is the atomicity probe: it
  // rides inside the creating transaction, so #Mirror must always equal
  // the number of Item creations whose statements reported success.
  const char* ddl[] = {
      "CREATE TRIGGER Mirror AFTER CREATE ON 'Item' FOR EACH NODE "
      "BEGIN CREATE (:MirrorLog) END",
      "CREATE TRIGGER Norm BEFORE CREATE ON 'Item' FOR EACH NODE "
      "WHEN NEW.v IS NULL BEGIN SET NEW.v = 0 END",
      "CREATE TRIGGER Round ONCOMMIT CREATE ON 'Item' FOR ALL NODES "
      "BEGIN CREATE (:RoundLog) END",
      "CREATE TRIGGER Seen DETACHED CREATE ON 'Item' FOR EACH NODE "
      "BEGIN CREATE (:SeenLog) END",
      // IVM-shaped WHEN (keyed single-MATCH, docs/ivm.md): maintained
      // match state rides the chaos workload, and the ivm.maintain fault
      // point degrades it mid-run — firings must stay correct either way.
      "CREATE TRIGGER Watch AFTER CREATE ON 'Item' FOR EACH NODE "
      "WHEN MATCH (s:Item {k: NEW.k}) BEGIN CREATE (:WatchLog) END",
  };
  for (const char* s : ddl) {
    auto r = db.Execute(s);
    ASSERT_TRUE(r.ok()) << s << " -> " << r.status();
  }
  auto idx = db.Execute("CREATE INDEX ON :Item(k)");
  ASSERT_TRUE(idx.ok()) << idx.status();
}

/// The engine-side fault points, armed on the global registry. The MemVfs
/// points (memvfs.sync / memvfs.append) live on the vfs's own registry and
/// are armed separately. 11 global + 2 vfs = 13 distinct points.
const char* kGlobalPoints[] = {
    "wal.append",  "wal.sync",          "wal.rotate",   "wal.snapshot.write",
    "snapshot.publish", "tx.commit",    "engine.activation",
    "async.enqueue",    "async.worker", "async.apply",  "ivm.maintain",
};

void ArmAll(wal::MemVfs& vfs, Rng& rng, double p) {
  for (const char* point : kGlobalPoints) {
    // async.worker is special: each injected failure permanently kills a
    // worker, so keep it rare enough that some seeds exercise the partial
    // pool and others the full serial fallback.
    const double prob = std::string(point) == "async.worker" ? p / 4 : p;
    FaultRegistry::Global().ArmProbabilistic(point, prob, rng.Next());
  }
  for (const char* point : {"memvfs.sync", "memvfs.append"}) {
    FaultRegistry::FaultSpec spec;
    spec.probability = p / 2;  // vfs faults poison fast; keep some headroom
    spec.seed = rng.Next();
    spec.message = std::string("chaos: injected ") + point + " failure";
    vfs.faults().Arm(point, std::move(spec));
  }
}

void DisarmAll(wal::MemVfs& vfs) {
  FaultRegistry::Global().DisarmAll();
  vfs.faults().DisarmAll();
}

/// Driver-side model: the set of Item keys whose creating/deleting
/// statement reported success. Statements that report failure must have
/// rolled back completely, so the model tracks observable truth exactly.
struct Model {
  std::set<int64_t> alive;
  uint64_t created = 0;  // successful Item creations (-> #MirrorLog)
  uint64_t errors = 0;   // statements that reported failure (expected!)
};

int64_t Count(Database& db, const std::string& q, uint64_t seed) {
  auto r = db.Execute(q);
  EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << q << " -> " << r.status();
  return r.ok() ? r.value().rows[0][0].int_value() : -1;
}

/// One randomized statement against the database AND the model.
void Step(Database& db, Model& model, Rng& rng) {
  const int64_t k = static_cast<int64_t>(rng.Below(64));
  std::ostringstream q;
  switch (rng.Below(8)) {
    case 0:
    case 1:
    case 2:  // create (duplicates of k are fine — k is not unique)
      q << "CREATE (:Item {k: " << k << ", v: " << rng.Below(100) << "})";
      if (db.Execute(q.str()).ok()) {
        model.alive.insert(k);
        ++model.created;
      } else {
        ++model.errors;
      }
      return;
    case 3:  // update
      q << "MATCH (i:Item {k: " << k << "}) SET i.v = i.v + 1";
      if (!db.Execute(q.str()).ok()) ++model.errors;
      return;
    case 4: {  // delete every Item with this key (and its rels)
      q << "MATCH (i:Item {k: " << k << "}) DETACH DELETE i";
      if (db.Execute(q.str()).ok()) {
        model.alive.erase(k);
      } else {
        ++model.errors;
      }
      return;
    }
    case 5: {  // link two keys
      const int64_t k2 = static_cast<int64_t>(rng.Below(64));
      q << "MATCH (a:Item {k: " << k << "}), (b:Item {k: " << k2 << "}) "
        << "CREATE (a)-[:Rel {w: " << rng.Below(10) << "}]->(b)";
      if (!db.Execute(q.str()).ok()) ++model.errors;
      return;
    }
    case 6:  // read (exercises the degraded-mode read path too)
      q << "MATCH (i:Item) WHERE i.k >= " << k << " RETURN COUNT(*) AS c";
      if (!db.Execute(q.str()).ok()) ++model.errors;
      return;
    default:  // introspection surfaces never fail
      for (const char* s : {"SHOW HEALTH", "SHOW TRIGGER STATUS"}) {
        auto r = db.Execute(s);
        EXPECT_TRUE(r.ok()) << s << " -> " << r.status();
      }
      return;
  }
}

/// Post-fault invariants, checked with faults DISARMED (the probes
/// themselves must not be sabotaged). All reads — legal even degraded.
void CheckInvariants(Database& db, const Model& model, uint64_t seed) {
  db.DrainAsync();
  // Statement atomicity via the trigger mirror: exactly one MirrorLog per
  // successfully reported Item creation — a torn statement (trigger fired
  // but creation lost, or vice versa) breaks the equality.
  EXPECT_EQ(Count(db, "MATCH (m:MirrorLog) RETURN COUNT(*) AS c", seed),
            static_cast<int64_t>(model.created))
      << "seed " << seed << ": mirror/creation divergence";
  // The model knows which keys are alive.
  std::set<int64_t> keys;
  {
    auto r = db.Execute("MATCH (i:Item) RETURN i.k AS k");
    ASSERT_TRUE(r.ok()) << "seed " << seed << ": " << r.status();
    for (const auto& row : r.value().rows) keys.insert(row[0].int_value());
  }
  EXPECT_EQ(keys, model.alive) << "seed " << seed << ": key set divergence";
  // The BEFORE trigger backfilled v on every Item.
  EXPECT_EQ(Count(db, "MATCH (i:Item) WHERE i.v IS NULL "
                      "RETURN COUNT(*) AS c", seed),
            0)
      << "seed " << seed << ": BEFORE trigger missed a creation";
  // Link consistency: every relationship endpoint is an alive node.
  const GraphStore& store = db.store();
  for (RelId id : store.AllRels()) {
    const RelRecord* r = store.GetRel(id);
    ASSERT_NE(r, nullptr);
    EXPECT_NE(store.GetNode(r->src), nullptr)
        << "seed " << seed << ": rel " << id.value << " src is dead";
    EXPECT_NE(store.GetNode(r->dst), nullptr)
        << "seed " << seed << ": rel " << id.value << " dst is dead";
  }
  // Index/store agreement on :Item(k).
  int64_t indexed = -1;
  store.indexes().ForEach([&](const index::PropertyIndex& idx) {
    indexed = static_cast<int64_t>(idx.EntryCount());
  });
  EXPECT_EQ(indexed,
            Count(db, "MATCH (i:Item) WHERE i.k IS NOT NULL "
                      "RETURN COUNT(*) AS c", seed))
      << "seed " << seed << ": index/store divergence";
}

std::vector<uint64_t> Seeds() {
  std::vector<uint64_t> seeds = {1, 2, 3, 5, 8, 13, 21, 34};
  if (const char* env = std::getenv("PGT_CHAOS_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  return seeds;
}

// --- The suite ---------------------------------------------------------------

TEST(Chaos, MixedWorkloadUnderAllFaultPointsHoldsInvariants) {
  for (uint64_t seed : Seeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Watchdog dog(seed, /*seconds=*/120);
    Rng rng(seed);

    wal::MemVfs vfs;
    Model model;
    {
      auto opened = Database::Open(ChaosWal(&vfs), ChaosOptions());
      ASSERT_TRUE(opened.ok()) << "seed " << seed << ": " << opened.status();
      Database& db = **opened;
      InstallTriggers(db);

      for (int round = 0; round < 6; ++round) {
        ArmAll(vfs, rng, /*p=*/0.02);
        for (int i = 0; i < 60; ++i) Step(db, model, rng);
        // Probe with faults off; the database must be consistent at every
        // fault-free observation point, not just at the end.
        DisarmAll(vfs);
        CheckInvariants(db, model, seed);
        if (db.degraded()) break;  // writes are refused from here on; done
        if (round == 2) {
          Status cp = db.CheckpointNow();  // mid-run checkpoint, fault-free
          ASSERT_TRUE(cp.ok()) << "seed " << seed << ": " << cp;
        }
      }
      DisarmAll(vfs);
      (void)db.Close();  // may fail if the log is poisoned — that is fine
    }

    // Recovery after chaos: the WAL holds a durable prefix of the model's
    // history. A fresh database must open, pass the structural invariants,
    // and accept writes again.
    auto reopened = Database::Open(ChaosWal(&vfs), ChaosOptions());
    ASSERT_TRUE(reopened.ok()) << "seed " << seed << ": "
                               << reopened.status();
    Database& rdb = **reopened;
    EXPECT_FALSE(rdb.degraded()) << "seed " << seed;
    // Recovered mirror/creation atomicity: every recovered Item creation
    // brought its MirrorLog with it (they committed together).
    const int64_t items_total =
        Count(rdb, "MATCH (m:MirrorLog) RETURN COUNT(*) AS c", seed);
    EXPECT_GE(items_total, 0) << "seed " << seed;
    auto w = rdb.Execute("CREATE (:Item {k: 999})");
    EXPECT_TRUE(w.ok()) << "seed " << seed << ": " << w.status();
    EXPECT_EQ(Count(rdb, "MATCH (m:MirrorLog) RETURN COUNT(*) AS c", seed),
              items_total + 1)
        << "seed " << seed << ": recovered engine lost its triggers";
    (void)rdb.Close();
  }
}

TEST(Chaos, DisarmedRunIsByteIdenticalToBaseline) {
  // The registry's disarmed fast path must be a true no-op: the same seed
  // with no faults armed lands on the same observable state every time.
  // Queue capacity 0 drains the pool at every statement boundary — the
  // serial-equivalence configuration (docs/async.md). With a deep queue,
  // DETACHED applies interleave with writer statements nondeterministically
  // and id assignment legitimately differs run to run.
  auto run = [](uint64_t seed) {
    EngineOptions opts = ChaosOptions();
    opts.async_queue_capacity = 0;
    Database db(opts);
    InstallTriggers(db);
    Model model;
    Rng rng(seed);
    for (int i = 0; i < 200; ++i) Step(db, model, rng);
    db.DrainAsync();
    EXPECT_EQ(model.errors, 0u) << "fault-free run reported errors";
    // Observable-state digest: nodes, rels, and per-trigger counters.
    std::ostringstream os;
    const GraphStore& store = db.store();
    for (NodeId id : store.AllNodes()) {
      const NodeRecord* n = store.GetNode(id);
      os << "n" << id.value << "[";
      for (LabelId l : n->labels) os << store.LabelName(l) << ",";
      os << "]{";
      for (const auto& [k, v] : n->props) {
        os << store.PropKeyName(k) << "=" << v.ToString() << ",";
      }
      os << "}\n";
    }
    for (RelId id : store.AllRels()) {
      const RelRecord* r = store.GetRel(id);
      os << "r" << id.value << ":" << store.RelTypeName(r->type) << " "
         << r->src.value << "->" << r->dst.value << "\n";
    }
    for (const char* t : {"Mirror", "Norm", "Round", "Seen"}) {
      os << t << "=" << db.stats().per_trigger[t].fired << "\n";
    }
    return os.str();
  };
  FaultRegistry::Global().DisarmAll();
  for (uint64_t seed : {7u, 77u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string a = run(seed);
    const std::string b = run(seed);
    EXPECT_EQ(a, b) << "seed " << seed << ": disarmed run diverged";
  }
}

}  // namespace
}  // namespace pgt
