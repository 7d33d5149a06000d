#ifndef PGT_BENCH_E2E_WORKLOADS_H_
#define PGT_BENCH_E2E_WORKLOADS_H_

// The three benchmark workloads (README.md says why each exists) and
// the two ways of driving a writer op: through the public one-call entry
// points (untraced) or through the public steps they compose (traced).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/trigger/database.h"
#include "trace.h"

namespace pgt::e2e {

/// One writer operation: a single statement runs through Execute, several
/// through ExecuteTx (one transaction).
struct WriterOp {
  std::vector<std::string> statements;
  Params params;
};

/// One reader request against a freshly pinned snapshot: `probe`, then an
/// optional invariant query whose rows the workload checks.
struct ReadOp {
  std::string probe;
  Params probe_params;
  std::string invariant;  // empty = none
  Params invariant_params;
};

struct SetupEnv {
  uint64_t seed = 1;
  bool smoke = false;       // toy sizes
  bool traced = false;      // install the tracing runtime and Vfs
  std::string dir;          // private scratch directory of this instance
};

/// Run metadata fields (dataset sizes, rates, policies); numbers or strings
/// already rendered as JSON values.
using Meta = std::map<std::string, std::string>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds a fresh database: dataset, index DDL, trigger install, and a
  /// fixed number of warm-up ops, all before any measured window.
  virtual Status Setup(const SetupEnv& env) = 0;
  Database& db() { return *db_; }
  const EngineOptions& options() const { return options_; }

  /// Next op of the seeded stream (deterministic in the seed and the
  /// number of earlier calls).
  virtual WriterOp NextOp() = 0;
  /// Fixed arrival rate of an open-loop writer; 0 = closed loop.
  virtual double open_loop_rate() const { return 0; }
  /// Writer ops after which peak_rss_mb is read; 0 = after the window.
  virtual uint64_t rss_probe_ops() const { return 0; }
  /// True when snapshot readers run beside the writer during the window.
  virtual bool has_readers() const { return false; }
  /// Next reader request; only called when has_readers(). Thread-safe:
  /// readers call it concurrently with their own Rng.
  virtual ReadOp NextRead(Rng&) const { return {}; }
  /// Checks the rows of a ReadOp's invariant query.
  virtual Status CheckInvariant(const cypher::QueryResult&) const {
    return Status::OK();
  }
  /// Brings the database to a quiescent state after the writer stops.
  virtual void Quiesce() {}
  /// Workload-specific end-of-run oracle (writer idle).
  virtual Status Oracle() = 0;
  /// The durable directory reopened for recovery_s (wal.vfs left at its
  /// default); nullopt for in-memory workloads.
  virtual std::optional<wal::WalOptions> DurableWal() const {
    return std::nullopt;
  }
  virtual void Describe(Meta* meta) const = 0;
  /// Tracing Vfs counters (traced durable workloads), else nullptr.
  TracingVfs* tracing_vfs() { return vfs_.get(); }

 protected:
  /// Wraps the native engine in a TracingRuntime when `env.traced`.
  void InstallRuntime(const SetupEnv& env);
  /// Runs `n` ops of the stream through the untraced entry points.
  Status WarmUp(int n);

  EngineOptions options_;
  // Declared before db_: the WAL keeps a pointer to it.
  std::unique_ptr<TracingVfs> vfs_;
  std::unique_ptr<Database> db_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);
const std::vector<std::string>& WorkloadNames();

/// Runs one op through Execute / ExecuteTx.
Status RunOp(Database& db, const WriterOp& op);
/// Runs one op through the public steps Execute / ExecuteTx compose
/// (interlock, prepare + classify where they classify, budget, begin, run,
/// commit, async boundary), with a span around each.
Status RunOpTraced(Database& db, const WriterOp& op);

}  // namespace pgt::e2e

#endif  // PGT_BENCH_E2E_WORKLOADS_H_
