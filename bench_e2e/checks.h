#ifndef PGT_BENCH_E2E_CHECKS_H_
#define PGT_BENCH_E2E_CHECKS_H_

// Correctness checks: an order-insensitive final-state checksum shared by
// every workload, and the timed reopen behind `recovery_s` (durable
// workloads only).

#include <cstdint>
#include <string>
#include <vector>

#include "src/trigger/database.h"

namespace pgt::e2e {

/// Order-insensitive digest of a database's final state. `graph` sums one
/// content hash per alive node (labels + properties) and per alive
/// relationship (type + endpoint contents + properties), so it does not
/// depend on id assignment or commit interleaving. Clock-derived values
/// (DATE()/DATETIME()) are left out for the same reason. `firings` hashes
/// every trigger's fired count (the engine's statement counter is left
/// out: the tracing runtime does not see read-only statements).
struct Checksum {
  uint64_t graph = 0;
  uint64_t firings = 0;
  uint64_t nodes = 0;
  uint64_t rels = 0;
  std::string ToString() const;
  bool operator==(const Checksum&) const = default;
};

/// Call with the writer idle (after DrainAsync).
Checksum ComputeChecksum(Database& db);

struct RecoveryOutcome {
  std::vector<double> open_seconds;  // one per reopen
  Checksum reopened;                 // `firings` is 0: stats are not durable
};

/// Cleanly closes the durable `db`, then measures `Database::Open` of its
/// directory `reps` times and returns the reopened state's checksum.
Result<RecoveryOutcome> MeasureRecovery(Database& db, wal::WalOptions wal,
                                        const EngineOptions& options,
                                        int reps);

}  // namespace pgt::e2e

#endif  // PGT_BENCH_E2E_CHECKS_H_
