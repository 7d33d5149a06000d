#ifndef PGTRIGGERS_COVID_GENERATOR_H_
#define PGTRIGGERS_COVID_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/storage/graph_store.h"

namespace pgt::covid {

/// Size and randomness knobs of the synthetic CoV2K dataset
/// (docs/semantics.md D8: the real CoV2K knowledge base is replaced by a
/// deterministic generator with the Figure 4 schema).
struct GeneratorOptions {
  uint64_t seed = 42;
  int regions = 3;            // Lombardy, Tuscany, ... (first two fixed)
  int hospitals_per_region = 2;
  int icu_beds_min = 8;
  int icu_beds_max = 20;
  int labs_per_region = 2;
  int lineages = 8;           // a fraction get WHO designations
  int mutations = 30;         // a fraction get critical effects
  int critical_effects = 4;
  int patients = 100;
  int sequences = 150;        // sampled from patients, linked to lineages
  double critical_mutation_fraction = 0.2;
  double hospitalized_fraction = 0.3;  // of patients
};

/// Handles to generated anchor entities (used by workloads and tests).
struct CovidDataset {
  std::vector<NodeId> regions;
  std::vector<NodeId> hospitals;
  std::vector<NodeId> laboratories;
  std::vector<NodeId> lineages;
  std::vector<NodeId> mutations;
  std::vector<NodeId> critical_effects;
  std::vector<NodeId> patients;
  std::vector<NodeId> sequences;
  NodeId sacco;  // Hospital "Sacco" (Lombardy)
  NodeId meyer;  // Hospital "Meyer" (Tuscany)
};

/// Populates `store` with the Figure 4 graph: regions, hospitals (always
/// including Sacco in Lombardy and Meyer in Tuscany, pairwise ConnectedTo
/// with distances), laboratories, lineages, mutations (some linked to
/// critical effects via :Risk), patients (a fraction hospitalized), and
/// sequences (:HasSample / :FoundIn / :BelongsTo / :SequencedAt).
///
/// Writes directly to the store (no transaction, no trigger dispatch):
/// base data is in place *before* triggers are installed, exactly like the
/// paper's pre-populated Neo4j prototype.
CovidDataset GenerateCovidData(GraphStore& store,
                               const GeneratorOptions& options = {});

}  // namespace pgt::covid

#endif  // PGTRIGGERS_COVID_GENERATOR_H_
