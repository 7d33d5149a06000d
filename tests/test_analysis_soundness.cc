// Soundness property test for the static triggering graph (docs/analysis.md):
// over randomized trigger corpora and workloads, every cascade edge the
// engine actually takes at runtime must exist in the statically-derived
// graph. Fired edges (the woken trigger's WHEN held and its action ran)
// must be plain edges; considered-but-not-fired and commit-time derivation
// edges may additionally be predicate-pruned edges. Corpora are seeded
// deterministically so failures reproduce.

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/trigger/database.h"

namespace pgt {
namespace {

using Edge = std::pair<std::string, std::string>;

const char* kLabels[] = {"A", "B", "C", "D", "E", "F"};
const char* kProps[] = {"p", "q", "r"};
const char* kRelTypes[] = {"R", "S"};

std::string Pick(std::mt19937& rng, const char* const* arr, size_t n) {
  return arr[rng() % n];
}

/// One random trigger definition. BEFORE triggers keep to the legality
/// guard (only SET on NEW); the rest draw from create/set/remove/delete
/// actions over the shared label/prop alphabet so corpora are densely
/// interconnected.
std::string RandomTriggerDdl(std::mt19937& rng, int idx) {
  const std::string name = "T" + std::to_string(idx);
  const int time_roll = static_cast<int>(rng() % 10);
  const char* time = time_roll < 6   ? "AFTER"
                     : time_roll < 8 ? "ONCOMMIT"
                     : time_roll < 9 ? "DETACHED"
                                     : "BEFORE";
  const bool is_rel_monitor = rng() % 8 == 0;
  std::string monitor;
  bool monitor_binds_new = true;
  if (is_rel_monitor) {
    monitor = "CREATE ON '" + Pick(rng, kRelTypes, 2) +
              "' FOR EACH RELATIONSHIP";
  } else {
    const int ev = static_cast<int>(rng() % 4);
    const std::string label = Pick(rng, kLabels, 6);
    switch (ev) {
      case 0:
        monitor = "CREATE ON '" + label + "' FOR EACH NODE";
        break;
      case 1:
        monitor = "SET ON '" + label + "'.'" + Pick(rng, kProps, 3) +
                  "' FOR EACH NODE";
        break;
      case 2:
        monitor = "REMOVE ON '" + label + "'.'" + Pick(rng, kProps, 3) +
                  "' FOR EACH NODE";
        monitor_binds_new = false;
        break;
      default:
        monitor = "DELETE ON '" + label + "' FOR EACH NODE";
        monitor_binds_new = false;
        break;
    }
  }
  // BEFORE actions may only SET properties of NEW transition items.
  std::string action;
  if (std::string(time) == "BEFORE") {
    if (!monitor_binds_new || is_rel_monitor) {
      monitor = "CREATE ON '" + Pick(rng, kLabels, 6) + "' FOR EACH NODE";
    }
    action = "SET NEW." + Pick(rng, kProps, 3) + " = " +
             std::to_string(rng() % 20);
  } else {
    const int act = static_cast<int>(rng() % 5);
    const std::string label = Pick(rng, kLabels, 6);
    const std::string prop = Pick(rng, kProps, 3);
    switch (act) {
      case 0:
        action = "CREATE (:" + label + " {" + prop + ": " +
                 std::to_string(rng() % 20) + "})";
        break;
      case 1:
        action = "MATCH (n:" + label + ") SET n." + prop + " = " +
                 std::to_string(rng() % 20);
        break;
      case 2:
        action = "MATCH (n:" + label + ") REMOVE n." + prop;
        break;
      case 3:
        action = "MATCH (n:" + label + ") DETACH DELETE n";
        break;
      default:
        action = "CREATE (:" + label + ")-[:" + Pick(rng, kRelTypes, 2) +
                 "]->(:" + Pick(rng, kLabels, 6) + ")";
        break;
    }
  }
  // A guard on roughly a third of the NEW-binding monitors exercises the
  // predicate-pruning path against real firings.
  std::string when;
  if (monitor_binds_new && !is_rel_monitor && rng() % 3 == 0) {
    when = " WHEN NEW." + Pick(rng, kProps, 3) + " > " +
           std::to_string(rng() % 15);
  }
  return "CREATE TRIGGER " + name + " " + time + " " + monitor + when +
         " BEGIN " + action + " END";
}

std::string RandomStatement(std::mt19937& rng) {
  const std::string label = Pick(rng, kLabels, 6);
  const std::string prop = Pick(rng, kProps, 3);
  switch (rng() % 5) {
    case 0:
      return "CREATE (:" + label + " {" + prop + ": " +
             std::to_string(rng() % 20) + "})";
    case 1:
      return "MATCH (n:" + label + ") SET n." + prop + " = " +
             std::to_string(rng() % 20);
    case 2:
      return "MATCH (n:" + label + ") REMOVE n." + prop;
    case 3:
      return "MATCH (n:" + label + ") DETACH DELETE n";
    default:
      return "CREATE (:" + label + ")-[:" + Pick(rng, kRelTypes, 2) +
             "]->(:" + Pick(rng, kLabels, 6) + ")";
  }
}

TEST(AnalysisSoundnessTest, RuntimeCascadeEdgesAreStaticallyPredicted) {
  size_t total_fired = 0, total_derived = 0, total_static = 0,
         total_pruned = 0;
  for (uint32_t corpus = 0; corpus < 12; ++corpus) {
    std::mt19937 rng(1234 + corpus * 7919);
    EngineOptions opts;
    opts.max_cascade_depth = 8;
    Database db(opts);

    std::vector<std::string> ddls;
    for (int i = 0; i < 8; ++i) {
      const std::string ddl = RandomTriggerDdl(rng, i);
      auto r = db.Execute(ddl);
      ASSERT_TRUE(r.ok()) << ddl << " -> " << r.status();
      ddls.push_back(ddl);
    }

    // Snapshot the static graph before the workload (no DDL follows).
    (void)db.AnalyzeTriggers();
    const std::set<Edge> static_edges = db.analyzer().Edges();
    const std::set<Edge> pruned_edges = db.analyzer().PrunedEdges();

    std::set<Edge> fired, derived;
    db.engine().SetCascadeProbe([&](const std::string& writer,
                                    const std::string& woken, ActionTime,
                                    bool did_fire) {
      if (writer.empty()) return;  // user statement: no source trigger
      (did_fire ? fired : derived).insert({writer, woken});
    });

    for (int s = 0; s < 40; ++s) {
      // Keep the MATCH-driven statements fed: most rounds guarantee at
      // least one node of a random label exists.
      if (s % 4 == 0) {
        Status seed_st =
            db.Execute("CREATE (:" + Pick(rng, kLabels, 6) + " {" +
                       Pick(rng, kProps, 3) + ": " +
                       std::to_string(rng() % 20) + "})")
                .status();
        ASSERT_TRUE(seed_st.ok() ||
                    seed_st.code() == StatusCode::kCascadeLimitExceeded)
            << seed_st;
      }
      Status st = db.Execute(RandomStatement(rng)).status();
      // Non-terminating rule sets abort at the depth limit; every other
      // statement must succeed.
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kCascadeLimitExceeded)
          << st;
    }
    db.engine().SetCascadeProbe(nullptr);

    auto dump_corpus = [&ddls]() {
      std::string out;
      for (const std::string& d : ddls) out += d + "\n";
      return out;
    };
    for (const Edge& e : fired) {
      EXPECT_TRUE(static_edges.count(e))
          << "corpus " << corpus << ": fired edge " << e.first << " -> "
          << e.second << " missing from static graph\n"
          << dump_corpus();
    }
    for (const Edge& e : derived) {
      EXPECT_TRUE(static_edges.count(e) || pruned_edges.count(e))
          << "corpus " << corpus << ": derived edge " << e.first << " -> "
          << e.second << " missing from static graph (incl. pruned)\n"
          << dump_corpus();
    }
    total_fired += fired.size();
    total_derived += derived.size();
    total_static += static_edges.size();
    total_pruned += pruned_edges.size();
  }
  // Precision diagnostics (the static graph over-approximates; observed
  // edges show how tight it is on these corpora).
  std::printf("soundness: %zu fired + %zu derived observed edges vs %zu "
              "static (+%zu pruned)\n",
              total_fired, total_derived, total_static, total_pruned);
  // The corpora must actually exercise cascades, or the test is vacuous.
  EXPECT_GT(total_fired + total_derived, 0u);
}

}  // namespace
}  // namespace pgt
