// ABL — ablation of the semantic decisions in docs/semantics.md:
//  D3: label-event semantics — kMonitoredLabel (default, matches the
//      Table 3 translations) vs kTargetSetChange (the strict Section 4.2
//      reading) on the same label-change workload;
//  D5: trigger ordering — creation-time (paper) vs name-based
//      (PostgreSQL footnote 3) on an order-sensitive trigger pair;
//  granularity — FOR EACH vs FOR ALL cost on identical admission waves.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/trigger/database.h"

namespace pgt {
namespace {

using bench::MustCount;
using bench::MustExec;

}  // namespace
}  // namespace pgt

int main() {
  using namespace pgt;
  bench::Banner("ABL", "Ablations of docs/semantics.md decisions D3 / D5 / "
                       "granularity");

  // --- D3: label-event semantics. --------------------------------------------
  {
    auto run = [](LabelEventSemantics sem) {
      EngineOptions options;
      options.label_event_semantics = sem;
      Database db;
      db.options() = options;
      MustExec(db, "CREATE (:Patient {id: 1}), (:Patient {id: 2}), "
                   "(:Visitor {id: 3})");
      db.store().InternLabel("Deceased");
      MustExec(db,
               "CREATE TRIGGER OnDeceased AFTER SET ON 'Deceased' "
               "FOR EACH NODE BEGIN CREATE (:DeceasedEvent) END");
      MustExec(db,
               "CREATE TRIGGER OnPatient AFTER SET ON 'Patient' "
               "FOR EACH NODE BEGIN CREATE (:PatientEvent) END");
      // Workload: mark one patient and one visitor deceased; also tag a
      // patient with an unrelated label.
      MustExec(db, "MATCH (p:Patient {id: 1}) SET p:Deceased");
      MustExec(db, "MATCH (v:Visitor {id: 3}) SET v:Deceased");
      MustExec(db, "MATCH (p:Patient {id: 2}) SET p:Reviewed");
      return std::make_pair(
          MustCount(db, "MATCH (e:DeceasedEvent) RETURN COUNT(*) AS c"),
          MustCount(db, "MATCH (e:PatientEvent) RETURN COUNT(*) AS c"));
    };
    auto [monitored_d, monitored_p] =
        run(LabelEventSemantics::kMonitoredLabel);
    auto [strict_d, strict_p] = run(LabelEventSemantics::kTargetSetChange);
    std::printf("D3 — label-event semantics (same workload):\n");
    std::printf("  semantics         | ON 'Deceased' fired | ON 'Patient' "
                "fired\n");
    std::printf("  ------------------+---------------------+---------------"
                "----\n");
    std::printf("  kMonitoredLabel   | %19lld | %lld   (fires when the "
                "named label is set)\n",
                static_cast<long long>(monitored_d),
                static_cast<long long>(monitored_p));
    std::printf("  kTargetSetChange  | %19lld | %lld   (fires when other "
                "labels change on carriers)\n",
                static_cast<long long>(strict_d),
                static_cast<long long>(strict_p));
    // Monitored: Deceased set twice -> 2; Patient never set -> 0.
    // Strict: ON Deceased sees no other-label changes on Deceased nodes
    // (labels arrive in the same statement) -> 0; ON Patient sees
    // Deceased+Reviewed on patients -> 2.
    if (!(monitored_d == 2 && monitored_p == 0 && strict_d == 0 &&
          strict_p == 2)) {
      std::printf("RESULT: FAIL\n");
      return 1;
    }
  }

  // --- D5: trigger ordering. ---------------------------------------------------
  {
    auto run = [](TriggerOrdering ordering) {
      Database db;
      db.options().trigger_ordering = ordering;
      MustExec(db,
               "CREATE TRIGGER ZWriter AFTER CREATE ON 'P' FOR EACH NODE "
               "BEGIN CREATE (:Mark) END");
      MustExec(db,
               "CREATE TRIGGER AReader AFTER CREATE ON 'P' FOR EACH NODE "
               "WHEN MATCH (m:Mark) BEGIN CREATE (:Saw) END");
      MustExec(db, "CREATE (:P)");
      return MustCount(db, "MATCH (s:Saw) RETURN COUNT(*) AS c");
    };
    const int64_t creation = run(TriggerOrdering::kCreationTime);
    const int64_t by_name = run(TriggerOrdering::kName);
    std::printf("\nD5 — ordering (ZWriter installed before AReader):\n");
    std::printf("  creation-time order: reader sees writer's mark = %s "
                "(paper default)\n",
                creation ? "yes" : "no");
    std::printf("  name order:          reader sees writer's mark = %s "
                "(PostgreSQL style)\n",
                by_name ? "yes" : "no");
    if (!(creation == 1 && by_name == 0)) {
      std::printf("RESULT: FAIL\n");
      return 1;
    }
  }

  // --- Granularity cost on identical waves. -------------------------------------
  {
    auto run = [](const char* granularity, const char* item) {
      Database db;
      MustExec(db, std::string("CREATE TRIGGER T AFTER CREATE ON 'P' FOR ") +
                       granularity + " " + item +
                       " BEGIN CREATE (:Mark) END");
      bench::Stopwatch sw;
      for (int w = 0; w < 20; ++w) {
        MustExec(db, "UNWIND RANGE(1, 50) AS i CREATE (:P)");
      }
      return std::make_pair(sw.ElapsedMillis(),
                            MustCount(db, "MATCH (m:Mark) RETURN COUNT(*) "
                                          "AS c"));
    };
    auto [each_ms, each_marks] = run("EACH", "NODE");
    auto [all_ms, all_marks] = run("ALL", "NODES");
    std::printf("\ngranularity — 20 waves x 50 creations:\n");
    std::printf("  FOR EACH NODE : %7.2f ms, %lld activations\n", each_ms,
                static_cast<long long>(each_marks));
    std::printf("  FOR ALL NODES : %7.2f ms, %lld activations "
                "(%.1fx fewer)\n",
                all_ms, static_cast<long long>(all_marks),
                static_cast<double>(each_marks) /
                    static_cast<double>(all_marks));
    if (!(each_marks == 1000 && all_marks == 20)) {
      std::printf("RESULT: FAIL\n");
      return 1;
    }
  }

  std::printf(
      "\nRESULT: PASS — all ablation outcomes match docs/semantics.md\n");
  return 0;
}
