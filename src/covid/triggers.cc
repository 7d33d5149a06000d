#include "src/covid/triggers.h"

#include "src/common/macros.h"

namespace pgt::covid {

// The listings below are the Section 6.2 triggers in our concrete syntax.
// Differences from the paper's informal listings (all mechanical):
//  * the hierarchy is label-encoded, so (p:HospitalizedPatient:IcuPatient)
//    matches nodes carrying both labels (the paper notes Neo4j needs Isa
//    relationships instead — Section 6.3);
//  * `NewIcuPat / TotalIcuPat > 0.1` uses toFloat to avoid Cypher integer
//    division (which would always yield 0);
//  * the relocation actions render the paper's `THEN BEGIN ... END`
//    pseudo-syntax as plain Cypher with FOREACH over collected movers;
//  * bindings established in WHEN flow into the action
//    (docs/semantics.md D2), so `l`, `h`, etc. are usable after BEGIN
//    exactly as the paper intends.
std::vector<std::string> PaperTriggerDdl() {
  return {
      // 6.2.1 — reaction to node creation.
      R"ddl(CREATE TRIGGER NewCriticalMutation
AFTER CREATE
ON 'Mutation'
FOR EACH NODE
WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
BEGIN
  CREATE (:Alert {time: DATETIME(),
                  desc: 'New critical mutation',
                  mutation: NEW.name})
END)ddl",

      // 6.2.1 — reaction to relationship creation; condition merged with
      // a pattern query binding l (used in the action).
      R"ddl(CREATE TRIGGER NewCriticalLineage
AFTER CREATE
ON 'BelongsTo'
FOR EACH RELATIONSHIP
WHEN
  MATCH (s:Sequence)-[NEW]-(l:Lineage)
  WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) }
BEGIN
  CREATE (:Alert {time: DATETIME(),
                  desc: 'New critical lineage',
                  lineage: l.name})
END)ddl",

      // 6.2.1 — property-change monitor with OLD/NEW comparison.
      R"ddl(CREATE TRIGGER WhoDesignationChange
AFTER SET
ON 'Lineage'.'whoDesignation'
FOR EACH NODE
WHEN OLD.whoDesignation <> NEW.whoDesignation
BEGIN
  CREATE (:Alert {time: DATETIME(),
                  desc: 'New Designation for an existing Lineage'})
END)ddl",

      // 6.2.2 — set granularity, fixed threshold.
      R"ddl(CREATE TRIGGER IcuPatientsOverThreshold
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH COUNT(p) AS icuPat
  WHERE icuPat > 50
BEGIN
  CREATE (:Alert {time: DATETIME(),
                  desc: 'ICU patients at Sacco Hospital are more than 50'})
END)ddl",

      // 6.2.2 — set granularity, state comparison via NEWNODES.
      R"ddl(CREATE TRIGGER IcuPatientIncrease
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH COUNT(p) AS TotalIcuPat
  MATCH (pn:NEWNODES)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH TotalIcuPat, COUNT(pn) AS NewIcuPat
  WHERE TotalIcuPat > 0 AND toFloat(NewIcuPat) / TotalIcuPat > 0.1
BEGIN
  CREATE (:Alert {time: DATETIME(),
                  desc: 'ICU patients at Sacco Hospital have increased by more than 10%'})
END)ddl",

      // 6.2.3 — side effects in the action: relocate the newly admitted
      // Sacco patients to Meyer when Sacco exceeds capacity and Meyer can
      // absorb them.
      R"ddl(CREATE TRIGGER IcuPatientMove
AFTER CREATE
ON 'IcuPatient'
FOR ALL NODES
WHEN
  MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(h:Hospital {name: 'Sacco'})
  WITH h, COUNT(p) AS TotalIcuPat
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (ht:Hospital {name: 'Meyer'})
  OPTIONAL MATCH (pt:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(ht)
  WITH ht, COUNT(pt) AS MeyerICU
  MATCH (pn:NEWNODES)-[c:TreatedAt]-(:Hospital {name: 'Sacco'})
  WITH ht, MeyerICU, COLLECT(pn) AS movers, COLLECT(c) AS oldRels
  WHERE MeyerICU + SIZE(movers) <= ht.icuBeds
  FOREACH (r IN oldRels | DELETE r)
  FOREACH (p IN movers | CREATE (p)-[:TreatedAt]->(ht))
END)ddl",

      // 6.2.3 — item granularity: move each newly admitted patient of an
      // overflowing Lombardy hospital to the closest connected hospital.
      R"ddl(CREATE TRIGGER MoveToNearHospital
AFTER CREATE
ON 'IcuPatient'
FOR EACH NODE
WHEN
  MATCH (NEW)-[:TreatedAt]-(h:Hospital)-[:LocatedIn]-(:Region {name: 'Lombardy'})
  MATCH (p:IcuPatient)-[:TreatedAt]-(h)
  WITH h, COUNT(p) AS TotalIcuPat
  WHERE TotalIcuPat > h.icuBeds
BEGIN
  MATCH (NEW)-[c:TreatedAt]-(h)
  MATCH (h)-[ct:ConnectedTo]-(hc:Hospital)
  WITH NEW AS pn, c, hc, ct ORDER BY ct.distance LIMIT 1
  DELETE c
  CREATE (pn)-[:TreatedAt]->(hc)
END)ddl",
  };
}

std::vector<std::string> PaperTriggerNames() {
  return {"NewCriticalMutation",      "NewCriticalLineage",
          "WhoDesignationChange",     "IcuPatientsOverThreshold",
          "IcuPatientIncrease",       "IcuPatientMove",
          "MoveToNearHospital"};
}

std::string UnguardedMoveTriggerDdl() {
  // The Section 6.2.3 closing discussion: relocation reacting to the
  // relocation relationships themselves, *without* testing the
  // destination's bed availability — "failure to do the test may lead to
  // potential non-termination". Patients bounce between saturated
  // hospitals until the engine's cascade depth limit aborts the
  // transaction.
  return R"ddl(CREATE TRIGGER CascadingRelocation
AFTER CREATE
ON 'TreatedAt'
FOR EACH RELATIONSHIP
WHEN
  MATCH (p:IcuPatient)-[NEW]-(h:Hospital)
  MATCH (q:IcuPatient)-[:TreatedAt]-(h)
  WITH p, h, COUNT(q) AS icu
  WHERE icu > h.icuBeds
BEGIN
  MATCH (p)-[c:TreatedAt]-(h)
  MATCH (h)-[ct:ConnectedTo]-(hc:Hospital)
  WITH p, c, hc, ct ORDER BY ct.distance LIMIT 1
  DELETE c
  CREATE (p)-[:TreatedAt]->(hc)
END)ddl";
}

Status InstallPaperTriggers(Database& db,
                            const std::vector<std::string>& only) {
  const std::vector<std::string> ddl = PaperTriggerDdl();
  const std::vector<std::string> names = PaperTriggerNames();
  for (size_t i = 0; i < ddl.size(); ++i) {
    if (!only.empty()) {
      bool wanted = false;
      for (const std::string& n : only) {
        if (n == names[i]) wanted = true;
      }
      if (!wanted) continue;
    }
    PGT_RETURN_IF_ERROR(db.Execute(ddl[i]).status());
  }
  return Status::OK();
}

}  // namespace pgt::covid
