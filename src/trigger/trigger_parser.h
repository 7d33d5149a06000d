#ifndef PGTRIGGERS_TRIGGER_TRIGGER_PARSER_H_
#define PGTRIGGERS_TRIGGER_TRIGGER_PARSER_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/trigger/trigger_def.h"

namespace pgt {

/// A parsed trigger-DDL command.
struct TriggerDdl {
  enum class Kind {
    kCreate,
    kDrop,
    kEnable,
    kDisable,
  };
  Kind kind = Kind::kCreate;
  TriggerDef def;    // kCreate
  std::string name;  // kDrop / kEnable / kDisable
};

/// Parser for the PG-Trigger DDL of paper Figure 1:
///
///   CREATE TRIGGER <name> <time> <event>
///   ON <label>[.<property>]
///   [REFERENCING <var> AS <alias> ...]
///   FOR <granularity> <item>
///   [WHEN <condition>]
///   BEGIN <statement> END
///
/// plus the management commands `DROP TRIGGER <name>` and
/// `ALTER TRIGGER <name> ENABLE|DISABLE` (paper Section 5.1 maps these to
/// apoc.trigger.drop / stop / start). Every command changes the catalog;
/// the read-only SHOW tables are routed elsewhere (README "Introspection
/// tables").
///
/// The WHEN condition is either a boolean expression (`OLD.x <> NEW.x`,
/// `EXISTS (NEW)-[:Risk]-(:CriticalEffect)`) or a read-only Cypher pipeline
/// starting with MATCH/UNWIND/WITH; the BEGIN...END body is a Cypher update
/// pipeline. Labels and properties may be quoted ('Mutation') or bare
/// identifiers.
class TriggerDdlParser {
 public:
  /// Parses one DDL command (must consume the whole input).
  static Result<TriggerDdl> Parse(std::string_view text);

  /// Convenience: parses a CREATE TRIGGER statement.
  static Result<TriggerDef> ParseCreate(std::string_view text);
};

}  // namespace pgt

#endif  // PGTRIGGERS_TRIGGER_TRIGGER_PARSER_H_
