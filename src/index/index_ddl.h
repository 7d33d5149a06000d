#ifndef PGTRIGGERS_INDEX_INDEX_DDL_H_
#define PGTRIGGERS_INDEX_INDEX_DDL_H_

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/index/index_def.h"

namespace pgt::index {

/// A parsed index-DDL command.
struct IndexDdl {
  enum class Kind { kCreate, kDrop };
  Kind kind = Kind::kCreate;
  bool unique = false;                       // kCreate
  IndexKind layout = IndexKind::kHash;       // kCreate
  std::string label;                         // kCreate / kDrop
  std::string prop;                          // kCreate / kDrop
};

/// Parser for the index DDL accepted by Database::Execute:
///
///   CREATE [UNIQUE] [RANGE] INDEX ON :Label(prop)
///   DROP INDEX ON :Label(prop)
///
/// `RANGE` selects the ordered layout (equality + range scans); the default
/// is the hash layout (equality only). Label and property may be bare
/// identifiers, backtick-quoted, or string-quoted ('Mutation'), matching
/// the trigger DDL's conventions; the leading colon is optional.
class IndexDdlParser {
 public:
  /// Parses one DDL command (must consume the whole input).
  static Result<IndexDdl> Parse(std::string_view text);
};

}  // namespace pgt::index

#endif  // PGTRIGGERS_INDEX_INDEX_DDL_H_
