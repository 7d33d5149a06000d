#ifndef PGTRIGGERS_SCHEMA_PG_SCHEMA_H_
#define PGTRIGGERS_SCHEMA_PG_SCHEMA_H_

#include <optional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/value.h"

namespace pgt::schema {

/// Property data types of the PG-Schema subset (paper Figure 4 uses
/// STRING, CHAR, DATE, INT32, BOOL, ARRAY[string], DATETIME; KEY is a
/// constraint, not a type).
enum class PropType {
  kString,
  kChar,
  kInt,     // covers the paper's INT32
  kDouble,
  kBool,
  kDate,
  kDateTime,
  kStringArray,
  kAny,     // used by OPEN types for unconstrained extras
};

const char* PropTypeName(PropType t);

/// Returns whether a runtime value conforms to the declared type.
bool ValueConformsTo(const Value& v, PropType t);

/// One declared property: `vaccinated INT32 OPTIONAL`, `ssn STRING KEY`.
struct PropertySpec {
  std::string name;
  PropType type = PropType::kString;
  bool optional = false;
  bool is_key = false;  // PG-Keys: unique + mandatory within the type
};

/// A node type: label, optional supertype (type hierarchy with
/// inheritance, e.g. HospitalizedPatient <: Patient), properties, and
/// openness (OPEN types accept arbitrary extra properties — the paper's
/// Alert nodes are OPEN).
struct NodeTypeSpec {
  std::string type_name;   // e.g. "HospitalizedPatientType"
  std::string label;       // e.g. "HospitalizedPatient"
  std::string parent;      // parent type_name, empty = none
  bool open = false;
  std::vector<PropertySpec> props;
};

/// An edge type: `(:PatientType)-[HasSampleType: HasSample]->(:SequenceType)`.
struct EdgeTypeSpec {
  std::string type_name;
  std::string rel_type;    // relationship type label, e.g. "TreatedAt"
  std::string src_type;    // node type_name
  std::string dst_type;    // node type_name
  std::vector<PropertySpec> props;
};

/// A graph type (paper Figure 5). STRICT graph types require every node to
/// match exactly one declared node type (via its label set) and every
/// relationship to match a declared edge type; LOOSE graph types only
/// validate items whose labels match a declared type.
struct SchemaDef {
  std::string name;
  bool strict = true;
  std::vector<NodeTypeSpec> node_types;
  std::vector<EdgeTypeSpec> edge_types;

  const NodeTypeSpec* FindNodeType(const std::string& type_name) const;
  const EdgeTypeSpec* FindEdgeType(const std::string& rel_type) const;

  /// True if `type_name` equals `ancestor` or inherits from it.
  bool IsSubtypeOf(const std::string& type_name,
                   const std::string& ancestor) const;

  /// All properties of a node type including inherited ones (parent first).
  Result<std::vector<PropertySpec>> EffectiveProps(
      const NodeTypeSpec& t) const;

  /// Labels a conforming instance of `t` carries: its own label plus all
  /// ancestors' labels (multi-label encoding of the hierarchy; the paper's
  /// Section 6.3 notes Neo4j instead models this with Isa relationships).
  Result<std::vector<std::string>> EffectiveLabels(
      const NodeTypeSpec& t) const;

  /// Structural sanity: parents exist, no inheritance cycles, unique names
  /// and labels, edge endpoints exist, key properties not optional.
  Status Check() const;

  /// Renders the schema in the Figure 5-style DDL accepted by
  /// ParseSchemaDdl (round-trips).
  std::string ToDdl() const;
};

/// Parses the PG-Schema DDL subset:
///
///   CREATE GRAPH TYPE <Name> [STRICT | LOOSE] {
///     (TypeName : Label [<: ParentTypeName] [OPEN]
///        { prop TYPE [OPTIONAL] [KEY], ... }),
///     (:SrcTypeName)-[TypeName : RelType {props}]->(:DstTypeName),
///     ...
///   }
Result<SchemaDef> ParseSchemaDdl(std::string_view text);

}  // namespace pgt::schema

#endif  // PGTRIGGERS_SCHEMA_PG_SCHEMA_H_
