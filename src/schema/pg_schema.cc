#include "src/schema/pg_schema.h"

#include <set>
#include <sstream>

#include "src/common/macros.h"

namespace pgt::schema {

const char* PropTypeName(PropType t) {
  switch (t) {
    case PropType::kString:
      return "STRING";
    case PropType::kChar:
      return "CHAR";
    case PropType::kInt:
      return "INT32";
    case PropType::kDouble:
      return "DOUBLE";
    case PropType::kBool:
      return "BOOL";
    case PropType::kDate:
      return "DATE";
    case PropType::kDateTime:
      return "DATETIME";
    case PropType::kStringArray:
      return "ARRAY[STRING]";
    case PropType::kAny:
      return "ANY";
  }
  return "?";
}

bool ValueConformsTo(const Value& v, PropType t) {
  switch (t) {
    case PropType::kString:
      return v.is_string();
    case PropType::kChar:
      return v.is_string() && v.string_value().size() == 1;
    case PropType::kInt:
      return v.is_int();
    case PropType::kDouble:
      return v.is_numeric();
    case PropType::kBool:
      return v.is_bool();
    case PropType::kDate:
      return v.type() == ValueType::kDate || v.is_string();
    case PropType::kDateTime:
      return v.type() == ValueType::kDateTime || v.is_int();
    case PropType::kStringArray: {
      if (!v.is_list()) return false;
      for (const Value& e : v.list_value()) {
        if (!e.is_string()) return false;
      }
      return true;
    }
    case PropType::kAny:
      return true;
  }
  return false;
}

const NodeTypeSpec* SchemaDef::FindNodeType(
    const std::string& type_name) const {
  for (const NodeTypeSpec& t : node_types) {
    if (t.type_name == type_name) return &t;
  }
  return nullptr;
}

const EdgeTypeSpec* SchemaDef::FindEdgeType(
    const std::string& rel_type) const {
  for (const EdgeTypeSpec& t : edge_types) {
    if (t.rel_type == rel_type) return &t;
  }
  return nullptr;
}

bool SchemaDef::IsSubtypeOf(const std::string& type_name,
                            const std::string& ancestor) const {
  std::string current = type_name;
  for (size_t guard = 0; guard <= node_types.size(); ++guard) {
    if (current == ancestor) return true;
    const NodeTypeSpec* t = FindNodeType(current);
    if (t == nullptr || t->parent.empty()) return false;
    current = t->parent;
  }
  return false;
}

Result<std::vector<PropertySpec>> SchemaDef::EffectiveProps(
    const NodeTypeSpec& t) const {
  std::vector<const NodeTypeSpec*> chain;
  const NodeTypeSpec* current = &t;
  while (true) {
    chain.push_back(current);
    if (current->parent.empty()) break;
    const NodeTypeSpec* parent = FindNodeType(current->parent);
    if (parent == nullptr) {
      return Status::NotFound("parent type '" + current->parent +
                              "' of '" + current->type_name + "' not found");
    }
    if (chain.size() > node_types.size()) {
      return Status::ConstraintViolation("inheritance cycle at '" +
                                         t.type_name + "'");
    }
    current = parent;
  }
  std::vector<PropertySpec> out;
  std::set<std::string> seen;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const PropertySpec& p : (*it)->props) {
      if (seen.insert(p.name).second) out.push_back(p);
    }
  }
  return out;
}

Result<std::vector<std::string>> SchemaDef::EffectiveLabels(
    const NodeTypeSpec& t) const {
  std::vector<std::string> out;
  const NodeTypeSpec* current = &t;
  while (true) {
    out.push_back(current->label);
    if (current->parent.empty()) break;
    const NodeTypeSpec* parent = FindNodeType(current->parent);
    if (parent == nullptr) {
      return Status::NotFound("parent type '" + current->parent +
                              "' not found");
    }
    if (out.size() > node_types.size()) {
      return Status::ConstraintViolation("inheritance cycle at '" +
                                         t.type_name + "'");
    }
    current = parent;
  }
  return out;
}

Status SchemaDef::Check() const {
  std::set<std::string> names, labels;
  for (const NodeTypeSpec& t : node_types) {
    if (!names.insert(t.type_name).second) {
      return Status::ConstraintViolation("duplicate node type '" +
                                         t.type_name + "'");
    }
    if (!labels.insert(t.label).second) {
      return Status::ConstraintViolation("duplicate node label '" + t.label +
                                         "'");
    }
    if (!t.parent.empty() && FindNodeType(t.parent) == nullptr) {
      return Status::NotFound("parent type '" + t.parent + "' of '" +
                              t.type_name + "' not found");
    }
    for (const PropertySpec& p : t.props) {
      if (p.is_key && p.optional) {
        return Status::ConstraintViolation(
            "key property '" + p.name + "' of '" + t.type_name +
            "' cannot be OPTIONAL (PG-Keys are mandatory)");
      }
    }
    // Inheritance cycle check via EffectiveProps.
    PGT_ASSIGN_OR_RETURN(auto props, EffectiveProps(t));
    (void)props;
  }
  std::set<std::string> edge_names;
  for (const EdgeTypeSpec& e : edge_types) {
    if (!edge_names.insert(e.type_name).second) {
      return Status::ConstraintViolation("duplicate edge type '" +
                                         e.type_name + "'");
    }
    if (FindNodeType(e.src_type) == nullptr) {
      return Status::NotFound("edge '" + e.type_name + "' source type '" +
                              e.src_type + "' not found");
    }
    if (FindNodeType(e.dst_type) == nullptr) {
      return Status::NotFound("edge '" + e.type_name + "' target type '" +
                              e.dst_type + "' not found");
    }
  }
  return Status::OK();
}

std::string SchemaDef::ToDdl() const {
  std::ostringstream os;
  os << "CREATE GRAPH TYPE " << name << (strict ? " STRICT" : " LOOSE")
     << " {\n";
  bool first = true;
  auto props_to_string = [](const std::vector<PropertySpec>& props) {
    std::ostringstream ps;
    if (props.empty()) return std::string();
    ps << " {";
    for (size_t i = 0; i < props.size(); ++i) {
      if (i > 0) ps << ", ";
      ps << props[i].name << " " << PropTypeName(props[i].type);
      if (props[i].optional) ps << " OPTIONAL";
      if (props[i].is_key) ps << " KEY";
    }
    ps << "}";
    return ps.str();
  };
  for (const NodeTypeSpec& t : node_types) {
    if (!first) os << ",\n";
    first = false;
    os << "  (" << t.type_name << " : " << t.label;
    if (!t.parent.empty()) os << " <: " << t.parent;
    if (t.open) os << " OPEN";
    os << props_to_string(t.props) << ")";
  }
  for (const EdgeTypeSpec& e : edge_types) {
    if (!first) os << ",\n";
    first = false;
    os << "  (:" << e.src_type << ")-[" << e.type_name << " : " << e.rel_type
       << props_to_string(e.props) << "]->(:" << e.dst_type << ")";
  }
  os << "\n}";
  return os.str();
}

}  // namespace pgt::schema
