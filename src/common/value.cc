#include "src/common/value.h"

#include <cmath>
#include <sstream>

namespace pgt {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOLEAN";
    case ValueType::kInt:
      return "INTEGER";
    case ValueType::kDouble:
      return "FLOAT";
    case ValueType::kString:
      return "STRING";
    case ValueType::kList:
      return "LIST";
    case ValueType::kMap:
      return "MAP";
    case ValueType::kDate:
      return "DATE";
    case ValueType::kDateTime:
      return "DATETIME";
    case ValueType::kNode:
      return "NODE";
    case ValueType::kRel:
      return "RELATIONSHIP";
  }
  return "UNKNOWN";
}

Value Value::MakeList(List items) {
  Value v(Tag::kList);
  new (&v.p_.list) ListPtr(std::make_shared<const List>(std::move(items)));
  return v;
}

Value Value::MakeMap(Map items) {
  Value v(Tag::kMap);
  new (&v.p_.map) MapPtr(std::make_shared<const Map>(std::move(items)));
  return v;
}

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Rank used to order values of different types in the total order.
/// Numerics share a rank so 1 < 1.5 < 2 works across int/double.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kBool:
      return 0;
    case ValueType::kInt:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
    case ValueType::kDate:
      return 3;
    case ValueType::kDateTime:
      return 4;
    case ValueType::kNode:
      return 5;
    case ValueType::kRel:
      return 6;
    case ValueType::kList:
      return 7;
    case ValueType::kMap:
      return 8;
    case ValueType::kNull:
      return 9;  // NULL sorts last
  }
  return 10;
}

}  // namespace

bool Value::NestsWithin(int levels) const {
  if (!is_list() && !is_map()) return true;
  if (levels == 0) return false;
  if (is_list()) {
    for (const Value& v : list_value()) {
      if (!v.NestsWithin(levels - 1)) return false;
    }
    return true;
  }
  for (const auto& [k, v] : map_value()) {
    if (!v.NestsWithin(levels - 1)) return false;
  }
  return true;
}

bool Value::Equals(const Value& other) const {
  const ValueType ta = type(), tb = other.type();
  if (ta == ValueType::kNull || tb == ValueType::kNull) {
    return ta == tb;
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) return int_value() == other.int_value();
    return as_double() == other.as_double();
  }
  if (ta != tb) return false;
  switch (ta) {
    case ValueType::kBool:
      return bool_value() == other.bool_value();
    case ValueType::kString:
      return string_value() == other.string_value();
    case ValueType::kDate:
      return date_value() == other.date_value();
    case ValueType::kDateTime:
      return datetime_value() == other.datetime_value();
    case ValueType::kNode:
      return node_id() == other.node_id();
    case ValueType::kRel:
      return rel_id() == other.rel_id();
    case ValueType::kList: {
      const List& a = list_value();
      const List& b = other.list_value();
      // No shared-payload shortcut: a list containing NaN must compare
      // unequal to itself, exactly as the element-wise walk reports.
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (!a[i].Equals(b[i])) return false;
      }
      return true;
    }
    case ValueType::kMap: {
      const Map& a = map_value();
      const Map& b = other.map_value();
      if (a.size() != b.size()) return false;
      auto ia = a.begin();
      auto ib = b.begin();
      for (; ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first || !ia->second.Equals(ib->second)) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

int Value::TotalCompare(const Value& other) const {
  const ValueType ta = type(), tb = other.type();
  const int ra = TypeRank(ta), rb = TypeRank(tb);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ta) {
    case ValueType::kNull:
      return 0;
    case ValueType::kBool:
      return static_cast<int>(bool_value()) -
             static_cast<int>(other.bool_value());
    case ValueType::kInt:
    case ValueType::kDouble:
      if (is_int() && other.is_int()) {
        if (int_value() < other.int_value()) return -1;
        if (int_value() > other.int_value()) return 1;
        return 0;
      }
      return CompareDoubles(as_double(), other.as_double());
    case ValueType::kString:
      return string_value().compare(other.string_value());
    case ValueType::kDate:
      return CompareDoubles(static_cast<double>(date_value().days),
                            static_cast<double>(other.date_value().days));
    case ValueType::kDateTime:
      return CompareDoubles(static_cast<double>(datetime_value().micros),
                            static_cast<double>(other.datetime_value().micros));
    case ValueType::kNode:
      if (node_id().value < other.node_id().value) return -1;
      if (node_id().value > other.node_id().value) return 1;
      return 0;
    case ValueType::kRel:
      if (rel_id().value < other.rel_id().value) return -1;
      if (rel_id().value > other.rel_id().value) return 1;
      return 0;
    case ValueType::kList: {
      const List& a = list_value();
      const List& b = other.list_value();
      const size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        const int c = a[i].TotalCompare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() < b.size()) return -1;
      if (a.size() > b.size()) return 1;
      return 0;
    }
    case ValueType::kMap: {
      const Map& a = map_value();
      const Map& b = other.map_value();
      auto ia = a.begin();
      auto ib = b.begin();
      for (; ia != a.end() && ib != b.end(); ++ia, ++ib) {
        const int kc = ia->first.compare(ib->first);
        if (kc != 0) return kc;
        const int vc = ia->second.TotalCompare(ib->second);
        if (vc != 0) return vc;
      }
      if (a.size() < b.size()) return -1;
      if (a.size() > b.size()) return 1;
      return 0;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (type()) {
    case ValueType::kNull:
      os << "null";
      break;
    case ValueType::kBool:
      os << (bool_value() ? "true" : "false");
      break;
    case ValueType::kInt:
      os << int_value();
      break;
    case ValueType::kDouble: {
      const double d = double_value();
      if (std::isfinite(d) && d == std::floor(d) &&
          std::abs(d) < 1e15) {
        os << static_cast<int64_t>(d) << ".0";
      } else {
        os << d;
      }
      break;
    }
    case ValueType::kString:
      os << '\'' << string_value() << '\'';
      break;
    case ValueType::kDate:
      os << "date(" << date_value().days << ")";
      break;
    case ValueType::kDateTime:
      os << "datetime(" << datetime_value().micros << ")";
      break;
    case ValueType::kNode:
      os << "#n" << node_id().value;
      break;
    case ValueType::kRel:
      os << "#r" << rel_id().value;
      break;
    case ValueType::kList: {
      os << '[';
      bool first = true;
      for (const Value& v : list_value()) {
        if (!first) os << ", ";
        first = false;
        os << v.ToString();
      }
      os << ']';
      break;
    }
    case ValueType::kMap: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : map_value()) {
        if (!first) os << ", ";
        first = false;
        os << k << ": " << v.ToString();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

bool ValueVectorLess::operator()(const std::vector<Value>& a,
                                 const std::vector<Value>& b) const {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].TotalCompare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace pgt
