#ifndef PGTRIGGERS_COMMON_VALUE_H_
#define PGTRIGGERS_COMMON_VALUE_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"

namespace pgt {

/// Calendar date, stored as days since the Unix epoch.
struct Date {
  int64_t days = 0;
  bool operator==(const Date&) const = default;
  auto operator<=>(const Date&) const = default;
};

/// Timestamp, stored as microseconds on the engine's logical clock (the
/// engine uses a deterministic logical clock so that examples and tests are
/// reproducible; see LogicalClock in src/common/clock.h).
struct DateTime {
  int64_t micros = 0;
  bool operator==(const DateTime&) const = default;
  auto operator<=>(const DateTime&) const = default;
};

/// Runtime type tag of a Value.
enum class ValueType {
  kNull = 0,
  kBool,
  kInt,
  kDouble,
  kString,
  kList,
  kMap,
  kDate,
  kDateTime,
  kNode,  ///< reference to a node in the graph store
  kRel,   ///< reference to a relationship in the graph store
};

/// Returns a stable name ("NULL", "INTEGER", ...) for a value type.
const char* ValueTypeName(ValueType t);

/// Deepest list/map nesting a property value may have (`[[1]]` nests 2).
/// The WAL and snapshot decoders recurse once per level and refuse deeper
/// input; Transaction refuses deeper property values, so every committed
/// value can be recovered.
inline constexpr int kMaxValueDepth = 256;

/// Dynamic value: the single value model shared by node/relationship
/// properties, Cypher expression evaluation, query result rows, and trigger
/// transition variables.
///
/// Representation (docs/values.md): a 24-byte tagged union — 16-byte
/// payload + tag + inline-string length. Scalars (bool/int/double/date/
/// datetime/node/rel) live directly in the payload; strings up to
/// kSsoCapacity bytes are stored inline (the common case for labels and
/// status-sized properties); longer strings, lists, and maps fall back to a
/// shared-ownership heap block, so copying any Value is at most a reference
/// count bump — never a deep copy (mutation goes through the builders).
/// Node/relationship values store only the id; the evaluation context
/// resolves them against the store (including "ghost" records of deleted
/// items so that OLD transition variables remain readable).
class Value {
 public:
  using List = std::vector<Value>;
  // Ordered => deterministic print; transparent comparator => lookups from
  // string_view keys (e.g. `map[other.string_value()]`) skip the temporary.
  using Map = std::map<std::string, Value, std::less<>>;

  /// Longest string stored inline (no heap). Chosen to exactly reuse the
  /// payload bytes the shared_ptr fallback occupies, keeping
  /// sizeof(Value) <= 24 (asserted in tests/test_value_rep.cc).
  static constexpr size_t kSsoCapacity = 16;

  /// Default-constructed Value is NULL.
  Value() = default;

  Value(const Value& other) { CopyFrom(other); }
  Value(Value&& other) noexcept { MoveFrom(other); }
  // Assignment stages through a temporary so assigning a Value from within
  // its own payload (v = v.list_value()[i]) cannot free the source before
  // it is read — Destroy() may drop the last reference to the container
  // the right-hand side lives in.
  Value& operator=(const Value& other) {
    if (this != &other) {
      Value tmp(other);
      Destroy();
      MoveFrom(tmp);
    }
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Value tmp(std::move(other));
      Destroy();
      MoveFrom(tmp);
    }
    return *this;
  }
  ~Value() { Destroy(); }

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v(Tag::kBool);
    v.p_.b = b;
    return v;
  }
  static Value Int(int64_t i) {
    Value v(Tag::kInt);
    v.p_.i = i;
    return v;
  }
  static Value Double(double d) {
    Value v(Tag::kDouble);
    v.p_.d = d;
    return v;
  }
  static Value String(std::string_view s) {
    Value v;
    v.AssignString(s);
    return v;
  }
  static Value String(const std::string& s) {
    return String(std::string_view(s));
  }
  static Value String(const char* s) { return String(std::string_view(s)); }
  static Value MakeList(List items);
  static Value MakeMap(Map items);
  static Value MakeDate(int64_t days) {
    Value v(Tag::kDate);
    v.p_.date = pgt::Date{days};
    return v;
  }
  static Value MakeDateTime(int64_t micros) {
    Value v(Tag::kDateTime);
    v.p_.dt = pgt::DateTime{micros};
    return v;
  }
  static Value Node(NodeId id) {
    Value v(Tag::kNode);
    v.p_.node = id;
    return v;
  }
  static Value Rel(RelId id) {
    Value v(Tag::kRel);
    v.p_.rel = id;
    return v;
  }

  ValueType type() const {
    switch (tag_) {
      case Tag::kNull:
        return ValueType::kNull;
      case Tag::kBool:
        return ValueType::kBool;
      case Tag::kInt:
        return ValueType::kInt;
      case Tag::kDouble:
        return ValueType::kDouble;
      case Tag::kSsoString:
      case Tag::kHeapString:
        return ValueType::kString;
      case Tag::kList:
        return ValueType::kList;
      case Tag::kMap:
        return ValueType::kMap;
      case Tag::kDate:
        return ValueType::kDate;
      case Tag::kDateTime:
        return ValueType::kDateTime;
      case Tag::kNode:
        return ValueType::kNode;
      case Tag::kRel:
        return ValueType::kRel;
    }
    return ValueType::kNull;
  }
  const char* type_name() const { return ValueTypeName(type()); }

  bool is_null() const { return tag_ == Tag::kNull; }
  bool is_bool() const { return tag_ == Tag::kBool; }
  bool is_int() const { return tag_ == Tag::kInt; }
  bool is_double() const { return tag_ == Tag::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const {
    return tag_ == Tag::kSsoString || tag_ == Tag::kHeapString;
  }
  bool is_list() const { return tag_ == Tag::kList; }
  bool is_map() const { return tag_ == Tag::kMap; }
  bool is_node() const { return tag_ == Tag::kNode; }
  bool is_rel() const { return tag_ == Tag::kRel; }

  /// Unchecked accessors; caller must verify the type first.
  bool bool_value() const { return p_.b; }
  int64_t int_value() const { return p_.i; }
  double double_value() const { return p_.d; }
  /// The string payload. Views into an SSO value are invalidated by
  /// assigning to / destroying that Value (like a std::string's buffer);
  /// views into a heap value stay valid while any copy is alive.
  std::string_view string_value() const {
    return tag_ == Tag::kSsoString ? std::string_view(p_.sso, sso_len_)
                                   : std::string_view(*p_.str);
  }
  const List& list_value() const { return *p_.list; }
  const Map& map_value() const { return *p_.map; }
  pgt::Date date_value() const { return p_.date; }
  pgt::DateTime datetime_value() const { return p_.dt; }
  NodeId node_id() const { return p_.node; }
  RelId rel_id() const { return p_.rel; }

  /// Numeric value widened to double (valid for kInt/kDouble).
  double as_double() const {
    return is_int() ? static_cast<double>(int_value()) : double_value();
  }

  /// Structural equality with numeric coercion (1 = 1.0 is true), as in
  /// Cypher's `=` on non-null operands. NULL = NULL is *true* here; the
  /// expression evaluator implements SQL/Cypher ternary logic on top.
  bool Equals(const Value& other) const;

  /// Total order over all values, used for ORDER BY, DISTINCT and grouping:
  /// NULL sorts last; values of different types order by type tag; numerics
  /// compare across int/double. Returns <0, 0, >0.
  int TotalCompare(const Value& other) const;

  /// Rendering close to Cypher literals: strings quoted, lists/maps
  /// bracketed, nodes as `#n<id>`, relationships as `#r<id>`.
  std::string ToString() const;

  /// Whether the value nests at most kMaxValueDepth lists/maps. Descends
  /// no deeper than the limit, so it is safe on any value.
  bool WithinMaxDepth() const {
    return !(is_list() || is_map()) || NestsWithin(kMaxValueDepth);
  }

  bool operator==(const Value& other) const { return Equals(other); }

 private:
  bool NestsWithin(int levels) const;

  using StrPtr = std::shared_ptr<const std::string>;
  using ListPtr = std::shared_ptr<const List>;
  using MapPtr = std::shared_ptr<const Map>;

  enum class Tag : uint8_t {
    kNull = 0,
    kBool,
    kInt,
    kDouble,
    kSsoString,   // string inline in p_.sso, length in sso_len_
    kHeapString,  // shared heap string (> kSsoCapacity bytes)
    kList,
    kMap,
    kDate,
    kDateTime,
    kNode,
    kRel,
  };

  union Payload {
    bool b;
    int64_t i;
    double d;
    pgt::Date date;
    pgt::DateTime dt;
    NodeId node;
    RelId rel;
    char sso[kSsoCapacity];
    StrPtr str;
    ListPtr list;
    MapPtr map;

    // Lifetime of the active member is managed by Value (Destroy/CopyFrom/
    // MoveFrom switch on the tag). Zero-filled so the raw-byte copy of
    // trivial payloads never reads indeterminate bytes.
    Payload() { std::memset(this, 0, sizeof(*this)); }
    ~Payload() {}
  };

  explicit Value(Tag tag) : tag_(tag) {}

  void AssignString(std::string_view s) {
    if (s.size() <= kSsoCapacity) {
      std::memcpy(p_.sso, s.data(), s.size());
      sso_len_ = static_cast<uint8_t>(s.size());
      tag_ = Tag::kSsoString;
    } else {
      new (&p_.str) StrPtr(std::make_shared<const std::string>(s));
      tag_ = Tag::kHeapString;
    }
  }

  void CopyFrom(const Value& other) {
    switch (other.tag_) {
      case Tag::kHeapString:
        new (&p_.str) StrPtr(other.p_.str);
        break;
      case Tag::kList:
        new (&p_.list) ListPtr(other.p_.list);
        break;
      case Tag::kMap:
        new (&p_.map) MapPtr(other.p_.map);
        break;
      default:
        // Trivial payloads (including the inline string bytes).
        std::memcpy(&p_, &other.p_, sizeof(p_));
        break;
    }
    tag_ = other.tag_;
    sso_len_ = other.sso_len_;
  }

  void MoveFrom(Value& other) noexcept {
    switch (other.tag_) {
      case Tag::kHeapString:
        new (&p_.str) StrPtr(std::move(other.p_.str));
        other.p_.str.~StrPtr();
        break;
      case Tag::kList:
        new (&p_.list) ListPtr(std::move(other.p_.list));
        other.p_.list.~ListPtr();
        break;
      case Tag::kMap:
        new (&p_.map) MapPtr(std::move(other.p_.map));
        other.p_.map.~MapPtr();
        break;
      default:
        std::memcpy(&p_, &other.p_, sizeof(p_));
        break;
    }
    tag_ = other.tag_;
    sso_len_ = other.sso_len_;
    other.tag_ = Tag::kNull;
  }

  void Destroy() {
    switch (tag_) {
      case Tag::kHeapString:
        p_.str.~StrPtr();
        break;
      case Tag::kList:
        p_.list.~ListPtr();
        break;
      case Tag::kMap:
        p_.map.~MapPtr();
        break;
      default:
        break;
    }
    tag_ = Tag::kNull;
  }

  Payload p_;
  Tag tag_ = Tag::kNull;
  uint8_t sso_len_ = 0;
};

/// Comparator usable as the ordering of std::map / std::sort over Values.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return a.TotalCompare(b) < 0;
  }
};

/// Lexicographic total order over value tuples (grouping keys).
struct ValueVectorLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;
};

}  // namespace pgt

#endif  // PGTRIGGERS_COMMON_VALUE_H_
