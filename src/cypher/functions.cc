#include "src/cypher/functions.h"

#include <cmath>
#include <cstdint>

#include "src/common/str_util.h"

namespace pgt::cypher {

namespace {

Status ArityError(const std::string& name, size_t want, size_t got, int line,
                  int col) {
  return Status::InvalidArgument(
      name + " expects " + std::to_string(want) + " argument(s), got " +
      std::to_string(got) + " at " + std::to_string(line) + ":" +
      std::to_string(col));
}

Status FnTypeError(const std::string& name, const std::string& msg, int line,
                   int col) {
  return Status::TypeError(name + ": " + msg + " at " + std::to_string(line) +
                           ":" + std::to_string(col));
}

/// The longest list range() builds. Its elements are materialized at
/// once, so an unbounded count would exhaust memory instead of failing.
constexpr uint64_t kMaxRangeLength = uint64_t{1} << 24;

std::string RawString(const Value& v) {
  return v.is_string() ? std::string(v.string_value()) : v.ToString();
}

}  // namespace

Result<Value> CallBuiltin(const std::string& name,
                          const std::vector<Value>& args, EvalContext& ctx,
                          int line, int col) {
  const std::string fn = ToLower(name);
  const size_t n = args.size();
  auto arity = [&](size_t want) -> Status {
    if (n != want) return ArityError(name, want, n, line, col);
    return Status::OK();
  };

  if (fn == "id") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (args[0].is_node()) {
      return Value::Int(static_cast<int64_t>(args[0].node_id().value));
    }
    if (args[0].is_rel()) {
      return Value::Int(static_cast<int64_t>(args[0].rel_id().value));
    }
    return FnTypeError(name, "requires a node or relationship", line, col);
  }
  if (fn == "labels") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_node()) {
      return FnTypeError(name, "requires a node", line, col);
    }
    Value::List out;
    for (LabelId l : ctx.ReadNodeLabels(args[0].node_id())) {
      out.push_back(Value::String(ctx.store()->LabelName(l)));
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "type") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_rel()) {
      return FnTypeError(name, "requires a relationship", line, col);
    }
    const StoreView::RelInfo r = ctx.store()->Rel(args[0].rel_id());
    if (!r.exists) return Value::Null();
    return Value::String(ctx.store()->RelTypeName(r.type));
  }
  if (fn == "keys" || fn == "properties") {
    PGT_RETURN_IF_ERROR(arity(1));
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    PropMap props;
    if (v.is_node()) {
      if (const PropMap* p = ctx.store()->NodeProps(v.node_id())) {
        props = *p;
      } else if (const DeletedNodeImage* g = ctx.GhostNode(v.node_id())) {
        props = g->props;
      }
    } else if (v.is_rel()) {
      if (const PropMap* p = ctx.store()->RelProps(v.rel_id())) {
        props = *p;
      } else if (const DeletedRelImage* g = ctx.GhostRel(v.rel_id())) {
        props = g->props;
      }
    } else if (v.is_map()) {
      if (fn == "keys") {
        Value::List out;
        for (const auto& [k, mv] : v.map_value()) {
          (void)mv;
          out.push_back(Value::String(k));
        }
        return Value::MakeList(std::move(out));
      }
      return v;
    } else {
      return FnTypeError(name, "requires a node, relationship or map", line,
                         col);
    }
    if (fn == "keys") {
      Value::List out;
      for (const auto& [k, pv] : props) {
        (void)pv;
        out.push_back(Value::String(ctx.store()->PropKeyName(k)));
      }
      return Value::MakeList(std::move(out));
    }
    Value::Map out;
    for (const auto& [k, pv] : props) {
      out[ctx.store()->PropKeyName(k)] = pv;
    }
    return Value::MakeMap(std::move(out));
  }
  if (fn == "startnode" || fn == "endnode") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_rel()) {
      return FnTypeError(name, "requires a relationship", line, col);
    }
    const StoreView::RelInfo r = ctx.store()->Rel(args[0].rel_id());
    if (!r.exists) {
      const DeletedRelImage* g = ctx.GhostRel(args[0].rel_id());
      if (g == nullptr) return Value::Null();
      return Value::Node(fn == "startnode" ? g->src : g->dst);
    }
    return Value::Node(fn == "startnode" ? r.src : r.dst);
  }
  if (fn == "exists") {
    PGT_RETURN_IF_ERROR(arity(1));
    return Value::Bool(!args[0].is_null());
  }
  if (fn == "coalesce") {
    for (const Value& v : args) {
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (fn == "size" || fn == "length") {
    PGT_RETURN_IF_ERROR(arity(1));
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    if (v.is_list()) {
      return Value::Int(static_cast<int64_t>(v.list_value().size()));
    }
    if (v.is_string()) {
      return Value::Int(static_cast<int64_t>(v.string_value().size()));
    }
    if (v.is_map()) {
      return Value::Int(static_cast<int64_t>(v.map_value().size()));
    }
    return FnTypeError(name, "requires a list, string or map", line, col);
  }
  if (fn == "head" || fn == "last") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) {
      return FnTypeError(name, "requires a list", line, col);
    }
    const auto& list = args[0].list_value();
    if (list.empty()) return Value::Null();
    return fn == "head" ? list.front() : list.back();
  }
  if (fn == "tail") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_list()) {
      return FnTypeError(name, "requires a list", line, col);
    }
    const auto& list = args[0].list_value();
    Value::List out(list.begin() + (list.empty() ? 0 : 1), list.end());
    return Value::MakeList(std::move(out));
  }
  if (fn == "range") {
    if (n != 2 && n != 3) return ArityError(name, 2, n, line, col);
    for (const Value& v : args) {
      if (!v.is_int()) return FnTypeError(name, "requires integers", line,
                                          col);
    }
    const int64_t lo = args[0].int_value();
    const int64_t hi = args[1].int_value();
    const int64_t step = n == 3 ? args[2].int_value() : 1;
    if (step == 0) return FnTypeError(name, "step must be non-zero", line,
                                      col);
    // The element count comes first, in unsigned arithmetic: the distance
    // between two int64 values and the magnitude of any step fit in
    // uint64, and no element is ever computed past `hi`.
    Value::List out;
    if (step > 0 ? lo > hi : lo < hi) return Value::MakeList(std::move(out));
    const uint64_t distance = step > 0
                                  ? static_cast<uint64_t>(hi) -
                                        static_cast<uint64_t>(lo)
                                  : static_cast<uint64_t>(lo) -
                                        static_cast<uint64_t>(hi);
    const uint64_t magnitude =
        step > 0 ? static_cast<uint64_t>(step)
                 : static_cast<uint64_t>(-(step + 1)) + 1;
    const uint64_t last = distance / magnitude;  // count - 1
    if (last >= kMaxRangeLength) {
      return FnTypeError(name,
                         "would produce more than " +
                             std::to_string(kMaxRangeLength) + " elements",
                         line, col);
    }
    out.reserve(last + 1);
    for (uint64_t k = 0; k <= last; ++k) {
      const uint64_t offset = k * magnitude;
      const uint64_t lo_bits = static_cast<uint64_t>(lo);
      out.push_back(Value::Int(static_cast<int64_t>(
          step > 0 ? lo_bits + offset : lo_bits - offset)));
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "abs" || fn == "sign" || fn == "ceil" || fn == "floor" ||
      fn == "round" || fn == "sqrt") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_numeric()) {
      return FnTypeError(name, "requires a number", line, col);
    }
    if (fn == "abs") {
      if (args[0].is_int()) {
        if (args[0].int_value() == INT64_MIN) {
          return FnTypeError(name, "integer overflow", line, col);
        }
        return Value::Int(std::abs(args[0].int_value()));
      }
      return Value::Double(std::fabs(args[0].double_value()));
    }
    const double d = args[0].as_double();
    if (fn == "sign") return Value::Int(d > 0 ? 1 : d < 0 ? -1 : 0);
    if (fn == "ceil") return Value::Double(std::ceil(d));
    if (fn == "floor") return Value::Double(std::floor(d));
    if (fn == "round") return Value::Double(std::round(d));
    if (d < 0) return FnTypeError(name, "of a negative number", line, col);
    return Value::Double(std::sqrt(d));
  }
  if (fn == "tointeger") {
    PGT_RETURN_IF_ERROR(arity(1));
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    if (v.is_int()) return v;
    if (v.is_double()) return Value::Int(static_cast<int64_t>(v.double_value()));
    if (v.is_string()) {
      try {
        const std::string s(v.string_value());
        size_t idx = 0;
        const int64_t x = std::stoll(s, &idx);
        if (idx == s.size()) return Value::Int(x);
      } catch (...) {
      }
      return Value::Null();
    }
    if (v.is_bool()) return Value::Int(v.bool_value() ? 1 : 0);
    return Value::Null();
  }
  if (fn == "tofloat") {
    PGT_RETURN_IF_ERROR(arity(1));
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    if (v.is_double()) return v;
    if (v.is_int()) return Value::Double(static_cast<double>(v.int_value()));
    if (v.is_string()) {
      try {
        const std::string s(v.string_value());
        size_t idx = 0;
        const double x = std::stod(s, &idx);
        if (idx == s.size()) return Value::Double(x);
      } catch (...) {
      }
      return Value::Null();
    }
    return Value::Null();
  }
  if (fn == "tostring") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    return Value::String(RawString(args[0]));
  }
  if (fn == "toboolean") {
    PGT_RETURN_IF_ERROR(arity(1));
    const Value& v = args[0];
    if (v.is_null()) return Value::Null();
    if (v.is_bool()) return v;
    if (v.is_string()) {
      if (EqualsIgnoreCase(v.string_value(), "true")) {
        return Value::Bool(true);
      }
      if (EqualsIgnoreCase(v.string_value(), "false")) {
        return Value::Bool(false);
      }
      return Value::Null();
    }
    return Value::Null();
  }
  if (fn == "toupper" || fn == "tolower" || fn == "trim" ||
      fn == "reverse") {
    PGT_RETURN_IF_ERROR(arity(1));
    if (args[0].is_null()) return Value::Null();
    if (fn == "reverse" && args[0].is_list()) {
      Value::List out(args[0].list_value().rbegin(),
                      args[0].list_value().rend());
      return Value::MakeList(std::move(out));
    }
    if (!args[0].is_string()) {
      return FnTypeError(name, "requires a string", line, col);
    }
    const std::string_view s = args[0].string_value();
    if (fn == "toupper") return Value::String(ToUpper(s));
    if (fn == "tolower") return Value::String(ToLower(s));
    if (fn == "trim") return Value::String(std::string(Trim(s)));
    return Value::String(std::string(s.rbegin(), s.rend()));
  }
  if (fn == "split") {
    PGT_RETURN_IF_ERROR(arity(2));
    if (args[0].is_null() || args[1].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_string()) {
      return FnTypeError(name, "requires strings", line, col);
    }
    const std::string_view sep = args[1].string_value();
    Value::List out;
    if (sep.empty()) {
      out.push_back(args[0]);
    } else {
      const std::string_view s = args[0].string_value();
      size_t start = 0;
      while (true) {
        const size_t p = s.find(sep, start);
        if (p == std::string_view::npos) {
          out.push_back(Value::String(s.substr(start)));
          break;
        }
        out.push_back(Value::String(s.substr(start, p - start)));
        start = p + sep.size();
      }
    }
    return Value::MakeList(std::move(out));
  }
  if (fn == "substring") {
    if (n != 2 && n != 3) return ArityError(name, 2, n, line, col);
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_int() ||
        (n == 3 && !args[2].is_int())) {
      return FnTypeError(name, "requires (string, int[, int])", line, col);
    }
    const std::string_view s = args[0].string_value();
    const int64_t start = args[1].int_value();
    if (start < 0 || static_cast<size_t>(start) > s.size()) {
      return Value::String("");
    }
    if (n == 3) {
      const int64_t len = std::max<int64_t>(0, args[2].int_value());
      return Value::String(s.substr(static_cast<size_t>(start),
                                    static_cast<size_t>(len)));
    }
    return Value::String(s.substr(static_cast<size_t>(start)));
  }
  if (fn == "replace") {
    PGT_RETURN_IF_ERROR(arity(3));
    for (const Value& v : args) {
      if (v.is_null()) return Value::Null();
      if (!v.is_string()) {
        return FnTypeError(name, "requires strings", line, col);
      }
    }
    std::string s(args[0].string_value());
    const std::string_view from = args[1].string_value();
    const std::string_view to = args[2].string_value();
    if (from.empty()) return Value::String(std::move(s));
    size_t pos = 0;
    while ((pos = s.find(from, pos)) != std::string::npos) {
      s.replace(pos, from.size(), to);
      pos += to.size();
    }
    return Value::String(std::move(s));
  }
  if (fn == "left" || fn == "right") {
    PGT_RETURN_IF_ERROR(arity(2));
    if (args[0].is_null()) return Value::Null();
    if (!args[0].is_string() || !args[1].is_int()) {
      return FnTypeError(name, "requires (string, int)", line, col);
    }
    const std::string_view s = args[0].string_value();
    const size_t k = static_cast<size_t>(
        std::min<int64_t>(std::max<int64_t>(0, args[1].int_value()),
                          static_cast<int64_t>(s.size())));
    return Value::String(fn == "left" ? s.substr(0, k)
                                      : s.substr(s.size() - k));
  }
  // Clock-reading functions advance the logical clock and are therefore
  // unavailable in clockless (snapshot) contexts, where statements must be
  // side-effect free.
  auto need_clock = [&]() -> Status {
    if (ctx.clock != nullptr) return Status::OK();
    return Status::FailedPrecondition(
        name + "() requires a transactional clock and is not available in "
               "snapshot reads");
  };
  if (fn == "datetime") {
    if (n == 0) {
      PGT_RETURN_IF_ERROR(need_clock());
      return Value::MakeDateTime(ctx.clock->NextMicros());
    }
    if (n == 1 && args[0].is_int()) {
      return Value::MakeDateTime(args[0].int_value());
    }
    return FnTypeError(name, "expects no arguments or an integer", line, col);
  }
  if (fn == "date") {
    if (n == 0) {
      PGT_RETURN_IF_ERROR(need_clock());
      return Value::MakeDate(ctx.clock->PeekMicros() / 86'400'000'000LL);
    }
    if (n == 1 && args[0].is_int()) return Value::MakeDate(args[0].int_value());
    return FnTypeError(name, "expects no arguments or an integer", line, col);
  }
  if (fn == "timestamp") {
    PGT_RETURN_IF_ERROR(arity(0));
    PGT_RETURN_IF_ERROR(need_clock());
    return Value::Int(ctx.clock->NextMicros());
  }
  return Status::NotFound("unknown function '" + name + "' at " +
                          std::to_string(line) + ":" + std::to_string(col));
}

void ProcedureRegistry::Register(const std::string& name,
                                 std::vector<std::string> outputs,
                                 Procedure fn) {
  Entry e;
  e.outputs = std::move(outputs);
  e.fn = std::move(fn);
  procs_[ToLower(name)] = std::move(e);
}

const ProcedureRegistry::Entry* ProcedureRegistry::Lookup(
    std::string_view name) const {
  auto it = procs_.find(ToLower(name));
  return it == procs_.end() ? nullptr : &it->second;
}

}  // namespace pgt::cypher
