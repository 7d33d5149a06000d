#include "src/wal/serialize.h"

#include <cstring>

#include "src/common/macros.h"

namespace pgt::wal {

namespace {

// Sanity bound on decoded element counts: a flipped bit in a count field
// must not turn into a multi-gigabyte allocation before the CRC mismatch is
// noticed. Records are CRC-checked before decoding, so this only guards
// internal misuse and snapshot sections.
constexpr uint32_t kMaxCount = 1u << 28;

Status CheckCount(uint32_t n) {
  if (n > kMaxCount) {
    return Status::IoError("decode: implausible element count " +
                           std::to_string(n));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- Encoder

void Encoder::PutDouble(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  PutU64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void Encoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      PutU8(v.bool_value() ? 1 : 0);
      break;
    case ValueType::kInt:
      PutI64(v.int_value());
      break;
    case ValueType::kDouble:
      PutDouble(v.double_value());
      break;
    case ValueType::kString:
      PutString(v.string_value());
      break;
    case ValueType::kList: {
      const Value::List& items = v.list_value();
      PutU32(static_cast<uint32_t>(items.size()));
      for (const Value& item : items) PutValue(item);
      break;
    }
    case ValueType::kMap: {
      const Value::Map& items = v.map_value();
      PutU32(static_cast<uint32_t>(items.size()));
      for (const auto& [key, item] : items) {
        PutString(key);
        PutValue(item);
      }
      break;
    }
    case ValueType::kDate:
      PutI64(v.date_value().days);
      break;
    case ValueType::kDateTime:
      PutI64(v.datetime_value().micros);
      break;
    case ValueType::kNode:
      PutU64(v.node_id().value);
      break;
    case ValueType::kRel:
      PutU64(v.rel_id().value);
      break;
  }
}

void Encoder::PutPropMap(const PropMap& m) {
  PutU32(static_cast<uint32_t>(m.size()));
  for (const auto& [key, value] : m) {
    PutU32(key);
    PutValue(value);
  }
}

// ---------------------------------------------------------------- Decoder

template <typename T>
Status Decoder::GetFixed(T* out) {
  PGT_RETURN_IF_ERROR(Need(sizeof(T)));
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += sizeof(T);
  *out = v;
  return Status::OK();
}

Status Decoder::GetU8(uint8_t* out) { return GetFixed(out); }
Status Decoder::GetU32(uint32_t* out) { return GetFixed(out); }
Status Decoder::GetU64(uint64_t* out) { return GetFixed(out); }

Status Decoder::GetI64(int64_t* out) {
  uint64_t bits;
  PGT_RETURN_IF_ERROR(GetU64(&bits));
  *out = static_cast<int64_t>(bits);
  return Status::OK();
}

Status Decoder::GetDouble(double* out) {
  uint64_t bits;
  PGT_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status Decoder::GetString(std::string_view* out) {
  uint32_t len;
  PGT_RETURN_IF_ERROR(GetU32(&len));
  PGT_RETURN_IF_ERROR(Need(len));
  *out = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetValueAt(Value* out, int depth) {
  uint8_t tag;
  PGT_RETURN_IF_ERROR(GetU8(&tag));
  const ValueType type = static_cast<ValueType>(tag);
  if ((type == ValueType::kList || type == ValueType::kMap) &&
      depth >= kMaxValueDepth) {
    return Status::IoError("decode: value nests deeper than " +
                           std::to_string(kMaxValueDepth) + " lists/maps");
  }
  switch (type) {
    case ValueType::kNull:
      *out = Value();
      return Status::OK();
    case ValueType::kBool: {
      uint8_t b;
      PGT_RETURN_IF_ERROR(GetU8(&b));
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    case ValueType::kInt: {
      int64_t i;
      PGT_RETURN_IF_ERROR(GetI64(&i));
      *out = Value::Int(i);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d;
      PGT_RETURN_IF_ERROR(GetDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string_view s;
      PGT_RETURN_IF_ERROR(GetString(&s));
      *out = Value::String(s);
      return Status::OK();
    }
    case ValueType::kList: {
      uint32_t n;
      PGT_RETURN_IF_ERROR(GetU32(&n));
      PGT_RETURN_IF_ERROR(CheckCount(n));
      Value::List items;
      items.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        Value item;
        PGT_RETURN_IF_ERROR(GetValueAt(&item, depth + 1));
        items.push_back(std::move(item));
      }
      *out = Value::MakeList(std::move(items));
      return Status::OK();
    }
    case ValueType::kMap: {
      uint32_t n;
      PGT_RETURN_IF_ERROR(GetU32(&n));
      PGT_RETURN_IF_ERROR(CheckCount(n));
      Value::Map items;
      for (uint32_t i = 0; i < n; ++i) {
        std::string_view key;
        PGT_RETURN_IF_ERROR(GetString(&key));
        Value item;
        PGT_RETURN_IF_ERROR(GetValueAt(&item, depth + 1));
        items.emplace(std::string(key), std::move(item));
      }
      *out = Value::MakeMap(std::move(items));
      return Status::OK();
    }
    case ValueType::kDate: {
      int64_t days;
      PGT_RETURN_IF_ERROR(GetI64(&days));
      *out = Value::MakeDate(days);
      return Status::OK();
    }
    case ValueType::kDateTime: {
      int64_t micros;
      PGT_RETURN_IF_ERROR(GetI64(&micros));
      *out = Value::MakeDateTime(micros);
      return Status::OK();
    }
    case ValueType::kNode: {
      uint64_t id;
      PGT_RETURN_IF_ERROR(GetU64(&id));
      *out = Value::Node(NodeId{id});
      return Status::OK();
    }
    case ValueType::kRel: {
      uint64_t id;
      PGT_RETURN_IF_ERROR(GetU64(&id));
      *out = Value::Rel(RelId{id});
      return Status::OK();
    }
  }
  return Status::IoError("decode: unknown value tag " + std::to_string(tag));
}

Status Decoder::GetPropMap(PropMap* out) {
  uint32_t n;
  PGT_RETURN_IF_ERROR(GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t key;
    PGT_RETURN_IF_ERROR(GetU32(&key));
    Value v;
    PGT_RETURN_IF_ERROR(GetValue(&v));
    out->Set(key, std::move(v));
  }
  return Status::OK();
}

}  // namespace pgt::wal
