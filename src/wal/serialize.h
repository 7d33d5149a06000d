#ifndef PGTRIGGERS_WAL_SERIALIZE_H_
#define PGTRIGGERS_WAL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/prop_map.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace pgt::wal {

/// Append-only little-endian binary encoder: the byte producer for WAL
/// records and snapshot sections. Fixed-width integers (no varints) — WAL
/// volume is dominated by fsync, not bytes, and fixed widths keep the
/// decoder branch-free and the format trivially auditable in a hex dump.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(static_cast<uint64_t>(v)); }
  void PutDouble(double d);
  /// u32 length + raw bytes.
  void PutString(std::string_view s);
  void PutValue(const Value& v);
  void PutPropMap(const PropMap& m);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  void Clear() { buf_.clear(); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string buf_;
};

/// Bounds-checked decoder over a byte view. Every getter returns a Status:
/// WAL bytes come off a disk that may have been torn or flipped, so a short
/// or malformed buffer must surface as a recoverable error, never a read
/// past the end. The view must outlive returned string_views.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out);
  Status GetU64(uint64_t* out);
  Status GetI64(int64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string_view* out);
  /// Refuses (IoError) lists/maps nested deeper than kMaxValueDepth.
  Status GetValue(Value* out) { return GetValueAt(out, 0); }
  Status GetPropMap(PropMap* out);

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) {
    if (remaining() < n) {
      return Status::IoError("decode: truncated record (need " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(remaining()) + ")");
    }
    return Status::OK();
  }

  template <typename T>
  Status GetFixed(T* out);
  /// `depth` counts the lists/maps enclosing the value being decoded.
  Status GetValueAt(Value* out, int depth);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace pgt::wal

#endif  // PGTRIGGERS_WAL_SERIALIZE_H_
