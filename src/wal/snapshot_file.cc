#include "src/wal/snapshot_file.h"

#include <utility>

#include "src/common/macros.h"
#include "src/wal/crc32c.h"
#include "src/wal/serialize.h"

namespace pgt::wal {

namespace {

constexpr char kSnapshotMagic[8] = {'P', 'G', 'T', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kMaxSnapshotCount = 1u << 28;

Status CheckCount(uint32_t n, const char* what) {
  if (n > kMaxSnapshotCount) {
    return Status::IoError(std::string("snapshot: implausible ") + what +
                           " count " + std::to_string(n));
  }
  return Status::OK();
}

void PutStringVec(Encoder& enc, const std::vector<std::string>& v) {
  enc.PutU32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) enc.PutString(s);
}

Status GetStringVec(Decoder& dec, std::vector<std::string>* out,
                    const char* what) {
  uint32_t n = 0;
  PGT_RETURN_IF_ERROR(dec.GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n, what));
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view s;
    PGT_RETURN_IF_ERROR(dec.GetString(&s));
    out->emplace_back(s);
  }
  return Status::OK();
}

}  // namespace

SnapshotWriter::SnapshotWriter(const SnapshotImage& meta, Sink sink)
    : meta_(meta), sink_(std::move(sink)) {
  for (char c : kSnapshotMagic) enc_.PutU8(static_cast<uint8_t>(c));
  enc_.PutU64(meta.first_live_seq);
  enc_.PutU64(meta.wal_epoch);
  enc_.PutU64(meta.committed_count);
  enc_.PutI64(meta.clock_micros);
  PutStringVec(enc_, meta.labels);
  PutStringVec(enc_, meta.rel_types);
  PutStringVec(enc_, meta.prop_keys);
}

Status SnapshotWriter::Begin(Section from, Section to, uint64_t count) {
  PGT_RETURN_IF_ERROR(status_);
  if (section_ != from || pending_ != 0) {
    return status_ = Status::Internal("snapshot writer: section out of order");
  }
  if (count > UINT32_MAX) {
    return status_ = Status::Internal("snapshot writer: too many records");
  }
  section_ = to;
  pending_ = count;
  enc_.PutU32(static_cast<uint32_t>(count));
  return Status::OK();
}

Status SnapshotWriter::Add(Section in) {
  PGT_RETURN_IF_ERROR(status_);
  if (section_ != in || pending_ == 0) {
    return status_ = Status::Internal("snapshot writer: record out of order");
  }
  --pending_;
  return Status::OK();
}

Status SnapshotWriter::BeginNodes(uint64_t count) {
  return Begin(Section::kHeader, Section::kNodes, count);
}

Status SnapshotWriter::AddNode(bool alive, const std::vector<LabelId>& labels,
                               const PropMap& props) {
  PGT_RETURN_IF_ERROR(Add(Section::kNodes));
  enc_.PutU8(alive ? 1 : 0);
  enc_.PutU32(static_cast<uint32_t>(labels.size()));
  for (LabelId l : labels) enc_.PutU32(l);
  enc_.PutPropMap(props);
  return MaybeFlush();
}

Status SnapshotWriter::BeginRels(uint64_t count) {
  return Begin(Section::kNodes, Section::kRels, count);
}

Status SnapshotWriter::AddRel(bool alive, RelTypeId type, NodeId src,
                              NodeId dst, const PropMap& props) {
  PGT_RETURN_IF_ERROR(Add(Section::kRels));
  enc_.PutU8(alive ? 1 : 0);
  enc_.PutU32(type);
  enc_.PutU64(src.value);
  enc_.PutU64(dst.value);
  enc_.PutPropMap(props);
  return MaybeFlush();
}

Status SnapshotWriter::Finish() {
  PGT_RETURN_IF_ERROR(status_);
  if (section_ != Section::kRels || pending_ != 0) {
    return status_ = Status::Internal("snapshot writer: finished early");
  }
  section_ = Section::kDone;

  enc_.PutU32(static_cast<uint32_t>(meta_.indexes.size()));
  for (const SnapshotIndexSpec& ix : meta_.indexes) {
    enc_.PutString(ix.label);
    enc_.PutString(ix.prop);
    enc_.PutU8(ix.kind);
    enc_.PutU8(ix.unique ? 1 : 0);
    enc_.PutU8(ix.enforce_on_write ? 1 : 0);
  }

  enc_.PutU8(meta_.schema_ddl.has_value() ? 1 : 0);
  if (meta_.schema_ddl.has_value()) enc_.PutString(*meta_.schema_ddl);

  enc_.PutU32(static_cast<uint32_t>(meta_.triggers.size()));
  for (const SnapshotTrigger& t : meta_.triggers) {
    enc_.PutString(t.ddl);
    enc_.PutU8(t.enabled ? 1 : 0);
  }

  // The checksum covers everything before it, so it goes out after the
  // body's last chunk.
  PGT_RETURN_IF_ERROR(Flush());
  Encoder tail;
  tail.PutU32(MaskCrc(crc_));
  return status_ = sink_(tail.buffer());
}

Status SnapshotWriter::MaybeFlush() {
  return enc_.size() >= kChunkBytes ? Flush() : Status::OK();
}

Status SnapshotWriter::Flush() {
  crc_ = Crc32c(enc_.buffer().data(), enc_.size(), crc_);
  status_ = sink_(enc_.buffer());
  enc_.Clear();
  return status_;
}

std::string EncodeSnapshot(const SnapshotImage& img) {
  std::string out;
  SnapshotWriter w(img, [&out](std::string_view chunk) {
    out.append(chunk);
    return Status::OK();
  });
  // An in-memory sink cannot fail and the calls below are in order, so
  // every status is OK.
  (void)w.BeginNodes(img.nodes.size());
  for (const SnapshotNode& n : img.nodes) {
    (void)w.AddNode(n.alive, n.labels, n.props);
  }
  (void)w.BeginRels(img.rels.size());
  for (const SnapshotRel& r : img.rels) {
    (void)w.AddRel(r.alive, r.type, r.src, r.dst, r.props);
  }
  (void)w.Finish();
  return out;
}

Status DecodeSnapshot(std::string_view data, SnapshotImage* out) {
  if (data.size() < sizeof(kSnapshotMagic) + sizeof(uint32_t)) {
    return Status::IoError("snapshot: file too short");
  }
  if (data.compare(0, sizeof(kSnapshotMagic),
                   std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic))) !=
      0) {
    return Status::IoError("snapshot: bad magic");
  }
  std::string_view body = data.substr(0, data.size() - sizeof(uint32_t));
  Decoder crc_dec(data.substr(body.size()));
  uint32_t stored = 0;
  PGT_RETURN_IF_ERROR(crc_dec.GetU32(&stored));
  if (UnmaskCrc(stored) != Crc32c(body.data(), body.size())) {
    return Status::IoError("snapshot: checksum mismatch");
  }

  SnapshotImage img;
  Decoder dec(body.substr(sizeof(kSnapshotMagic)));
  PGT_RETURN_IF_ERROR(dec.GetU64(&img.first_live_seq));
  PGT_RETURN_IF_ERROR(dec.GetU64(&img.wal_epoch));
  PGT_RETURN_IF_ERROR(dec.GetU64(&img.committed_count));
  PGT_RETURN_IF_ERROR(dec.GetI64(&img.clock_micros));

  PGT_RETURN_IF_ERROR(GetStringVec(dec, &img.labels, "label"));
  PGT_RETURN_IF_ERROR(GetStringVec(dec, &img.rel_types, "rel-type"));
  PGT_RETURN_IF_ERROR(GetStringVec(dec, &img.prop_keys, "prop-key"));

  uint32_t n = 0;
  PGT_RETURN_IF_ERROR(dec.GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n, "node"));
  img.nodes.resize(n);
  for (SnapshotNode& node : img.nodes) {
    uint8_t alive = 0;
    PGT_RETURN_IF_ERROR(dec.GetU8(&alive));
    node.alive = alive != 0;
    uint32_t nlabels = 0;
    PGT_RETURN_IF_ERROR(dec.GetU32(&nlabels));
    PGT_RETURN_IF_ERROR(CheckCount(nlabels, "node-label"));
    node.labels.resize(nlabels);
    for (LabelId& l : node.labels) PGT_RETURN_IF_ERROR(dec.GetU32(&l));
    PGT_RETURN_IF_ERROR(dec.GetPropMap(&node.props));
  }

  PGT_RETURN_IF_ERROR(dec.GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n, "rel"));
  img.rels.resize(n);
  for (SnapshotRel& rel : img.rels) {
    uint8_t alive = 0;
    PGT_RETURN_IF_ERROR(dec.GetU8(&alive));
    rel.alive = alive != 0;
    PGT_RETURN_IF_ERROR(dec.GetU32(&rel.type));
    PGT_RETURN_IF_ERROR(dec.GetU64(&rel.src.value));
    PGT_RETURN_IF_ERROR(dec.GetU64(&rel.dst.value));
    PGT_RETURN_IF_ERROR(dec.GetPropMap(&rel.props));
  }

  PGT_RETURN_IF_ERROR(dec.GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n, "index"));
  img.indexes.resize(n);
  for (SnapshotIndexSpec& ix : img.indexes) {
    std::string_view s;
    PGT_RETURN_IF_ERROR(dec.GetString(&s));
    ix.label.assign(s);
    PGT_RETURN_IF_ERROR(dec.GetString(&s));
    ix.prop.assign(s);
    PGT_RETURN_IF_ERROR(dec.GetU8(&ix.kind));
    uint8_t b = 0;
    PGT_RETURN_IF_ERROR(dec.GetU8(&b));
    ix.unique = b != 0;
    PGT_RETURN_IF_ERROR(dec.GetU8(&b));
    ix.enforce_on_write = b != 0;
  }

  uint8_t has_schema = 0;
  PGT_RETURN_IF_ERROR(dec.GetU8(&has_schema));
  if (has_schema != 0) {
    std::string_view s;
    PGT_RETURN_IF_ERROR(dec.GetString(&s));
    img.schema_ddl.emplace(s);
  }

  PGT_RETURN_IF_ERROR(dec.GetU32(&n));
  PGT_RETURN_IF_ERROR(CheckCount(n, "trigger"));
  img.triggers.resize(n);
  for (SnapshotTrigger& t : img.triggers) {
    std::string_view s;
    PGT_RETURN_IF_ERROR(dec.GetString(&s));
    t.ddl.assign(s);
    uint8_t b = 0;
    PGT_RETURN_IF_ERROR(dec.GetU8(&b));
    t.enabled = b != 0;
  }

  if (!dec.AtEnd()) {
    return Status::IoError("snapshot: trailing bytes after image");
  }
  *out = std::move(img);
  return Status::OK();
}

}  // namespace pgt::wal
