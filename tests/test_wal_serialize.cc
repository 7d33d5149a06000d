// Round-trip property tests for the WAL binary codecs (src/wal/serialize,
// src/wal/wal_format, src/wal/snapshot_file): every Value shape — SSO
// boundary strings included — plus PropMap, commit/DDL record
// payloads, record framing with checksum verification, and the snapshot
// file format. The round-trip property checked is byte-level:
// encode(decode(encode(v))) == encode(v), which sidesteps Value::Equals'
// numeric coercion (1 == 1.0) and NaN != NaN.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/trigger/database.h"
#include "src/wal/crc32c.h"
#include "src/wal/fault_fs.h"
#include "src/wal/serialize.h"
#include "src/wal/snapshot_file.h"
#include "src/wal/wal_format.h"

namespace pgt::wal {
namespace {

std::string EncodeValue(const Value& v) {
  Encoder enc;
  enc.PutValue(v);
  return enc.Take();
}

/// Byte-exact round trip: decode must consume everything, and re-encoding
/// the decoded value must reproduce the input bytes.
void ExpectValueRoundTrip(const Value& v) {
  const std::string bytes = EncodeValue(v);
  Decoder dec(bytes);
  Value out;
  ASSERT_TRUE(dec.GetValue(&out).ok()) << v.ToString();
  EXPECT_TRUE(dec.AtEnd()) << v.ToString();
  EXPECT_EQ(EncodeValue(out), bytes) << v.ToString();
}

TEST(WalValueCodec, Scalars) {
  ExpectValueRoundTrip(Value::Null());
  ExpectValueRoundTrip(Value::Bool(true));
  ExpectValueRoundTrip(Value::Bool(false));
  ExpectValueRoundTrip(Value::Int(0));
  ExpectValueRoundTrip(Value::Int(-1));
  ExpectValueRoundTrip(Value::Int(std::numeric_limits<int64_t>::min()));
  ExpectValueRoundTrip(Value::Int(std::numeric_limits<int64_t>::max()));
  ExpectValueRoundTrip(Value::MakeDate(19000));
  ExpectValueRoundTrip(Value::MakeDate(-1));
  ExpectValueRoundTrip(Value::MakeDateTime(1700000000000000));
  ExpectValueRoundTrip(Value::Node(NodeId{0}));
  ExpectValueRoundTrip(Value::Node(NodeId{~0ull}));
  ExpectValueRoundTrip(Value::Rel(RelId{42}));
}

TEST(WalValueCodec, DoublesIncludingNanAndSignedZero) {
  ExpectValueRoundTrip(Value::Double(0.0));
  ExpectValueRoundTrip(Value::Double(-0.0));
  ExpectValueRoundTrip(Value::Double(1.5));
  ExpectValueRoundTrip(Value::Double(-2.75e300));
  ExpectValueRoundTrip(Value::Double(std::numeric_limits<double>::infinity()));
  ExpectValueRoundTrip(
      Value::Double(-std::numeric_limits<double>::infinity()));
  ExpectValueRoundTrip(
      Value::Double(std::numeric_limits<double>::quiet_NaN()));
  ExpectValueRoundTrip(Value::Double(std::numeric_limits<double>::min()));
  ExpectValueRoundTrip(Value::Double(std::numeric_limits<double>::denorm_min()));

  // -0.0 and +0.0 compare equal but must encode differently (bit pattern).
  EXPECT_NE(EncodeValue(Value::Double(0.0)), EncodeValue(Value::Double(-0.0)));
}

TEST(WalValueCodec, StringsAcrossSsoBoundary) {
  ExpectValueRoundTrip(Value::String(""));
  ExpectValueRoundTrip(Value::String("a"));
  // kSsoCapacity is 16: check lengths straddling the inline/heap switch.
  for (size_t len : {15u, 16u, 17u, 64u, 4096u}) {
    ExpectValueRoundTrip(Value::String(std::string(len, 'x')));
  }
  ExpectValueRoundTrip(Value::String(std::string("emb\0edded", 9)));
  ExpectValueRoundTrip(Value::String("ünïcødé \xF0\x9F\x8E\x89"));
}

TEST(WalValueCodec, ListsAndMapsNested) {
  ExpectValueRoundTrip(Value::MakeList({}));
  ExpectValueRoundTrip(Value::MakeList({Value::Int(1), Value::Null(),
                                        Value::String("three")}));
  ExpectValueRoundTrip(Value::MakeMap({}));
  Value::Map m;
  m.emplace("a", Value::Int(1));
  m.emplace("nested", Value::MakeList({Value::MakeList({Value::Bool(true)}),
                                       Value::Double(-0.0)}));
  Value::Map inner;
  inner.emplace("deep", Value::MakeMap({}));
  m.emplace("m", Value::MakeMap(std::move(inner)));
  ExpectValueRoundTrip(Value::MakeMap(std::move(m)));
}

/// `depth` lists (or maps, keyed "k") nested around the integer 1.
Value Nested(int depth, bool maps = false) {
  Value v = Value::Int(1);
  for (int i = 0; i < depth; ++i) {
    if (maps) {
      Value::Map m;
      m.emplace("k", std::move(v));
      v = Value::MakeMap(std::move(m));
    } else {
      v = Value::MakeList({std::move(v)});
    }
  }
  return v;
}

TEST(WalValueCodec, NestingAtTheDepthCapRoundTrips) {
  ExpectValueRoundTrip(Nested(kMaxValueDepth));
  ExpectValueRoundTrip(Nested(kMaxValueDepth, /*maps=*/true));
  for (bool maps : {false, true}) {
    const std::string bytes = EncodeValue(Nested(kMaxValueDepth + 1, maps));
    Decoder dec(bytes);
    Value out;
    EXPECT_EQ(dec.GetValue(&out).code(), StatusCode::kIoError);
  }
}

TEST(WalValueCodec, MillionDeepCraftedListFailsCleanly) {
  // One-element lists nested 1,000,000 deep (5 bytes per level): decoding
  // must return a Status, not overflow the stack.
  Encoder enc;
  for (int i = 0; i < 1'000'000; ++i) {
    enc.PutU8(static_cast<uint8_t>(ValueType::kList));
    enc.PutU32(1);
  }
  enc.PutU8(static_cast<uint8_t>(ValueType::kNull));
  Decoder dec(enc.buffer());
  Value out;
  EXPECT_EQ(dec.GetValue(&out).code(), StatusCode::kIoError);
}

TEST(WalValueCodec, WritesPastTheDepthCapAreRefused) {
  // Every committed value must stay decodable: growing a property one list
  // level per statement stops at the cap with InvalidArgument, leaves the
  // last accepted value in place, and that value survives recovery.
  MemVfs vfs;
  WalOptions opts;
  opts.dir = "/db";
  opts.vfs = &vfs;
  {
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Execute("CREATE (:N {p: 1})").ok());
    for (int i = 0; i < kMaxValueDepth; ++i) {
      ASSERT_TRUE((*db)->Execute("MATCH (n:N) SET n.p = [n.p]").ok()) << i;
    }
    auto past = (*db)->Execute("MATCH (n:N) SET n.p = [n.p]");
    EXPECT_EQ(past.status().code(), StatusCode::kInvalidArgument);
    ASSERT_TRUE(
        (*db)->Execute("MATCH (n:N) CREATE (n)-[:R {p: 1}]->(n)").ok());
    const Params too_deep{{"v", Nested(kMaxValueDepth + 1)}};
    for (const char* write : {
             "CREATE (:N {p: $v})",
             "MATCH (n:N) CREATE (n)-[:R {p: $v}]->(n)",
             "MATCH ()-[r:R]->() SET r.p = $v",
         }) {
      EXPECT_EQ((*db)->Execute(write, too_deep).status().code(),
                StatusCode::kInvalidArgument)
          << write;
    }
    auto r = (*db)->Execute("MATCH (n:N) RETURN n.p");
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(EncodeValue(r->rows[0][0]), EncodeValue(Nested(kMaxValueDepth)));
    ASSERT_TRUE((*db)->Close().ok());
  }
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status();
  auto r = (*db)->Execute("MATCH (n:N) RETURN n.p");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(EncodeValue(r->rows[0][0]), EncodeValue(Nested(kMaxValueDepth)));
}

TEST(WalValueCodec, PropMapRoundTrip) {
  PropMap props;
  props.Set(7, Value::String("seven"));
  props.Set(0, Value::Int(0));
  props.Set(3, Value::MakeList({Value::Null()}));
  Encoder enc;
  enc.PutPropMap(props);
  const std::string bytes = enc.Take();

  Decoder dec(bytes);
  PropMap out;
  ASSERT_TRUE(dec.GetPropMap(&out).ok());
  EXPECT_TRUE(dec.AtEnd());
  Encoder re;
  re.PutPropMap(out);
  EXPECT_EQ(re.buffer(), bytes);
}

// --- Record payloads ---------------------------------------------------------

WalCommit MakeCommit() {
  WalCommit c;
  c.epoch = 12;
  c.committed_after = 34;
  c.clock_after = 5600;
  c.dicts.label_base = 1;
  c.dicts.labels = {"Person"};
  c.dicts.prop_key_base = 2;
  c.dicts.prop_keys = {"name", "age"};
  WalNodeCreate nc;
  nc.id = NodeId{5};
  nc.labels = {0, 1};
  nc.props.Set(2, Value::String("Ada"));
  c.node_creates.push_back(std::move(nc));
  WalRelCreate rc;
  rc.id = RelId{2};
  rc.type = 0;
  rc.src = NodeId{5};
  rc.dst = NodeId{0};
  c.rel_creates.push_back(std::move(rc));
  WalNodeUpdate nu;
  nu.id = NodeId{0};
  nu.labels = {0};
  nu.props.Set(3, Value::Int(41));
  c.node_updates.push_back(std::move(nu));
  WalRelUpdate ru;
  ru.id = RelId{0};
  c.rel_updates.push_back(std::move(ru));
  c.rel_deletes = {RelId{1}};
  c.node_deletes = {NodeId{3}};
  return c;
}

TEST(WalRecordCodec, CommitPayloadRoundTrip) {
  const WalCommit c = MakeCommit();
  const std::string payload = EncodeCommitPayload(c);
  WalCommit out;
  ASSERT_TRUE(DecodeCommitPayload(payload, &out).ok());
  EXPECT_EQ(EncodeCommitPayload(out), payload);
  EXPECT_EQ(out.epoch, 12u);
  EXPECT_EQ(out.committed_after, 34u);
  EXPECT_EQ(out.clock_after, 5600);
  ASSERT_EQ(out.node_creates.size(), 1u);
  EXPECT_EQ(out.node_creates[0].id, NodeId{5});
  ASSERT_EQ(out.dicts.prop_keys.size(), 2u);
  EXPECT_EQ(out.dicts.prop_keys[1], "age");
}

TEST(WalRecordCodec, CommitPayloadRejectsTrailingBytes) {
  std::string payload = EncodeCommitPayload(MakeCommit());
  payload.push_back('\0');
  WalCommit out;
  EXPECT_FALSE(DecodeCommitPayload(payload, &out).ok());
}

TEST(WalRecordCodec, DdlPayloadRoundTrip) {
  WalDdl d;
  d.kind = WalDdlKind::kIndexDdl;
  d.text = "CREATE INDEX ON :Person(name)";
  d.dicts.label_base = 3;
  d.dicts.labels = {"Person"};
  const std::string payload = EncodeDdlPayload(d);
  WalDdl out;
  ASSERT_TRUE(DecodeDdlPayload(payload, &out).ok());
  EXPECT_EQ(out.kind, WalDdlKind::kIndexDdl);
  EXPECT_EQ(out.text, d.text);
  EXPECT_EQ(EncodeDdlPayload(out), payload);
}

// --- Framing -----------------------------------------------------------------

TEST(WalFraming, RoundTripAndOffsets) {
  std::string buf(kSegmentHeaderSize, '\0');  // fake header region
  AppendFramedRecord(&buf, "first");
  AppendFramedRecord(&buf, "second record");

  size_t off = kSegmentHeaderSize;
  std::string_view payload;
  ASSERT_TRUE(ReadFramedRecord(buf, &off, &payload).ok());
  EXPECT_EQ(payload, "first");
  ASSERT_TRUE(ReadFramedRecord(buf, &off, &payload).ok());
  EXPECT_EQ(payload, "second record");
  EXPECT_EQ(off, buf.size());
}

TEST(WalFraming, EveryBitFlipIsDetected) {
  std::string buf;
  AppendFramedRecord(&buf, "payload under test");
  for (size_t bit = 0; bit < buf.size() * 8; ++bit) {
    std::string corrupt = buf;
    corrupt[bit / 8] = static_cast<char>(corrupt[bit / 8] ^ (1 << (bit % 8)));
    size_t off = 0;
    std::string_view payload;
    Status s = ReadFramedRecord(corrupt, &off, &payload);
    // A flip may survive framing only by landing in the length field AND
    // producing a longer-than-buffer read — which reports torn, also a
    // failure. Nothing may decode successfully.
    EXPECT_FALSE(s.ok()) << "bit " << bit;
  }
}

TEST(WalFraming, ShortTailReportsTorn) {
  std::string buf;
  AppendFramedRecord(&buf, "abcdefgh");
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t off = 0;
    std::string_view payload;
    Status s =
        ReadFramedRecord(std::string_view(buf).substr(0, cut), &off, &payload);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.message().rfind("torn:", 0), 0u) << "cut " << cut;
  }
}

TEST(WalFraming, EmptyRecordIsRejected) {
  // A zero-length frame carries the (valid!) CRC of the empty string, but
  // no real record is empty — the type byte is mandatory. The reader must
  // reject it rather than hand back a payload with no first byte.
  std::string buf;
  AppendFramedRecord(&buf, "");
  size_t off = 0;
  std::string_view payload;
  Status s = ReadFramedRecord(buf, &off, &payload);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message().rfind("torn:", 0), 0u);
}

TEST(WalCrc32c, KnownVectors) {
  // RFC 3720 / common Castagnoli verification vector.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  const uint32_t c = Crc32c("hello", 5);
  EXPECT_EQ(UnmaskCrc(MaskCrc(c)), c);
  EXPECT_NE(MaskCrc(c), c);
}

// --- Snapshot file -----------------------------------------------------------

TEST(WalSnapshotFile, RoundTrip) {
  SnapshotImage img;
  img.first_live_seq = 7;
  img.wal_epoch = 123;
  img.committed_count = 456;
  img.clock_micros = 789;
  img.labels = {"A", "B"};
  img.rel_types = {"R"};
  img.prop_keys = {"p", "q", "r"};
  img.nodes.resize(3);
  img.nodes[0].alive = true;
  img.nodes[0].labels = {0, 1};
  img.nodes[0].props.Set(0, Value::String("n0"));
  img.nodes[2].alive = true;  // node 1 stays a tombstone placeholder
  img.rels.resize(2);
  img.rels[1].alive = true;
  img.rels[1].type = 0;
  img.rels[1].src = NodeId{0};
  img.rels[1].dst = NodeId{2};
  img.rels[1].props.Set(2, Value::Double(2.5));
  img.indexes.push_back(SnapshotIndexSpec{"A", "p", 0, true, true});
  img.schema_ddl = "CREATE GRAPH TYPE G { (PersonType: Person {name STRING}) }";
  img.triggers.push_back(SnapshotTrigger{"CREATE TRIGGER T ...", false});

  const std::string bytes = EncodeSnapshot(img);
  SnapshotImage out;
  ASSERT_TRUE(DecodeSnapshot(bytes, &out).ok());
  EXPECT_EQ(EncodeSnapshot(out), bytes);
  EXPECT_EQ(out.first_live_seq, 7u);
  EXPECT_EQ(out.wal_epoch, 123u);
  ASSERT_EQ(out.nodes.size(), 3u);
  EXPECT_FALSE(out.nodes[1].alive);
  ASSERT_EQ(out.triggers.size(), 1u);
  EXPECT_FALSE(out.triggers[0].enabled);
}

TEST(WalSnapshotFile, CorruptionRejected) {
  SnapshotImage img;
  img.labels = {"A"};
  std::string bytes = EncodeSnapshot(img);
  SnapshotImage out;
  // Truncations.
  for (size_t cut : {0u, 4u, 11u}) {
    EXPECT_FALSE(
        DecodeSnapshot(std::string_view(bytes).substr(0, cut), &out).ok());
  }
  // Any single bit flip fails the whole-file checksum (or the magic).
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_FALSE(DecodeSnapshot(corrupt, &out).ok()) << "byte " << i;
  }
}

}  // namespace
}  // namespace pgt::wal
