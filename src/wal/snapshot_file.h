#ifndef PGTRIGGERS_WAL_SNAPSHOT_FILE_H_
#define PGTRIGGERS_WAL_SNAPSHOT_FILE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/ids.h"
#include "src/common/prop_map.h"
#include "src/common/status.h"
#include "src/wal/serialize.h"

namespace pgt::wal {

/// A compacted, self-contained image of the whole database: store contents,
/// full interner dictionaries, index definitions, attached schema, and
/// trigger catalog. Once a snapshot is durable, every WAL segment older
/// than `first_live_seq` is garbage and gets truncated.
///
/// Nodes and rels are stored for EVERY id in [0, bound) — tombstones
/// included as dead placeholders — because ids are dense and never reused:
/// replaying post-snapshot WAL records only lines up if the id space is
/// reconstructed hole-for-hole.

struct SnapshotNode {
  bool alive = false;
  std::vector<LabelId> labels;  // sorted; empty when dead
  PropMap props;                // empty when dead
};

struct SnapshotRel {
  bool alive = false;
  RelTypeId type = 0;  // kept for dead rels: adjacency is append-only
  NodeId src;
  NodeId dst;
  PropMap props;  // empty when dead
};

/// Index definitions are stored by *name*, not interned id: decode happens
/// before the dictionaries are live, and names are the stable identity.
/// Schema-managed indexes are excluded — replaying the schema DDL recreates
/// them.
struct SnapshotIndexSpec {
  std::string label;
  std::string prop;
  uint8_t kind = 0;  // index::IndexKind
  bool unique = false;
  bool enforce_on_write = true;
};

struct SnapshotTrigger {
  std::string ddl;  // TriggerDef::ToDdl() round-trip text
  bool enabled = true;
};

struct SnapshotImage {
  /// First WAL segment seq that must still be replayed on top of this image.
  uint64_t first_live_seq = 0;
  /// Number of commits already folded in (WAL commit epochs <= wal_epoch are
  /// covered; replay resumes at wal_epoch + 1).
  uint64_t wal_epoch = 0;
  uint64_t committed_count = 0;  ///< TransactionManager counter to restore
  int64_t clock_micros = 0;      ///< LogicalClock reading to restore

  /// Full live dictionaries in interning order — the live store's, not a
  /// GraphSnapshot's: DDL can intern names between commits, and those must
  /// be present for id continuity with post-snapshot records.
  std::vector<std::string> labels, rel_types, prop_keys;

  std::vector<SnapshotNode> nodes;  // index == NodeId
  std::vector<SnapshotRel> rels;    // index == RelId

  std::vector<SnapshotIndexSpec> indexes;
  std::optional<std::string> schema_ddl;
  std::vector<SnapshotTrigger> triggers;  // creation order
};

/// File layout: "PGTSNAP1" magic + body + u32 masked crc32c over everything
/// before it (magic included). One whole-file checksum: a snapshot is either
/// entirely valid or discarded in favor of an older one.
///
/// The one encoder: streams the file front to back into a sink in chunks
/// of about kChunkBytes, extending the checksum chunk by chunk, so a
/// checkpoint never holds more than one chunk of the image in memory. The
/// header, dictionaries and trailer (indexes, schema, triggers) come from
/// `meta`; the records arrive one by one, in id order:
///
///   SnapshotWriter w(meta, sink);
///   w.BeginNodes(n);  n x w.AddNode(...);
///   w.BeginRels(m);   m x w.AddRel(...);
///   w.Finish();
///
/// `meta.nodes` and `meta.rels` are not read. Calls out of this order fail
/// with Internal, as does every call after the sink failed.
class SnapshotWriter {
 public:
  using Sink = std::function<Status(std::string_view chunk)>;
  static constexpr size_t kChunkBytes = 1 << 20;

  /// `meta` must outlive the writer.
  SnapshotWriter(const SnapshotImage& meta, Sink sink);

  Status BeginNodes(uint64_t count);
  /// A dead node is written as given; callers pass empty labels and props.
  Status AddNode(bool alive, const std::vector<LabelId>& labels,
                 const PropMap& props);
  Status BeginRels(uint64_t count);
  Status AddRel(bool alive, RelTypeId type, NodeId src, NodeId dst,
                const PropMap& props);
  /// Writes the trailer and the checksum and flushes the last chunk.
  Status Finish();

 private:
  enum class Section : uint8_t { kHeader, kNodes, kRels, kDone };

  Status Begin(Section from, Section to, uint64_t count);
  Status Add(Section in);
  Status MaybeFlush();
  Status Flush();

  const SnapshotImage& meta_;
  Sink sink_;
  Encoder enc_;
  uint32_t crc_ = 0;
  Section section_ = Section::kHeader;
  uint64_t pending_ = 0;  // records still owed to the open section
  Status status_;         // first failure; every later call returns it
};

/// The whole image as one string (tests, and files small enough to hold).
std::string EncodeSnapshot(const SnapshotImage& img);
Status DecodeSnapshot(std::string_view data, SnapshotImage* out);

}  // namespace pgt::wal

#endif  // PGTRIGGERS_WAL_SNAPSHOT_FILE_H_
