// Shared assertions for the snapshot suites (test_snapshot,
// test_snapshot_stress).

#ifndef PGTRIGGERS_TESTS_SNAPSHOT_CHECKS_H_
#define PGTRIGGERS_TESTS_SNAPSHOT_CHECKS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/index/property_index.h"
#include "src/storage/snapshot.h"
#include "src/trigger/database.h"

namespace pgt {

/// Same type and same place in the total order: unlike Equals, NaN matches
/// NaN and 1 does not match 1.0.
inline bool SameValue(const Value& a, const Value& b) {
  return a.type() == b.type() && a.TotalCompare(b) == 0;
}

/// Opens a snapshot of the latest commit and checks that its heads agree
/// with the live store: every record's visible version (liveness, labels,
/// properties, adjacency, relationship endpoints), and every band head of
/// every property index, with band sizes summing to the live entry count
/// (so no live entry is missing from a sidecar). Call with the writer
/// idle.
inline void ExpectHeadsMatchLive(Database& db, const std::string& context) {
  auto opened = db.OpenSnapshot();
  ASSERT_TRUE(opened.ok()) << opened.status();
  const std::shared_ptr<const GraphSnapshot> now = std::move(opened).value();
  const GraphStore& store = db.store();
  ASSERT_EQ(now->epoch(), store.snapshots().commit_epoch()) << context;

  auto same_props = [&](const PropMap& seen, const PropMap& live,
                        const std::string& what) {
    ASSERT_EQ(seen.size(), live.size()) << context << " " << what;
    for (const auto& [key, value] : live) {
      const Value* v = seen.Find(key);
      ASSERT_NE(v, nullptr) << context << " " << what;
      EXPECT_TRUE(SameValue(*v, value)) << context << " " << what;
    }
  };
  for (uint64_t id = 0; id < store.NodeIdBound(); ++id) {
    const std::string what = "node " + std::to_string(id);
    const NodeRecord* live = store.GetNode(NodeId{id});
    const NodeVersion* v = now->Node(NodeId{id});
    ASSERT_EQ(v != nullptr && v->alive, live->alive) << context << " " << what;
    if (!live->alive) continue;
    EXPECT_EQ(v->labels, live->labels) << context << " " << what;
    same_props(v->props, live->props, what);
    EXPECT_EQ(*v->out_rels, live->out_rels) << context << " " << what;
    EXPECT_EQ(*v->in_rels, live->in_rels) << context << " " << what;
  }
  for (uint64_t id = 0; id < store.RelIdBound(); ++id) {
    const std::string what = "rel " + std::to_string(id);
    const RelRecord* live = store.GetRel(RelId{id});
    const RelVersion* v = now->Rel(RelId{id});
    ASSERT_EQ(v != nullptr && v->alive, live->alive) << context << " " << what;
    if (!live->alive) continue;
    EXPECT_EQ(v->type, live->type) << context << " " << what;
    EXPECT_EQ(v->src, live->src) << context << " " << what;
    EXPECT_EQ(v->dst, live->dst) << context << " " << what;
    same_props(v->props, live->props, what);
  }

  store.indexes().ForEach([&](const index::PropertyIndex& live) {
    const index::IndexSpec& spec = live.spec();
    const std::string what = store.LabelName(spec.label) + "." +
                             store.PropKeyName(spec.prop);
    const index::VersionedPostings* sidecar =
        now->FindIndex(spec.label, spec.prop);
    ASSERT_NE(sidecar, nullptr) << context << " " << what;
    size_t total = 0;
    sidecar->ForEachBandAt(
        now->epoch(), [&](const Value& key, const std::vector<uint64_t>& ids) {
          std::vector<uint64_t> expected;
          live.Lookup(key, &expected);
          EXPECT_EQ(ids, expected)
              << context << " " << what << " band " << key.ToString();
          total += ids.size();
        });
    EXPECT_EQ(total, live.EntryCount()) << context << " " << what;
  });
}

}  // namespace pgt

#endif  // PGTRIGGERS_TESTS_SNAPSHOT_CHECKS_H_
