#include "checks.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/common/macros.h"

namespace pgt::e2e {

namespace {

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a, chained: order-sensitive within one record.
uint64_t HashStr(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  h ^= 0xFF;  // field separator
  return h * 0x100000001B3ull;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

bool ClockDerived(const Value& v) {
  return v.type() == ValueType::kDate || v.type() == ValueType::kDateTime;
}

uint64_t HashProps(uint64_t h, const GraphStore& store, const PropMap& props) {
  // PropMap iterates in key-id order; ids are assigned identically on every
  // run and by recovery, so the order is stable.
  for (const auto& [key, value] : props) {
    if (ClockDerived(value)) continue;
    h = HashStr(h, store.PropKeyName(key));
    h = HashStr(h, value.ToString());
  }
  return h;
}

}  // namespace

std::string Checksum::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016llx-%016llx-n%llu-r%llu",
                static_cast<unsigned long long>(graph),
                static_cast<unsigned long long>(firings),
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(rels));
  return buf;
}

Checksum ComputeChecksum(Database& db) {
  const GraphStore& store = db.store();
  Checksum out;
  std::vector<uint64_t> node_hash(store.NodeIdBound(), 0);
  for (uint64_t i = 0; i < store.NodeIdBound(); ++i) {
    const NodeRecord* n = store.GetNode(NodeId{i});
    if (n == nullptr || !n->alive) continue;
    std::vector<std::string_view> labels;
    for (LabelId l : n->labels) labels.push_back(store.LabelName(l));
    std::sort(labels.begin(), labels.end());
    uint64_t h = kFnvBasis;
    for (std::string_view l : labels) h = HashStr(h, l);
    h = Mix(HashProps(HashStr(h, "|"), store, n->props));
    node_hash[i] = h;
    out.graph += h;
    ++out.nodes;
  }
  for (uint64_t i = 0; i < store.RelIdBound(); ++i) {
    const RelRecord* r = store.GetRel(RelId{i});
    if (r == nullptr || !r->alive) continue;
    uint64_t h = HashStr(kFnvBasis, store.RelTypeName(r->type));
    h = Mix(h ^ Mix(node_hash[r->src.value] + 1));
    h = Mix(h ^ Mix(node_hash[r->dst.value] + 2));
    out.graph += Mix(HashProps(h, store, r->props));
    ++out.rels;
  }
  uint64_t f = kFnvBasis;
  for (const auto& [name, stats] : db.stats().per_trigger) {
    f = HashStr(f, name);
    f = HashStr(f, std::to_string(stats.fired));
  }
  out.firings = Mix(f);
  return out;
}

Result<RecoveryOutcome> MeasureRecovery(Database& db, wal::WalOptions wal,
                                        const EngineOptions& options,
                                        int reps) {
  if (db.wal() == nullptr) {
    return Status::FailedPrecondition("recovery needs a durable database");
  }
  PGT_RETURN_IF_ERROR(db.Close());
  RecoveryOutcome out;
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    PGT_ASSIGN_OR_RETURN(std::unique_ptr<Database> reopened,
                         Database::Open(wal, options));
    out.open_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
    if (i + 1 == reps) {
      out.reopened = ComputeChecksum(*reopened);
      out.reopened.firings = 0;
    }
    PGT_RETURN_IF_ERROR(reopened->Close());
  }
  return out;
}

}  // namespace pgt::e2e
