#include "src/index/versioned_postings.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace pgt::index {

namespace {

constexpr size_t kInitialBuckets = 16;  // power of two

/// NaN probes/keys match nothing (live parity: PropertyIndex never indexes
/// NaN and Lookup rejects it).
bool IsNanValue(const Value& v) {
  return v.is_double() && v.double_value() != v.double_value();
}

}  // namespace

VersionedPostings::VersionedPostings(IndexSpec spec) : spec_(std::move(spec)) {
  auto t = std::make_unique<Table>();
  t->mask = kInitialBuckets - 1;
  t->buckets = std::make_unique<std::atomic<Slot*>[]>(kInitialBuckets);
  table_.store(t.get(), std::memory_order_release);
  tables_.push_back(std::move(t));
}

VersionedPostings::~VersionedPostings() {
  for (const auto& band : bands_) {
    PostingVersion* v = band->head.load(std::memory_order_relaxed);
    while (v != nullptr) {
      PostingVersion* p = v->prev.load(std::memory_order_relaxed);
      delete v;
      v = p;
    }
  }
}

VersionedPostings::Band* VersionedPostings::FindBand(const Value& key) const {
  const Table* t = table_.load(std::memory_order_acquire);
  const size_t b = ValueHash{}(key) & t->mask;
  for (Slot* s = t->buckets[b].load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    if (IndexKeyEq{}(s->band->key, key)) return s->band;
  }
  return nullptr;
}

void VersionedPostings::InsertSlot(Table& t, Band* band) {
  const size_t b = ValueHash{}(band->key) & t.mask;
  auto slot = std::make_unique<Slot>();
  slot->band = band;
  slot->next = t.buckets[b].load(std::memory_order_relaxed);
  t.buckets[b].store(slot.get(), std::memory_order_release);
  slots_.push_back(std::move(slot));
}

void VersionedPostings::Grow() {
  const Table* old = table_.load(std::memory_order_relaxed);
  auto bigger = std::make_unique<Table>();
  bigger->mask = (old->mask + 1) * 2 - 1;
  bigger->buckets =
      std::make_unique<std::atomic<Slot*>[]>(bigger->mask + 1);
  // Fresh chains into the new directory; the old table (and its slots)
  // stays intact for readers that already loaded it. Bands are shared, so
  // version chains published after the swap are visible through both.
  for (const auto& band : bands_) InsertSlot(*bigger, band.get());
  table_.store(bigger.get(), std::memory_order_release);
  tables_.push_back(std::move(bigger));
}

VersionedPostings::Band* VersionedPostings::EnsureBand(const Value& key) {
  Band* existing = FindBand(key);
  if (existing != nullptr) return existing;
  if (bands_.size() + 1 >
      table_.load(std::memory_order_relaxed)->mask + 1) {
    Grow();
  }
  auto band = std::make_unique<Band>();
  band->key = key;
  Band* raw = band.get();
  bands_.push_back(std::move(band));
  InsertSlot(*tables_.back(), raw);
  return raw;
}

void VersionedPostings::Baseline(const PropertyIndex& live, uint64_t epoch) {
  live.ForEachBandPosting(
      [&](const Value& key, const std::vector<uint64_t>& ids) {
        Band* band = EnsureBand(key);
        auto* v = new PostingVersion();
        v->epoch = epoch;
        v->ids = ids;
        band->head.store(v, std::memory_order_release);
      });
}

void VersionedPostings::Stage(uint64_t id, const Value* was,
                              const Value* now) {
  if (now != nullptr && (now->is_null() || IsNanValue(*now))) now = nullptr;
  if (now != nullptr) staged_.push_back({EnsureBand(*now), id, true});
  if (was == nullptr || was->is_null() || IsNanValue(*was)) return;
  if (now != nullptr && IndexKeyEq{}(*was, *now)) return;  // same band
  // A band that does not exist holds nobody, so there is nothing to leave.
  Band* band = FindBand(*was);
  if (band != nullptr) staged_.push_back({band, id, false});
}

void VersionedPostings::PublishStaged(uint64_t epoch) {
  // Group by band, then by id. A node's routings to one band agree on
  // `member` (it has one committed value), so duplicates are exact.
  std::sort(staged_.begin(), staged_.end(),
            [](const Staged& a, const Staged& b) {
              if (a.band != b.band) return std::less<Band*>{}(a.band, b.band);
              return a.id < b.id;
            });
  static const std::vector<uint64_t> kNone;
  for (size_t i = 0; i < staged_.size();) {
    Band* band = staged_[i].band;
    PostingVersion* head = band->head.load(std::memory_order_relaxed);
    const std::vector<uint64_t>& ids = head != nullptr ? head->ids : kNone;
    adds_.clear();
    removes_.clear();
    for (const size_t first = i;
         i < staged_.size() && staged_[i].band == band; ++i) {
      const uint64_t id = staged_[i].id;
      if (i != first && id == staged_[i - 1].id) continue;  // duplicate
      const bool was = std::binary_search(ids.begin(), ids.end(), id);
      if (staged_[i].member && !was) adds_.push_back(id);
      if (!staged_[i].member && was) removes_.push_back(id);
    }
    if (adds_.empty() && removes_.empty()) continue;  // content unchanged
    // One merge pass: the head's ids minus `removes_` (a sorted subset),
    // plus `adds_` (sorted, disjoint from the head).
    auto* v = new PostingVersion();
    v->epoch = epoch;
    v->ids.reserve(ids.size() + adds_.size() - removes_.size());
    auto add = adds_.begin();
    auto remove = removes_.begin();
    for (uint64_t id : ids) {
      while (add != adds_.end() && *add < id) v->ids.push_back(*add++);
      if (remove != removes_.end() && *remove == id) {
        ++remove;
        continue;
      }
      v->ids.push_back(id);
    }
    v->ids.insert(v->ids.end(), add, adds_.end());
    v->prev.store(head, std::memory_order_relaxed);
    band->head.store(v, std::memory_order_release);
    if (head != nullptr) superseded_.Push(v);
  }
  staged_.clear();
}

const VersionedPostings::PostingVersion* VersionedPostings::VersionAt(
    const Band& band, uint64_t epoch) {
  const PostingVersion* v = band.head.load(std::memory_order_acquire);
  while (v != nullptr && v->epoch > epoch) {
    v = v->prev.load(std::memory_order_acquire);
  }
  return v;
}

void VersionedPostings::LookupAt(const Value& value, uint64_t epoch,
                                 std::vector<uint64_t>* out) const {
  if (value.is_null() || IsNanValue(value)) return;
  const Band* band = FindBand(value);
  if (band == nullptr) return;
  const PostingVersion* v = VersionAt(*band, epoch);
  if (v != nullptr) out->insert(out->end(), v->ids.begin(), v->ids.end());
}

void VersionedPostings::ForEachBandAt(
    uint64_t epoch,
    const std::function<void(const Value&, const std::vector<uint64_t>&)>& fn)
    const {
  const Table* t = table_.load(std::memory_order_acquire);
  for (size_t b = 0; b <= t->mask; ++b) {
    for (const Slot* s = t->buckets[b].load(std::memory_order_acquire);
         s != nullptr; s = s->next) {
      const PostingVersion* v = VersionAt(*s->band, epoch);
      if (v != nullptr) fn(s->band->key, v->ids);
    }
  }
}

}  // namespace pgt::index
