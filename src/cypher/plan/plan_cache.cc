#include "src/cypher/plan/plan_cache.h"

namespace pgt::cypher::plan {

std::shared_ptr<PreparedStatement> PlanCache::Get(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(text);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to front
  return it->second->stmt;
}

void PlanCache::Put(std::string_view text,
                    std::shared_ptr<PreparedStatement> stmt) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(text);
  if (it != entries_.end()) {
    it->second->stmt = std::move(stmt);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{std::string(text), std::move(stmt)});
  entries_[lru_.front().text] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().text);
    lru_.pop_back();
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
}

}  // namespace pgt::cypher::plan
