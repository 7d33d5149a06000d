#ifndef PGTRIGGERS_CYPHER_PLAN_PLAN_CACHE_H_
#define PGTRIGGERS_CYPHER_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/str_util.h"
#include "src/cypher/ast.h"
#include "src/cypher/plan/program.h"

namespace pgt::cypher::plan {

/// One prepared ad-hoc statement: the parsed AST (kept for cheap
/// recompiles after an epoch bump) plus the compiled program.
struct PreparedStatement {
  Query query;
  std::shared_ptr<const PlanProgram> program;
  /// Plan epoch / store the program was compiled against; stale entries are
  /// recompiled from `query` without re-parsing.
  uint64_t epoch = 0;
  const GraphStore* store = nullptr;
  /// Computed once at parse: read-only statements take the txless read
  /// path (no transaction, no delta scope, no trigger round, no commit).
  bool read_only = false;
};

/// Small LRU cache mapping ad-hoc statement text to PreparedStatements.
/// Thread-safe behind an internal mutex: the writer and async-pool apply
/// threads may prepare statements from different threads (serialized by
/// the Database's writer interlock, but the mutex makes the cache safe on
/// its own — including stats reads from monitoring threads). Epoch
/// validation is the caller's job — the cache only stores and evicts.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the cached entry for `text` (marking it most-recently-used),
  /// or null. Heterogeneous lookup: no string copy on the hot Get path.
  /// The returned entry stays owned by the cache but is shared_ptr-held,
  /// so eviction cannot invalidate an in-flight execution.
  std::shared_ptr<PreparedStatement> Get(std::string_view text);

  /// Inserts (or replaces) the entry for `text`, evicting the
  /// least-recently-used entry beyond capacity.
  void Put(std::string_view text, std::shared_ptr<PreparedStatement> stmt);

  void Clear();
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  size_t capacity() const { return capacity_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }

 private:
  struct Entry {
    std::string text;
    std::shared_ptr<PreparedStatement> stmt;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  // Transparent hash so Get can probe with a string_view.
  std::unordered_map<std::string, std::list<Entry>::iterator,
                     TransparentStringHash, std::equal_to<>>
      entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace pgt::cypher::plan

#endif  // PGTRIGGERS_CYPHER_PLAN_PLAN_CACHE_H_
