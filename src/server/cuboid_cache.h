#ifndef X3_SERVER_CUBOID_CACHE_H_
#define X3_SERVER_CUBOID_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

#include "cube/view_store.h"
#include "util/thread_annotations.h"

namespace x3 {

/// LRU bookkeeping over the materialized cuboid views of a server.
///
/// The views themselves live in each query shape's CubeViewStore (one
/// store per normalized pattern + aggregate); the cache only decides
/// which of them stay materialized. A cache key is therefore
/// (view store, cuboid id): the store pointer identifies the normalized
/// pattern and aggregate, the cuboid id is the relaxation point — the
/// (pattern, relaxation point, aggregate) cache key of the serving
/// design in one pair.
///
/// Eviction calls CubeViewStore::Evict on the victim. A concurrent
/// AnswerFromViews either picked the view before (it then projects the
/// immutable view it holds, which the eviction only unlinks from the
/// store) or misses and rebuilds it; both are correct, so no
/// cross-object lock is needed.
///
/// Thread-safe. Lock order: mu_ (rank kServerCache) is held across the
/// victim store's Evict (rank kViewStore) — a legal low-to-high
/// acquisition.
class CuboidCache {
 public:
  /// capacity_bytes = 0 means unlimited (nothing is ever evicted).
  explicit CuboidCache(size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  CuboidCache(const CuboidCache&) = delete;
  CuboidCache& operator=(const CuboidCache&) = delete;

  /// Records a hit: moves the view to most-recently-used. Keys that are
  /// not cached (evicted by a concurrent insert) are ignored.
  void Touch(CubeViewStore* store, CuboidId cuboid) X3_EXCLUDES(mu_);

  /// Accounts a newly materialized view (or refreshes the byte size of
  /// a re-materialized one) and evicts least-recently-used views until
  /// the total fits the capacity. The view being inserted is exempt
  /// from its own insertion's sweep, so an oversized view still serves
  /// repeats of its own query until something else displaces it.
  void Insert(CubeViewStore* store, CuboidId cuboid, size_t bytes)
      X3_EXCLUDES(mu_);

  /// Forgets every entry of `store` WITHOUT evicting the views: the
  /// write path calls this when it swaps a shape's snapshot, so the
  /// cache never keeps keys into a store that is about to be destroyed
  /// (the old snapshot's views die with their snapshot). Not counted as
  /// evictions.
  void DropStore(CubeViewStore* store) X3_EXCLUDES(mu_);

  /// Evicts every cached view (test hook for forced cold starts).
  void Clear() X3_EXCLUDES(mu_);

  size_t bytes() const X3_EXCLUDES(mu_);
  size_t num_views() const X3_EXCLUDES(mu_);
  uint64_t evictions() const X3_EXCLUDES(mu_);

 private:
  struct Entry {
    CubeViewStore* store;
    CuboidId cuboid;
    size_t bytes;
  };
  using Key = std::pair<CubeViewStore*, CuboidId>;
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return std::hash<CubeViewStore*>()(key.first) ^
             (std::hash<uint64_t>()(key.second) * 0x9e3779b97f4a7c15ULL);
    }
  };

  /// Evicts LRU-first until bytes_ <= capacity, never evicting `keep`.
  void EvictOverflowLocked(const Key& keep) X3_REQUIRES(mu_);

  const size_t capacity_bytes_;
  mutable Mutex mu_{lock_rank::kServerCache};
  /// Front = most recently used.
  std::list<Entry> lru_ X3_GUARDED_BY(mu_);
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      X3_GUARDED_BY(mu_);
  size_t bytes_ X3_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ X3_GUARDED_BY(mu_) = 0;
};

}  // namespace x3

#endif  // X3_SERVER_CUBOID_CACHE_H_
