#pragma once
// Byte-capacity-bounded LRU cache of layer-1 aggregation rows, the memory
// the online inference engine trades for latency.
//
// What is cached and why exactly this: the first-layer aggregation
// M¹_u = (Â·H⁰)_u is the only per-node intermediate of a GCN forward pass
// that (a) depends on nothing but the graph row and the STATIC feature
// matrix — weights never touch it, so it survives arbitrarily many
// queries — and (b) sits under every query that touches u's neighborhood,
// at any layer depth. Deeper intermediates would also need invalidation
// when any multi-hop neighbor changes; M¹ rows are invalidated by exactly
// the streaming edge updates incident to u (GraphMutator's dirty
// notifications), which keeps invalidation precise instead of
// conservative.
//
// Capacity is measured in payload bytes (row length × sizeof(real_t)), not
// entries, because serving deployments budget cache memory, not counts.
// Capacity 0 disables the cache entirely (every lookup is a miss and
// inserts are dropped) — the configuration the correctness property tests
// use as the "no cache" baseline.

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace sagnn::serve {

class AggregationCache {
 public:
  /// `capacity_bytes` bounds the sum of cached row payloads; 0 disables.
  explicit AggregationCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;      ///< capacity-pressure removals
    std::uint64_t invalidations = 0;  ///< explicit removals (graph updates)
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< current payload footprint

    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// Row for `node`, or nullptr on miss. A hit refreshes recency. The
  /// pointer stays valid until the next insert or invalidate.
  const std::vector<real_t>* lookup(vid_t node);

  /// Cache `row` for `node`, evicting least-recently-used entries until it
  /// fits. A row larger than the whole capacity is not cached. Inserting
  /// over an existing entry replaces it (refreshing recency).
  void insert(vid_t node, std::vector<real_t> row);

  /// Drop `node` if cached (a graph update made its row stale).
  void invalidate(vid_t node);

  std::size_t capacity_bytes() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }
  const Stats& stats() const { return stats_; }
  void reset_counters();

 private:
  struct Entry {
    vid_t node;
    std::vector<real_t> row;
  };

  void evict_lru();

  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<vid_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace sagnn::serve
