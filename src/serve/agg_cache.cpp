#include "serve/agg_cache.hpp"

namespace sagnn::serve {

const std::vector<real_t>* AggregationCache::lookup(vid_t node) {
  const auto it = index_.find(node);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->row;
}

void AggregationCache::insert(vid_t node, std::vector<real_t> row) {
  const std::size_t bytes = row.size() * sizeof(real_t);
  if (bytes > capacity_) return;  // covers the disabled (capacity 0) case
  const auto it = index_.find(node);
  if (it != index_.end()) {
    stats_.bytes -= it->second->row.size() * sizeof(real_t);
    stats_.bytes += bytes;
    it->second->row = std::move(row);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (stats_.bytes + bytes > capacity_) evict_lru();
  lru_.push_front(Entry{node, std::move(row)});
  index_[node] = lru_.begin();
  stats_.bytes += bytes;
  stats_.entries = index_.size();
}

void AggregationCache::evict_lru() {
  SAGNN_CHECK(!lru_.empty());
  const Entry& victim = lru_.back();
  stats_.bytes -= victim.row.size() * sizeof(real_t);
  index_.erase(victim.node);
  lru_.pop_back();
  ++stats_.evictions;
  stats_.entries = index_.size();
}

void AggregationCache::invalidate(vid_t node) {
  const auto it = index_.find(node);
  if (it == index_.end()) return;
  stats_.bytes -= it->second->row.size() * sizeof(real_t);
  lru_.erase(it->second);
  index_.erase(it);
  ++stats_.invalidations;
  stats_.entries = index_.size();
}

void AggregationCache::reset_counters() {
  stats_.hits = 0;
  stats_.misses = 0;
  stats_.evictions = 0;
  stats_.invalidations = 0;
}

}  // namespace sagnn::serve
