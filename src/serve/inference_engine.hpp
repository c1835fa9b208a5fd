#pragma once
// Online GCN inference over a mutating graph.
//
// Serving answers "what are the logits of node v RIGHT NOW?" without
// paying a full-graph forward pass per query. The engine walks v's
// L-hop neighborhood (Â contains self loops, so every frontier includes
// its sources), computes only the rows each layer actually needs, and
// backs the innermost level with the AggregationCache: the layer-1
// aggregation M¹_u = (Â·H⁰)_u is weight-independent and reusable across
// queries until an edge incident to u changes — which the GraphMutator
// reports through its dirty listener, so invalidation is exact, not
// conservative.
//
// THE contract of this subsystem is bitwise identity: for every node v
// and any overlay state,
//
//     infer_node(v) == infer_node_bypass(v)
//                   == full_forward().row(v)
//                   == the training forward on materialize()   (bit for bit)
//
// It holds because every per-row kernel here replicates the exact
// floating-point accumulation order of the training kernels: row
// aggregation visits nonzeros in strictly increasing column order (what
// GraphMutator::for_each_nonzero yields and spmm_accumulate does), and
// the row×W product accumulates over the input dimension ascending with
// the output row as the inner loop (gemm's ikj order). The serving bench
// and the property tests assert the chain across cache states, overlay
// states, compaction boundaries, and thread counts.
//
// Queries are served on the calling thread (latency path, no fan-out);
// full_forward() uses the parallel training kernels, which are bitwise
// thread-count-invariant.

#include <span>
#include <unordered_map>
#include <vector>

#include "dense/matrix.hpp"
#include "gnn/model.hpp"
#include "serve/agg_cache.hpp"
#include "serve/graph_mutator.hpp"

namespace sagnn::serve {

class InferenceEngine {
 public:
  /// `graph` must outlive the engine. `features` is H⁰ (one row per
  /// vertex); `cache_capacity_bytes` bounds the aggregation cache
  /// (0 disables caching). The engine subscribes to the mutator's dirty
  /// notifications for exact cache invalidation.
  InferenceEngine(GcnModel model, Matrix features, GraphMutator& graph,
                  std::size_t cache_capacity_bytes);
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Logits of node v on the current graph (cached path).
  std::vector<real_t> infer_node(vid_t v);

  /// Same answer, never reading or writing the cache — the correctness
  /// reference the bench compares against.
  std::vector<real_t> infer_node_bypass(vid_t v);

  /// Logits for a batch of nodes (rows in input order). The L-hop
  /// frontier expansion is shared across the batch, so overlapping
  /// neighborhoods are computed once.
  Matrix infer_batch(std::span<const vid_t> nodes);

  /// Whole-graph forward with the training kernels (spmm + gemm) on
  /// materialize() — the ground truth the per-node paths are bit-equal to.
  Matrix full_forward() const;

  const GcnModel& model() const { return model_; }
  const AggregationCache::Stats& cache_stats() const { return cache_.stats(); }
  AggregationCache& cache() { return cache_; }

 private:
  /// Batch forward over the L-hop frontiers of `targets`; `use_cache`
  /// selects the cached or bypass path for the level-1 aggregations.
  Matrix infer_targets(std::span<const vid_t> targets, bool use_cache);

  /// (Â·H⁰)_row computed from the mutator (increasing-column order).
  std::vector<real_t> aggregate_features(vid_t row) const;

  GcnModel model_;
  Matrix features_;
  GraphMutator& graph_;
  AggregationCache cache_;
};

}  // namespace sagnn::serve
