#pragma once
// Streaming graph updates for online serving: a delta overlay over an
// immutable CsrMatrix.
//
// CSR is the right format for reading (every kernel in src/sparse assumes
// it) and the wrong one for writing — a single edge insertion shifts O(nnz)
// array tail. The mutator therefore keeps the graph as
//
//     base CSR  +  per-row delta {upserts, erases}
//
// and answers row reads through a two-pointer merge that yields (col, val)
// pairs in strictly increasing column order — the SAME sequence a
// compacted CSR row would yield. Because every aggregation in this
// codebase accumulates a row's nonzeros in column order, reads through the
// overlay are bitwise identical to reads of the compacted matrix; the
// serving bench asserts exactly this across a compaction boundary.
//
// When the overlay grows past a configurable threshold (reads slow down
// linearly in delta size), the mutator compacts: rebuilds the CSR with the
// deltas folded in and clears the overlay. Compaction changes the physical
// representation only, never the logical graph, so cached aggregations
// survive it.
//
// A dirty listener closes the loop with the rest of the serving stack: it
// fires once per logically-changed row (both endpoints of an edge op), and
// the InferenceEngine subscribes it to invalidate exactly the affected
// cache entries.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "sparse/csr.hpp"

namespace sagnn::serve {

class GraphMutator {
 public:
  /// Takes the serving-time adjacency (square, e.g. a Dataset's Â).
  explicit GraphMutator(CsrMatrix base);

  vid_t n() const { return base_.n_rows(); }
  /// Logical nonzero count (base with the overlay folded in).
  eid_t nnz() const { return nnz_; }

  /// Symmetric upsert of edge {u, v} (both directions; a self loop is one
  /// entry). Returns true if the logical graph changed (new edge or new
  /// value); an exact duplicate is a no-op. Changed endpoints are reported
  /// to the dirty listener.
  bool insert_edge(vid_t u, vid_t v, real_t value = real_t{1});

  /// Symmetric removal of edge {u, v}. Returns false (counted no-op) if
  /// the edge is absent.
  bool erase_edge(vid_t u, vid_t v);

  /// Visit row `row`'s logical nonzeros as fn(col, val) in strictly
  /// increasing column order — identical to iterating the compacted CSR.
  template <typename Fn>
  void for_each_nonzero(vid_t row, Fn&& fn) const {
    const auto cols = base_.row_cols(row);
    const auto vals = base_.row_vals(row);
    const auto dit = deltas_.find(row);
    if (dit == deltas_.end()) {
      for (std::size_t k = 0; k < cols.size(); ++k) fn(cols[k], vals[k]);
      return;
    }
    const RowDelta& d = dit->second;
    auto up = d.upserts.begin();
    std::size_t k = 0;
    while (k < cols.size() || up != d.upserts.end()) {
      if (up == d.upserts.end() || (k < cols.size() && cols[k] < up->first)) {
        if (!d.erases.contains(cols[k])) fn(cols[k], vals[k]);
        ++k;
      } else if (k == cols.size() || up->first < cols[k]) {
        fn(up->first, up->second);
        ++up;
      } else {  // same column: the upsert's value wins
        fn(cols[k], up->second);
        ++k;
        ++up;
      }
    }
  }

  /// Logical value at (u, v); 0 if absent.
  real_t at(vid_t u, vid_t v) const;

  /// Build the logical graph as a standalone validated CSR.
  CsrMatrix materialize() const;

  /// Fold the overlay into the base CSR and clear it. Logical no-op.
  void compact();

  bool has_overlay() const { return !deltas_.empty(); }

  /// Auto-compact once the overlay holds more than `max_entries` pending
  /// upserts+erases (0 = never; the default). Checked after each edge op.
  void set_compaction_threshold(std::size_t max_entries) {
    compaction_threshold_ = max_entries;
    maybe_compact();
  }

  /// Called once per row whose logical content changed (at most two rows
  /// per edge op). Pass nullptr to unsubscribe.
  void set_dirty_listener(std::function<void(vid_t)> listener) {
    dirty_listener_ = std::move(listener);
  }

  struct Stats {
    std::uint64_t inserts = 0;       ///< structural insertions
    std::uint64_t value_updates = 0; ///< weight-only upserts
    std::uint64_t erases = 0;
    std::uint64_t noop_ops = 0;      ///< duplicate inserts + absent erases
    std::uint64_t compactions = 0;
    std::size_t overlay_entries = 0; ///< pending upserts + erases
  };
  const Stats& stats() const { return stats_; }

 private:
  struct RowDelta {
    std::map<vid_t, real_t> upserts;  ///< col -> new value
    std::set<vid_t> erases;           ///< cols removed from the base row
    // Invariant: upserts and erases are disjoint; erases only holds
    // columns present in the base row.
  };

  /// One direction (row, col): returns +1/-1 nonzero-count change (0 for a
  /// value-only change or no-op) and whether the row's content changed.
  struct ArcResult {
    int nnz_delta = 0;
    bool changed = false;
  };
  ArcResult upsert_arc(vid_t row, vid_t col, real_t value);
  ArcResult erase_arc(vid_t row, vid_t col);

  real_t base_at(vid_t row, vid_t col, bool* present) const;
  void notify_dirty(vid_t row);
  void maybe_compact();

  CsrMatrix base_;
  std::unordered_map<vid_t, RowDelta> deltas_;
  eid_t nnz_ = 0;
  std::size_t compaction_threshold_ = 0;
  std::function<void(vid_t)> dirty_listener_;

  Stats stats_;
};

}  // namespace sagnn::serve
