#include "serve/graph_mutator.hpp"

#include <algorithm>

namespace sagnn::serve {

GraphMutator::GraphMutator(CsrMatrix base) : base_(std::move(base)) {
  SAGNN_REQUIRE(base_.n_rows() == base_.n_cols(),
                "GraphMutator needs a square adjacency");
  nnz_ = base_.nnz();
}

real_t GraphMutator::base_at(vid_t row, vid_t col, bool* present) const {
  const auto cols = base_.row_cols(row);
  const auto it = std::lower_bound(cols.begin(), cols.end(), col);
  if (it == cols.end() || *it != col) {
    *present = false;
    return real_t{0};
  }
  *present = true;
  return base_.row_vals(row)[static_cast<std::size_t>(it - cols.begin())];
}

real_t GraphMutator::at(vid_t u, vid_t v) const {
  SAGNN_REQUIRE(u >= 0 && u < n() && v >= 0 && v < n(), "vertex out of range");
  const auto dit = deltas_.find(u);
  if (dit != deltas_.end()) {
    const RowDelta& d = dit->second;
    const auto up = d.upserts.find(v);
    if (up != d.upserts.end()) return up->second;
    if (d.erases.contains(v)) return real_t{0};
  }
  bool present = false;
  return base_at(u, v, &present);
}

GraphMutator::ArcResult GraphMutator::upsert_arc(vid_t row, vid_t col,
                                                 real_t value) {
  RowDelta& d = deltas_[row];
  bool in_base = false;
  const real_t base_val = base_at(row, col, &in_base);
  const std::size_t before = d.upserts.size() + d.erases.size();

  ArcResult res;
  const auto up = d.upserts.find(col);
  if (up != d.upserts.end()) {
    // Already upserted (present): value change only.
    if (up->second != value) {
      up->second = value;
      res.changed = true;
    }
  } else if (d.erases.contains(col)) {
    // Re-inserting a base column that was pending erase.
    d.erases.erase(col);
    res.nnz_delta = 1;
    res.changed = true;
    if (base_val != value) d.upserts.emplace(col, value);
  } else if (in_base) {
    if (base_val != value) {
      d.upserts.emplace(col, value);
      res.changed = true;
    }
  } else {
    d.upserts.emplace(col, value);
    res.nnz_delta = 1;
    res.changed = true;
  }
  stats_.overlay_entries += d.upserts.size() + d.erases.size() - before;
  if (d.upserts.empty() && d.erases.empty()) deltas_.erase(row);
  return res;
}

GraphMutator::ArcResult GraphMutator::erase_arc(vid_t row, vid_t col) {
  ArcResult res;
  const auto dit = deltas_.find(row);
  bool in_base = false;
  base_at(row, col, &in_base);

  if (dit != deltas_.end()) {
    RowDelta& d = dit->second;
    const auto up = d.upserts.find(col);
    if (up != d.upserts.end()) {
      d.upserts.erase(up);
      if (in_base) {
        d.erases.insert(col);
      } else {
        --stats_.overlay_entries;
      }
      res.nnz_delta = -1;
      res.changed = true;
      if (d.upserts.empty() && d.erases.empty()) deltas_.erase(dit);
      return res;
    }
    if (d.erases.contains(col)) return res;  // already erased: no-op
  }
  if (!in_base) return res;  // never existed: no-op
  deltas_[row].erases.insert(col);
  ++stats_.overlay_entries;
  res.nnz_delta = -1;
  res.changed = true;
  return res;
}

void GraphMutator::notify_dirty(vid_t row) {
  if (dirty_listener_) dirty_listener_(row);
}

bool GraphMutator::insert_edge(vid_t u, vid_t v, real_t value) {
  SAGNN_REQUIRE(u >= 0 && u < n() && v >= 0 && v < n(), "vertex out of range");
  const ArcResult a = upsert_arc(u, v, value);
  const ArcResult b = u == v ? ArcResult{} : upsert_arc(v, u, value);
  nnz_ += a.nnz_delta + b.nnz_delta;
  const bool changed = a.changed || b.changed;
  if (!changed) {
    ++stats_.noop_ops;
  } else if (a.nnz_delta != 0 || b.nnz_delta != 0) {
    ++stats_.inserts;
  } else {
    ++stats_.value_updates;
  }
  if (a.changed) notify_dirty(u);
  if (b.changed) notify_dirty(v);
  maybe_compact();
  return changed;
}

bool GraphMutator::erase_edge(vid_t u, vid_t v) {
  SAGNN_REQUIRE(u >= 0 && u < n() && v >= 0 && v < n(), "vertex out of range");
  const ArcResult a = erase_arc(u, v);
  const ArcResult b = u == v ? ArcResult{} : erase_arc(v, u);
  nnz_ += a.nnz_delta + b.nnz_delta;
  const bool changed = a.changed || b.changed;
  if (changed) {
    ++stats_.erases;
  } else {
    ++stats_.noop_ops;
  }
  if (a.changed) notify_dirty(u);
  if (b.changed) notify_dirty(v);
  maybe_compact();
  return changed;
}

CsrMatrix GraphMutator::materialize() const {
  const vid_t nn = n();
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(nn) + 1, 0);
  std::vector<vid_t> col_idx;
  std::vector<real_t> vals;
  col_idx.reserve(static_cast<std::size_t>(nnz_));
  vals.reserve(static_cast<std::size_t>(nnz_));
  for (vid_t r = 0; r < nn; ++r) {
    for_each_nonzero(r, [&](vid_t c, real_t v) {
      col_idx.push_back(c);
      vals.push_back(v);
    });
    row_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<eid_t>(col_idx.size());
  }
  return CsrMatrix(nn, nn, std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

void GraphMutator::compact() {
  if (deltas_.empty()) return;
  base_ = materialize();
  deltas_.clear();
  stats_.overlay_entries = 0;
  ++stats_.compactions;
  SAGNN_CHECK(base_.nnz() == nnz_);
}

void GraphMutator::maybe_compact() {
  if (compaction_threshold_ > 0 &&
      stats_.overlay_entries > compaction_threshold_) {
    compact();
  }
}

}  // namespace sagnn::serve
