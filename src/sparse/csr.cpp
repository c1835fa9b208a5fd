#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

namespace sagnn {

CsrMatrix::CsrMatrix(vid_t n_rows, vid_t n_cols, std::vector<eid_t> row_ptr,
                     std::vector<vid_t> col_idx, std::vector<real_t> vals)
    : n_rows_(n_rows),
      n_cols_(n_cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      vals_(std::move(vals)) {
  validate();
}

CsrMatrix CsrMatrix::from_coo(const CooMatrix& coo) {
  CooMatrix sorted = coo;
  sorted.coalesce();
  const vid_t n = sorted.n_rows();
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vid_t> col_idx;
  std::vector<real_t> vals;
  col_idx.reserve(sorted.entries().size());
  vals.reserve(sorted.entries().size());
  for (const auto& e : sorted.entries()) {
    ++row_ptr[static_cast<std::size_t>(e.row) + 1];
    col_idx.push_back(e.col);
    vals.push_back(e.val);
  }
  for (vid_t r = 0; r < n; ++r) row_ptr[r + 1] += row_ptr[r];
  return CsrMatrix(n, sorted.n_cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

CsrMatrix CsrMatrix::zeros(vid_t n_rows, vid_t n_cols) {
  CsrMatrix m;
  m.n_rows_ = n_rows;
  m.n_cols_ = n_cols;
  m.row_ptr_.assign(static_cast<std::size_t>(n_rows) + 1, 0);
  return m;
}

CsrMatrix CsrMatrix::transpose() const {
  std::vector<eid_t> t_ptr(static_cast<std::size_t>(n_cols_) + 1, 0);
  for (vid_t c : col_idx_) ++t_ptr[static_cast<std::size_t>(c) + 1];
  for (vid_t c = 0; c < n_cols_; ++c) t_ptr[c + 1] += t_ptr[c];

  std::vector<vid_t> t_col(col_idx_.size());
  std::vector<real_t> t_val(vals_.size());
  std::vector<eid_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (vid_t r = 0; r < n_rows_; ++r) {
    for (eid_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const eid_t dst = cursor[col_idx_[k]]++;
      t_col[dst] = r;
      t_val[dst] = vals_[k];
    }
  }
  // Rows of the transpose are filled in increasing source-row order, so the
  // column indices are already sorted — the counting sort preserves every
  // CSR invariant by construction, and the unchecked path skips re-walking
  // all nnz in validate().
  return CsrMatrix(UncheckedTag{}, n_cols_, n_rows_, std::move(t_ptr),
                   std::move(t_col), std::move(t_val));
}

real_t CsrMatrix::at(vid_t r, vid_t c) const {
  SAGNN_REQUIRE(r >= 0 && r < n_rows_ && c >= 0 && c < n_cols_,
                "CsrMatrix::at index out of range");
  auto cols = row_cols(r);
  auto it = std::lower_bound(cols.begin(), cols.end(), c);
  if (it == cols.end() || *it != c) return real_t{0};
  return vals_[row_ptr_[r] + (it - cols.begin())];
}

void CsrMatrix::normalize_symmetric() {
  SAGNN_REQUIRE(n_rows_ == n_cols_, "normalize_symmetric requires square matrix");
  std::vector<real_t> inv_sqrt_deg(static_cast<std::size_t>(n_rows_), real_t{0});
  for (vid_t r = 0; r < n_rows_; ++r) {
    real_t deg = 0;
    for (eid_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) deg += vals_[k];
    inv_sqrt_deg[r] = deg > 0 ? real_t{1} / std::sqrt(deg) : real_t{0};
  }
  for (vid_t r = 0; r < n_rows_; ++r) {
    for (eid_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      vals_[k] *= inv_sqrt_deg[r] * inv_sqrt_deg[col_idx_[k]];
    }
  }
}

void CsrMatrix::renumber_cols(std::span<const vid_t> new_id, vid_t n_cols) {
  SAGNN_REQUIRE(n_cols >= 0 && new_id.size() == static_cast<std::size_t>(n_cols_),
                "renumber_cols needs one new id per column");
  // Check every row before writing, so a bad map changes nothing.
  for (vid_t r = 0; r < n_rows_; ++r) {
    vid_t prev = -1;
    for (eid_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const vid_t c = new_id[static_cast<std::size_t>(col_idx_[k])];
      SAGNN_REQUIRE(c > prev && c < n_cols,
                    "renumbered columns must stay in range and increasing");
      prev = c;
    }
  }
  for (vid_t& c : col_idx_) c = new_id[static_cast<std::size_t>(c)];
  n_cols_ = n_cols;
}

void CsrMatrix::validate() const {
  SAGNN_REQUIRE(n_rows_ >= 0 && n_cols_ >= 0, "negative dimensions");
  SAGNN_REQUIRE(row_ptr_.size() == static_cast<std::size_t>(n_rows_) + 1,
                "row_ptr size mismatch");
  SAGNN_REQUIRE(row_ptr_.front() == 0, "row_ptr[0] must be 0");
  SAGNN_REQUIRE(row_ptr_.back() == static_cast<eid_t>(col_idx_.size()),
                "row_ptr back must equal nnz");
  SAGNN_REQUIRE(col_idx_.size() == vals_.size(), "col_idx/vals size mismatch");
  for (vid_t r = 0; r < n_rows_; ++r) {
    SAGNN_REQUIRE(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr must be non-decreasing");
    for (eid_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      SAGNN_REQUIRE(col_idx_[k] >= 0 && col_idx_[k] < n_cols_,
                    "column index out of range");
      if (k > row_ptr_[r]) {
        SAGNN_REQUIRE(col_idx_[k - 1] < col_idx_[k],
                      "column indices must be strictly increasing within a row");
      }
    }
  }
}

}  // namespace sagnn
