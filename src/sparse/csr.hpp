#pragma once
// Compressed Sparse Row matrix: the compute format for all SpMM kernels.
//
// Invariants (checked by validate(), asserted by constructors):
//   * row_ptr has n_rows+1 entries, row_ptr[0] == 0, non-decreasing
//   * col_idx[k] in [0, n_cols) for all k
//   * within each row, column indices are strictly increasing

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sparse/coo.hpp"

namespace sagnn {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Take ownership of prebuilt arrays. Validates invariants.
  CsrMatrix(vid_t n_rows, vid_t n_cols, std::vector<eid_t> row_ptr,
            std::vector<vid_t> col_idx, std::vector<real_t> vals);

  /// Build from a COO. Duplicates are summed.
  static CsrMatrix from_coo(const CooMatrix& coo);

  /// n_rows x n_cols all-zero matrix.
  static CsrMatrix zeros(vid_t n_rows, vid_t n_cols);

  vid_t n_rows() const { return n_rows_; }
  vid_t n_cols() const { return n_cols_; }
  eid_t nnz() const { return static_cast<eid_t>(col_idx_.size()); }

  std::span<const eid_t> row_ptr() const { return row_ptr_; }
  std::span<const vid_t> col_idx() const { return col_idx_; }
  std::span<const real_t> vals() const { return vals_; }

  /// Column indices of row r.
  std::span<const vid_t> row_cols(vid_t r) const {
    return {col_idx_.data() + row_ptr_[r], col_idx_.data() + row_ptr_[r + 1]};
  }
  /// Values of row r.
  std::span<const real_t> row_vals(vid_t r) const {
    return {vals_.data() + row_ptr_[r], vals_.data() + row_ptr_[r + 1]};
  }
  eid_t row_nnz(vid_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// Explicit transpose (counting sort by column). O(nnz + n).
  CsrMatrix transpose() const;

  /// Value at (r, c), zero if absent. Binary search within the row.
  real_t at(vid_t r, vid_t c) const;

  /// Scale to the symmetric GCN normalization D^{-1/2} (A) D^{-1/2},
  /// where D is the row-sum degree diagonal of *this*. Requires square.
  void normalize_symmetric();

  /// Replace every column index c by new_id[c] (one entry per current
  /// column) and set the column count to n_cols. Throws, leaving *this
  /// unchanged, unless every renumbered index lies in [0, n_cols) and each
  /// row stays strictly increasing.
  void renumber_cols(std::span<const vid_t> new_id, vid_t n_cols);

  /// Check all invariants; throws Error on violation (used by tests and by
  /// deserialization paths).
  void validate() const;

  bool operator==(const CsrMatrix& o) const = default;

 private:
  /// Tag for the unchecked construction path: arrays produced by kernels
  /// that preserve the invariants structurally (e.g. transpose()'s counting
  /// sort) skip the O(nnz) validate() pass. Public constructors and
  /// from_coo always validate.
  struct UncheckedTag {};
  CsrMatrix(UncheckedTag, vid_t n_rows, vid_t n_cols, std::vector<eid_t> row_ptr,
            std::vector<vid_t> col_idx, std::vector<real_t> vals)
      : n_rows_(n_rows),
        n_cols_(n_cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        vals_(std::move(vals)) {}

  vid_t n_rows_ = 0;
  vid_t n_cols_ = 0;
  std::vector<eid_t> row_ptr_{0};
  std::vector<vid_t> col_idx_;
  std::vector<real_t> vals_;
};

}  // namespace sagnn
