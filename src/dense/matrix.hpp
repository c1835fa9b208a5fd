#pragma once
// Row-major dense matrix of real_t. This is the container for the
// tall-skinny activation/feature matrices H, Z, G and the small square
// weight matrices W of GCN training.

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace sagnn {

class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized n_rows x n_cols matrix.
  Matrix(vid_t n_rows, vid_t n_cols);

  /// Construct from existing row-major data (size must be n_rows*n_cols).
  Matrix(vid_t n_rows, vid_t n_cols, std::vector<real_t> data);

  static Matrix zeros(vid_t n_rows, vid_t n_cols) { return Matrix(n_rows, n_cols); }
  static Matrix identity(vid_t n);
  /// I.i.d. uniform [lo, hi) entries from `rng`.
  static Matrix random_uniform(vid_t n_rows, vid_t n_cols, Rng& rng,
                               real_t lo = -1, real_t hi = 1);
  /// Glorot/Xavier uniform init for a weight matrix (fan_in = rows, fan_out = cols).
  static Matrix glorot(vid_t n_rows, vid_t n_cols, Rng& rng);

  vid_t n_rows() const { return n_rows_; }
  vid_t n_cols() const { return n_cols_; }
  std::size_t size() const { return data_.size(); }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  real_t* row(vid_t r) { return data_.data() + static_cast<std::size_t>(r) * n_cols_; }
  const real_t* row(vid_t r) const {
    return data_.data() + static_cast<std::size_t>(r) * n_cols_;
  }

  real_t& operator()(vid_t r, vid_t c) {
    return data_[static_cast<std::size_t>(r) * n_cols_ + c];
  }
  real_t operator()(vid_t r, vid_t c) const {
    return data_[static_cast<std::size_t>(r) * n_cols_ + c];
  }

  void fill(real_t v);
  void set_zero() { fill(real_t{0}); }

  /// Extract rows [begin, end) as a new matrix.
  Matrix slice_rows(vid_t begin, vid_t end) const;

  /// Copy `src` into columns [begin, begin + src.n_cols()) of *this* (row
  /// counts must match).
  void paste_cols(vid_t begin, const Matrix& src);

  /// Gather the given rows (in order) into a new matrix. Used by the
  /// sparsity-aware pack step (T <- H[NnzCols]).
  Matrix gather_rows(std::span<const vid_t> rows) const;

  /// Scatter `src` into the given rows of *this* (inverse of gather_rows).
  void scatter_rows(std::span<const vid_t> rows, const Matrix& src);

  /// Frobenius norm of (*this - other); both shapes must match.
  double frobenius_distance(const Matrix& other) const;
  /// Max absolute elementwise difference.
  double max_abs_diff(const Matrix& other) const;

  bool operator==(const Matrix& o) const = default;

 private:
  vid_t n_rows_ = 0;
  vid_t n_cols_ = 0;
  std::vector<real_t> data_;
};

}  // namespace sagnn
