#include "dense/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace sagnn {

Matrix::Matrix(vid_t n_rows, vid_t n_cols)
    : n_rows_(n_rows),
      n_cols_(n_cols),
      data_(static_cast<std::size_t>(n_rows) * n_cols, real_t{0}) {
  SAGNN_REQUIRE(n_rows >= 0 && n_cols >= 0, "matrix dimensions must be non-negative");
}

Matrix::Matrix(vid_t n_rows, vid_t n_cols, std::vector<real_t> data)
    : n_rows_(n_rows), n_cols_(n_cols), data_(std::move(data)) {
  SAGNN_REQUIRE(data_.size() == static_cast<std::size_t>(n_rows) * n_cols,
                "data size must equal n_rows*n_cols");
}

Matrix Matrix::identity(vid_t n) {
  Matrix m(n, n);
  for (vid_t i = 0; i < n; ++i) m(i, i) = real_t{1};
  return m;
}

Matrix Matrix::random_uniform(vid_t n_rows, vid_t n_cols, Rng& rng, real_t lo,
                              real_t hi) {
  Matrix m(n_rows, n_cols);
  for (auto& v : m.data_) v = rng.uniform(lo, hi);
  return m;
}

Matrix Matrix::glorot(vid_t n_rows, vid_t n_cols, Rng& rng) {
  const real_t limit =
      std::sqrt(real_t{6} / static_cast<real_t>(n_rows + n_cols));
  return random_uniform(n_rows, n_cols, rng, -limit, limit);
}

void Matrix::fill(real_t v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::slice_rows(vid_t begin, vid_t end) const {
  SAGNN_REQUIRE(begin >= 0 && begin <= end && end <= n_rows_,
                "slice_rows range out of bounds");
  Matrix out(end - begin, n_cols_);
  std::copy(row(begin), row(begin) + static_cast<std::size_t>(end - begin) * n_cols_,
            out.data());
  return out;
}

void Matrix::paste_cols(vid_t begin, const Matrix& src) {
  SAGNN_REQUIRE(src.n_rows() == n_rows_ && begin >= 0 &&
                    begin + src.n_cols() <= n_cols_,
                "paste_cols shape mismatch");
  for (vid_t r = 0; r < n_rows_; ++r) {
    std::copy(src.row(r), src.row(r) + src.n_cols(), row(r) + begin);
  }
}

Matrix Matrix::gather_rows(std::span<const vid_t> rows) const {
  Matrix out(static_cast<vid_t>(rows.size()), n_cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SAGNN_REQUIRE(rows[i] >= 0 && rows[i] < n_rows_, "gather_rows index out of range");
    std::copy(row(rows[i]), row(rows[i]) + n_cols_, out.row(static_cast<vid_t>(i)));
  }
  return out;
}

void Matrix::scatter_rows(std::span<const vid_t> rows, const Matrix& src) {
  SAGNN_REQUIRE(src.n_rows() == static_cast<vid_t>(rows.size()) &&
                    src.n_cols() == n_cols_,
                "scatter_rows shape mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SAGNN_REQUIRE(rows[i] >= 0 && rows[i] < n_rows_, "scatter_rows index out of range");
    std::copy(src.row(static_cast<vid_t>(i)), src.row(static_cast<vid_t>(i)) + n_cols_,
              row(rows[i]));
  }
}

double Matrix::frobenius_distance(const Matrix& other) const {
  SAGNN_REQUIRE(n_rows_ == other.n_rows_ && n_cols_ == other.n_cols_,
                "shape mismatch");
  double acc = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    const double d = static_cast<double>(data_[i]) - other.data_[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  SAGNN_REQUIRE(n_rows_ == other.n_rows_ && n_cols_ == other.n_cols_,
                "shape mismatch");
  double m = 0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(data_[i]) - other.data_[i]));
  }
  return m;
}

}  // namespace sagnn
