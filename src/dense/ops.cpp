#include "dense/ops.hpp"

#include <algorithm>
#include <cmath>

namespace sagnn {

Matrix relu(const Matrix& z) {
  Matrix h(z.n_rows(), z.n_cols());
  const real_t* src = z.data();
  real_t* dst = h.data();
  for (std::size_t i = 0; i < z.size(); ++i) dst[i] = src[i] > 0 ? src[i] : real_t{0};
  return h;
}

Matrix relu_grad(const Matrix& z) {
  Matrix d(z.n_rows(), z.n_cols());
  const real_t* src = z.data();
  real_t* dst = d.data();
  for (std::size_t i = 0; i < z.size(); ++i) {
    dst[i] = src[i] > 0 ? real_t{1} : real_t{0};
  }
  return d;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  hadamard_inplace(c, b);
  return c;
}

void hadamard_inplace(Matrix& c, const Matrix& b) {
  SAGNN_REQUIRE(c.n_rows() == b.n_rows() && c.n_cols() == b.n_cols(),
                "hadamard shape mismatch");
  real_t* cd = c.data();
  const real_t* bd = b.data();
  for (std::size_t i = 0; i < c.size(); ++i) cd[i] *= bd[i];
}

void add_inplace(Matrix& a, const Matrix& b) {
  SAGNN_REQUIRE(a.n_rows() == b.n_rows() && a.n_cols() == b.n_cols(),
                "add shape mismatch");
  real_t* ad = a.data();
  const real_t* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) ad[i] += bd[i];
}

void axpy_inplace(Matrix& a, const Matrix& b, real_t scale) {
  SAGNN_REQUIRE(a.n_rows() == b.n_rows() && a.n_cols() == b.n_cols(),
                "axpy shape mismatch");
  real_t* ad = a.data();
  const real_t* bd = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) ad[i] += scale * bd[i];
}

Matrix row_softmax(const Matrix& z) {
  Matrix p(z.n_rows(), z.n_cols());
  const vid_t f = z.n_cols();
  for (vid_t r = 0; r < z.n_rows(); ++r) {
    const real_t* zr = z.row(r);
    real_t* pr = p.row(r);
    real_t m = zr[0];
    for (vid_t j = 1; j < f; ++j) m = std::max(m, zr[j]);
    real_t sum = 0;
    for (vid_t j = 0; j < f; ++j) {
      pr[j] = std::exp(zr[j] - m);
      sum += pr[j];
    }
    const real_t inv = real_t{1} / sum;
    for (vid_t j = 0; j < f; ++j) pr[j] *= inv;
  }
  return p;
}

namespace {
inline void dropout_one_row(real_t* row, vid_t cols, real_t p, real_t scale,
                            std::uint64_t seed, vid_t identity) {
  // One independent stream per row IDENTITY: rank/permutation invariant.
  Rng row_rng = Rng(seed).fork(static_cast<std::uint64_t>(identity) + 1);
  for (vid_t c = 0; c < cols; ++c) {
    row[c] = row_rng.bernoulli(p) ? real_t{0} : row[c] * scale;
  }
}
}  // namespace

void dropout_rows_deterministic(Matrix& m, real_t p, std::uint64_t seed,
                                vid_t row_offset) {
  SAGNN_REQUIRE(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1)");
  if (p == 0.0f) return;
  const real_t scale = real_t{1} / (real_t{1} - p);
  for (vid_t r = 0; r < m.n_rows(); ++r) {
    dropout_one_row(m.row(r), m.n_cols(), p, scale, seed, row_offset + r);
  }
}

void dropout_rows_deterministic(Matrix& m, real_t p, std::uint64_t seed,
                                std::span<const vid_t> row_ids) {
  SAGNN_REQUIRE(p >= 0.0f && p < 1.0f, "dropout probability must be in [0,1)");
  SAGNN_REQUIRE(row_ids.size() == static_cast<std::size_t>(m.n_rows()),
                "one identity per row required");
  if (p == 0.0f) return;
  const real_t scale = real_t{1} / (real_t{1} - p);
  for (vid_t r = 0; r < m.n_rows(); ++r) {
    dropout_one_row(m.row(r), m.n_cols(), p, scale, seed,
                    row_ids[static_cast<std::size_t>(r)]);
  }
}

std::vector<vid_t> row_argmax(const Matrix& z) {
  std::vector<vid_t> out(static_cast<std::size_t>(z.n_rows()));
  for (vid_t r = 0; r < z.n_rows(); ++r) {
    const real_t* zr = z.row(r);
    vid_t best = 0;
    for (vid_t j = 1; j < z.n_cols(); ++j) {
      if (zr[j] > zr[best]) best = j;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

}  // namespace sagnn
