#include "dense/gemm.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace sagnn {

namespace {

/// C rows [row_begin, row_end) of C += A * B, ikj order: streams through B
/// rows, adding into C once per p. The loop of gemm_accumulate_reference;
/// per-element accumulation order is p ascending.
inline void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c,
                      vid_t row_begin, vid_t row_end) {
  const vid_t n = a.n_cols(), k = b.n_cols();
  for (vid_t i = row_begin; i < row_end; ++i) {
    const real_t* ai = a.row(i);
    real_t* ci = c.row(i);
    for (vid_t p = 0; p < n; ++p) {
      const real_t aip = ai[p];
      const real_t* bp = b.row(p);
      for (vid_t j = 0; j < k; ++j) ci[j] += aip * bp[j];
    }
  }
}

/// One W-wide strip of one C row: cs[j] += ai[p] * b[p][j0 + j] for p
/// ascending. The running sums live in a local array between additions,
/// which cannot alias the operands, so the compiler keeps them in vector
/// registers and the strip is loaded and stored once instead of once per p.
template <int W>
inline void gemm_strip(const real_t* ai, const Matrix& b, vid_t j0, real_t* cs) {
  const vid_t n = b.n_rows();
  real_t acc[W];
  for (int j = 0; j < W; ++j) acc[j] = cs[j];
  for (vid_t p = 0; p < n; ++p) {
    const real_t aip = ai[p];
    const real_t* bp = b.row(p) + j0;
    for (int j = 0; j < W; ++j) acc[j] += aip * bp[j];
  }
  for (int j = 0; j < W; ++j) cs[j] = acc[j];
}

/// gemm_rows with each C row covered by strips of 16, then 8, 4 and 1
/// columns: every element takes the same products in the same order from
/// its own starting value, so the result is bitwise identical.
inline void gemm_row_strips(const Matrix& a, const Matrix& b, Matrix& c,
                            vid_t row_begin, vid_t row_end) {
  const vid_t k = b.n_cols();
  for (vid_t i = row_begin; i < row_end; ++i) {
    const real_t* ai = a.row(i);
    real_t* ci = c.row(i);
    vid_t j = 0;
    for (; j + 16 <= k; j += 16) gemm_strip<16>(ai, b, j, ci + j);
    if (j + 8 <= k) {
      gemm_strip<8>(ai, b, j, ci + j);
      j += 8;
    }
    if (j + 4 <= k) {
      gemm_strip<4>(ai, b, j, ci + j);
      j += 4;
    }
    for (; j < k; ++j) gemm_strip<1>(ai, b, j, ci + j);
  }
}

// Tile edges for gemm_at_b: C tiles stay register/L1-resident while the
// long m dimension streams past.
constexpr vid_t kTileP = 48;
constexpr vid_t kTileJ = 64;

/// C tiles [t_begin, t_end) of C = A^T B; `tj` is the j-tile count the
/// task index decomposes against. Four rows of A and B are folded into
/// each load and store of a C element, in i order; a one-row pass takes
/// the m % 4 tail.
inline void gemm_at_b_tiles(const Matrix& a, const Matrix& b, Matrix& c,
                            std::int64_t t_begin, std::int64_t t_end,
                            std::int64_t tj) {
  const vid_t m = a.n_rows(), n = a.n_cols(), k = b.n_cols();
  for (std::int64_t t = t_begin; t < t_end; ++t) {
    const vid_t p0 = static_cast<vid_t>(t / tj) * kTileP;
    const vid_t j0 = static_cast<vid_t>(t % tj) * kTileJ;
    const vid_t p1 = std::min<vid_t>(p0 + kTileP, n);
    const vid_t j1 = std::min<vid_t>(j0 + kTileJ, k);
    vid_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const real_t* a0 = a.row(i);
      const real_t* a1 = a.row(i + 1);
      const real_t* a2 = a.row(i + 2);
      const real_t* a3 = a.row(i + 3);
      const real_t* b0 = b.row(i);
      const real_t* b1 = b.row(i + 1);
      const real_t* b2 = b.row(i + 2);
      const real_t* b3 = b.row(i + 3);
      for (vid_t p = p0; p < p1; ++p) {
        const real_t x0 = a0[p], x1 = a1[p], x2 = a2[p], x3 = a3[p];
        real_t* cp = c.row(p);
        for (vid_t j = j0; j < j1; ++j) {
          real_t sum = cp[j];
          sum += x0 * b0[j];
          sum += x1 * b1[j];
          sum += x2 * b2[j];
          sum += x3 * b3[j];
          cp[j] = sum;
        }
      }
    }
    for (; i < m; ++i) {
      const real_t* ai = a.row(i);
      const real_t* bi = b.row(i);
      for (vid_t p = p0; p < p1; ++p) {
        const real_t aip = ai[p];
        real_t* cp = c.row(p);
        for (vid_t j = j0; j < j1; ++j) cp[j] += aip * bi[j];
      }
    }
  }
}

}  // namespace

void gemm_accumulate_reference(const Matrix& a, const Matrix& b, Matrix& c) {
  SAGNN_REQUIRE(a.n_cols() == b.n_rows(), "GEMM: inner dimensions must agree");
  SAGNN_REQUIRE(c.n_rows() == a.n_rows() && c.n_cols() == b.n_cols(),
                "GEMM: C shape mismatch");
  gemm_rows(a, b, c, 0, a.n_rows());
}

void gemm_accumulate(const Matrix& a, const Matrix& b, Matrix& c) {
  SAGNN_REQUIRE(a.n_cols() == b.n_rows(), "GEMM: inner dimensions must agree");
  SAGNN_REQUIRE(c.n_rows() == a.n_rows() && c.n_cols() == b.n_cols(),
                "GEMM: C shape mismatch");
  const vid_t m = a.n_rows();
  // Tasks own disjoint row blocks of C; within a row nothing is reordered,
  // so this is bitwise identical to the reference at any thread count.
  parallel_for(0, m, parallel_grain(m), [&](std::int64_t rb, std::int64_t re) {
    gemm_row_strips(a, b, c, static_cast<vid_t>(rb), static_cast<vid_t>(re));
  });
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.n_rows(), b.n_cols());
  gemm_accumulate(a, b, c);
  return c;
}

Matrix gemm_at_b_reference(const Matrix& a, const Matrix& b) {
  SAGNN_REQUIRE(a.n_rows() == b.n_rows(), "A^T B: row counts must agree");
  const vid_t m = a.n_rows(), n = a.n_cols(), k = b.n_cols();
  Matrix c(n, k);
  for (vid_t i = 0; i < m; ++i) {
    const real_t* ai = a.row(i);
    const real_t* bi = b.row(i);
    for (vid_t p = 0; p < n; ++p) {
      const real_t aip = ai[p];
      real_t* cp = c.row(p);
      for (vid_t j = 0; j < k; ++j) cp[j] += aip * bi[j];
    }
  }
  return c;
}

Matrix gemm_at_b(const Matrix& a, const Matrix& b) {
  SAGNN_REQUIRE(a.n_rows() == b.n_rows(), "A^T B: row counts must agree");
  const vid_t n = a.n_cols(), k = b.n_cols();
  Matrix c(n, k);
  // C = A^T B accumulates over the long m dimension; that order must stay
  // i-ascending per C element (bitwise parity with the reference), so the
  // kernel tiles and parallelizes over C itself: each (p, j) tile of C is
  // owned by one task that streams the m dimension once. The tile of C
  // stays cache-hot while A's column slice and B's column slice are read
  // with the same stride the reference pays.
  const std::int64_t tp = ceil_div(n, kTileP), tj = ceil_div(k, kTileJ);
  parallel_for(0, tp * tj, 1, [&](std::int64_t tb, std::int64_t te) {
    gemm_at_b_tiles(a, b, c, tb, te, tj);
  });
  return c;
}

Matrix gemm_a_bt_reference(const Matrix& a, const Matrix& b) {
  SAGNN_REQUIRE(a.n_cols() == b.n_cols(), "A B^T: col counts must agree");
  const vid_t m = a.n_rows(), n = a.n_cols(), k = b.n_rows();
  Matrix c(m, k);
  for (vid_t i = 0; i < m; ++i) {
    const real_t* ai = a.row(i);
    real_t* ci = c.row(i);
    for (vid_t j = 0; j < k; ++j) {
      const real_t* bj = b.row(j);
      real_t acc = 0;
      for (vid_t p = 0; p < n; ++p) acc += ai[p] * bj[p];
      ci[j] = acc;
    }
  }
  return c;
}

Matrix gemm_a_bt(const Matrix& a, const Matrix& b) {
  SAGNN_REQUIRE(a.n_cols() == b.n_cols(), "A B^T: col counts must agree");
  const vid_t n = b.n_cols(), k = b.n_rows();
  // C = A (B^T): into a zeroed C, the row kernel adds a[i][p] * b[j][p]
  // to c[i][j] for p ascending, the same products in the same order as the
  // reference's dot product, so the result is bitwise identical. Its inner
  // loop runs over k and vectorizes; a dot product's serial accumulator
  // does not. B is the small weight matrix, so transposing it is cheap.
  Matrix bt(n, k);
  for (vid_t j = 0; j < k; ++j) {
    const real_t* bj = b.row(j);
    for (vid_t p = 0; p < n; ++p) bt(p, j) = bj[p];
  }
  Matrix c(a.n_rows(), k);
  gemm_accumulate(a, bt, c);
  return c;
}

}  // namespace sagnn
