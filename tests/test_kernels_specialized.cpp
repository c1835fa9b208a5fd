// Property sweep over feature widths: every production kernel must be
// bitwise equal to its serial *_reference twin — across odd widths, the
// hidden width 16 and the common input widths 32/64/128, degenerate row
// counts, empty rows, dense rows, all-equal row degrees, all-zero
// matrices, and thread counts {1, 2, 8}; every 16/8/4/1 register-strip
// tail of the SpMM and GEMM row kernels and every m % 4 tail of A^T B; and
// the column-window form of spmm_accumulate against the reference on
// sliced copies. Matrix::operator== is exact element equality — no
// tolerance anywhere in this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "dense/gemm.hpp"
#include "graph/generators.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

struct ThreadCountGuard {
  ~ThreadCountGuard() { set_parallel_threads(0); }
};

const int kThreadCounts[] = {1, 2, 8};

// Odd widths 1/3/7 leave vector remainders; 16 is the paper's hidden
// width (32 is covered by GemmWidthSweep's k axis below).
const vid_t kWidths[] = {1, 3, 7, 16, 64, 128};
const vid_t kRowCounts[] = {1, 2, 1000};

CsrMatrix random_csr(vid_t n_rows, vid_t n_cols, eid_t nnz, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n_rows, n_cols);
  for (eid_t i = 0; i < nnz; ++i) {
    coo.add(static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n_rows))),
            static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n_cols))),
            rng.uniform(-2, 2));
  }
  return CsrMatrix::from_coo(coo);
}

/// A matrix stressing row-shape extremes: row 0 fully dense, a block of
/// structurally empty rows in the middle, sparse tail.
CsrMatrix ragged_csr(vid_t n_rows, vid_t n_cols, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n_rows, n_cols);
  for (vid_t c = 0; c < n_cols; ++c) coo.add(0, c, rng.uniform(-2, 2));
  // Rows in [1, n_rows/2) stay empty; the rest get a couple of entries.
  for (vid_t r = n_rows / 2; r < n_rows; ++r) {
    for (int d = 0; d < 2; ++d) {
      coo.add(r, static_cast<vid_t>(rng.next_below(
                     static_cast<std::uint64_t>(n_cols))),
              rng.uniform(-2, 2));
    }
  }
  return CsrMatrix::from_coo(coo);
}

/// Every row exactly `deg` entries: nnz-balanced row blocks are then
/// row-count balanced too.
CsrMatrix regular_csr(vid_t n_rows, vid_t n_cols, int deg, std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(n_rows, n_cols);
  for (vid_t r = 0; r < n_rows; ++r) {
    for (int d = 0; d < deg; ++d) {
      coo.add(r, (r + static_cast<vid_t>(d) * 7 + 1) % n_cols, rng.uniform(-2, 2));
    }
  }
  return CsrMatrix::from_coo(coo);
}

TEST(SpecializedKernels, SpmmWidthSweepBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(71);
  for (const vid_t n : kRowCounts) {
    const vid_t cols = n == 1 ? 40 : n / 2 + 8;
    const CsrMatrix a =
        random_csr(n, cols, static_cast<eid_t>(n) * 4 + 16, 1000 + n);
    for (const vid_t f : kWidths) {
      const Matrix h = Matrix::random_uniform(cols, f, rng);
      Matrix want(n, f);
      spmm_accumulate_reference(a, h, want);
      for (int t : kThreadCounts) {
        set_parallel_threads(t);
        Matrix got(n, f);
        spmm_accumulate(a, h, got);
        EXPECT_TRUE(got == want) << "n=" << n << " f=" << f << " threads=" << t;
      }
    }
  }
}

TEST(SpecializedKernels, SpmmEmptyAndDenseRows) {
  ThreadCountGuard guard;
  Rng rng(72);
  for (const CsrMatrix& a : {ragged_csr(64, 33, 73), regular_csr(64, 33, 3, 74)}) {
    for (const vid_t f : kWidths) {
      const Matrix h = Matrix::random_uniform(33, f, rng);
      Matrix want(64, f);
      spmm_accumulate_reference(a, h, want);
      for (int t : kThreadCounts) {
        set_parallel_threads(t);
        Matrix got(64, f);
        spmm_accumulate(a, h, got);
        EXPECT_TRUE(got == want) << "nnz=" << a.nnz() << " f=" << f << " threads=" << t;
      }
    }
  }
}

TEST(SpecializedKernels, SpmmZeroNnzLeavesOutputUntouched) {
  ThreadCountGuard guard;
  Rng rng(73);
  const CsrMatrix a = CsrMatrix::from_coo(CooMatrix(50, 20));
  ASSERT_EQ(a.nnz(), 0);
  for (const vid_t f : {vid_t{16}, vid_t{7}}) {
    const Matrix h = Matrix::random_uniform(20, f, rng);
    // Accumulate into a non-zero z: an all-empty matrix must not write.
    Matrix want = Matrix::random_uniform(50, f, rng);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      Matrix got = want;
      spmm_accumulate(a, h, got);
      EXPECT_TRUE(got == want) << "f=" << f << " threads=" << t;
    }
  }
}

TEST(SpecializedKernels, GemmWidthSweepBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(74);
  // The output width k is the axis gemm_accumulate's inner loop runs over;
  // sweep it through odd and power-of-two widths, with the inner dimension
  // crossing the kTileP=48 boundary.
  for (const vid_t m : kRowCounts) {
    for (const vid_t k : {vid_t{1}, vid_t{7}, vid_t{16}, vid_t{32}, vid_t{64},
                          vid_t{128}}) {
      const vid_t inner = 49;
      const Matrix a = Matrix::random_uniform(m, inner, rng);
      const Matrix b = Matrix::random_uniform(inner, k, rng);
      Matrix want(m, k);
      gemm_accumulate_reference(a, b, want);
      for (int t : kThreadCounts) {
        set_parallel_threads(t);
        Matrix got(m, k);
        gemm_accumulate(a, b, got);
        EXPECT_TRUE(got == want) << "m=" << m << " k=" << k << " threads=" << t;
      }
    }
  }
}

TEST(SpecializedKernels, GemmAtBWidthSweepBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(75);
  // k (b's width) is the inner-loop axis; m crosses the kTileP boundary.
  for (const vid_t k : kWidths) {
    const Matrix a = Matrix::random_uniform(97, 33, rng);
    const Matrix b = Matrix::random_uniform(97, k, rng);
    const Matrix want = gemm_at_b_reference(a, b);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      EXPECT_TRUE(gemm_at_b(a, b) == want) << "k=" << k << " threads=" << t;
    }
  }
}

TEST(SpecializedKernels, GemmABtWidthSweepBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(76);
  // n (the shared inner width) is each output element's reduction length:
  // the reference's dot product, the row kernel's p loop over B^T.
  for (const vid_t n : kWidths) {
    const Matrix a = Matrix::random_uniform(130, n, rng);
    const Matrix b = Matrix::random_uniform(67, n, rng);
    const Matrix want = gemm_a_bt_reference(a, b);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      EXPECT_TRUE(gemm_a_bt(a, b) == want) << "n=" << n << " threads=" << t;
    }
  }
}

// ---- Register strips: every 16/8/4/1 tail, accumulating into a nonzero Z ----

/// Widths 1..33 reach every combination of 16-, 8-, 4- and 1-wide strips;
/// 64 and 128 run several 16-wide strips per row.
std::vector<vid_t> strip_widths() {
  std::vector<vid_t> widths;
  for (vid_t f = 1; f <= 33; ++f) widths.push_back(f);
  widths.push_back(64);
  widths.push_back(128);
  return widths;
}

TEST(StripKernels, SpmmEveryStripTailBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(81);
  for (const vid_t n : kRowCounts) {
    const vid_t cols = n == 1 ? 40 : n / 2 + 8;
    const eid_t nnz = static_cast<eid_t>(n) * 4 + 16;
    const CsrMatrix random = random_csr(n, cols, nnz, 2000 + n);
    const CsrMatrix ragged = ragged_csr(n, cols, 3000 + n);
    for (const CsrMatrix* a : {&random, &ragged}) {
      for (const vid_t f : strip_widths()) {
        const Matrix h = Matrix::random_uniform(cols, f, rng);
        // A nonzero starting Z: each strip must load it before adding.
        const Matrix z0 = Matrix::random_uniform(n, f, rng);
        Matrix want = z0;
        spmm_accumulate_reference(*a, h, want);
        for (int t : kThreadCounts) {
          set_parallel_threads(t);
          Matrix got = z0;
          spmm_accumulate(*a, h, got);
          EXPECT_TRUE(got == want)
              << "n=" << n << " nnz=" << a->nnz() << " f=" << f << " threads=" << t;
        }
      }
    }
  }
}

TEST(StripKernels, GemmEveryStripTailBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(82);
  for (const vid_t m : kRowCounts) {
    for (const vid_t k : strip_widths()) {
      const vid_t inner = 13;
      const Matrix a = Matrix::random_uniform(m, inner, rng);
      const Matrix b = Matrix::random_uniform(inner, k, rng);
      const Matrix c0 = Matrix::random_uniform(m, k, rng);
      Matrix want = c0;
      gemm_accumulate_reference(a, b, want);
      for (int t : kThreadCounts) {
        set_parallel_threads(t);
        Matrix got = c0;
        gemm_accumulate(a, b, got);
        EXPECT_TRUE(got == want) << "m=" << m << " k=" << k << " threads=" << t;
      }
    }
  }
}

TEST(StripKernels, GemmAtBFourRowPassAndTailsBitwiseMatchReference) {
  ThreadCountGuard guard;
  Rng rng(83);
  // m % 4 covers the four-row pass alone (4, 1000) and with each tail
  // (1, 2, 3, 5); n and k cross the 48 x 64 tile edges.
  for (const vid_t m : {1, 2, 3, 4, 5, 1000}) {
    for (const vid_t n : {3, 49}) {
      for (const vid_t k : {1, 5, 16, 65}) {
        const Matrix a = Matrix::random_uniform(m, n, rng);
        const Matrix b = Matrix::random_uniform(m, k, rng);
        const Matrix want = gemm_at_b_reference(a, b);
        for (int t : kThreadCounts) {
          set_parallel_threads(t);
          EXPECT_TRUE(gemm_at_b(a, b) == want)
              << "m=" << m << " n=" << n << " k=" << k << " threads=" << t;
        }
      }
    }
  }
}

// ---- The column-window form of spmm_accumulate ----

/// Columns [begin, end) of `m` as a new matrix.
Matrix slice_cols(const Matrix& m, vid_t begin, vid_t end) {
  Matrix out(m.n_rows(), end - begin);
  for (vid_t r = 0; r < m.n_rows(); ++r) {
    std::copy(m.row(r) + begin, m.row(r) + end, out.row(r));
  }
  return out;
}

/// Z[:, z_col, z_col + width) += A·H[:, h_col, h_col + width) computed by the
/// reference kernel on sliced copies and pasted back.
Matrix window_reference(const CsrMatrix& a, const Matrix& h, vid_t h_col,
                        const Matrix& z, vid_t z_col, vid_t width) {
  Matrix z_window = slice_cols(z, z_col, z_col + width);
  spmm_accumulate_reference(a, slice_cols(h, h_col, h_col + width), z_window);
  Matrix out = z;
  out.paste_cols(z_col, z_window);
  return out;
}

TEST(SpmmWindow, BitwiseMatchesReferenceOnSlicedCopies) {
  ThreadCountGuard guard;
  Rng rng(84);
  const vid_t n = 300, cols = 170;
  const CsrMatrix a = random_csr(n, cols, 2000, 85);
  const Matrix h = Matrix::random_uniform(cols, 41, rng);
  const Matrix z0 = Matrix::random_uniform(n, 37, rng);
  const auto check = [&](vid_t h_col, vid_t z_col, vid_t width) {
    const Matrix want = window_reference(a, h, h_col, z0, z_col, width);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      Matrix got = z0;
      spmm_accumulate(a, h, h_col, got, z_col, width);
      EXPECT_TRUE(got == want) << "h_col=" << h_col << " z_col=" << z_col
                               << " width=" << width << " threads=" << t;
      // Columns outside the window keep their exact bits.
      for (vid_t r = 0; r < n; ++r) {
        for (vid_t c = 0; c < z0.n_cols(); ++c) {
          if (c >= z_col && c < z_col + width) continue;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got(r, c)),
                    std::bit_cast<std::uint32_t>(z0(r, c)))
              << "r=" << r << " c=" << c << " window " << z_col << "+" << width;
        }
      }
    }
  };
  // Unequal offsets (every strip width runs at an offset).
  check(3, 11, 17);
  check(5, 9, 28);
  // At the right edge of H, of Z, and a full-width read of H.
  check(24, 0, 17);
  check(0, 20, 17);
  check(4, 0, 37);
  // Width 0, also at the far edges of both.
  check(0, 0, 0);
  check(41, 37, 0);
}

TEST(SpmmWindow, OutOfRangeWindowThrows) {
  const CsrMatrix a = random_csr(10, 8, 30, 86);
  const Matrix h(8, 6);
  Matrix z(10, 5);
  EXPECT_NO_THROW(spmm_accumulate(a, h, 1, z, 0, 5));
  // Past the right edge of H, then of Z; an empty window starting past H.
  EXPECT_THROW(spmm_accumulate(a, h, 2, z, 0, 5), Error);
  EXPECT_THROW(spmm_accumulate(a, h, 0, z, 1, 5), Error);
  EXPECT_THROW(spmm_accumulate(a, h, 7, z, 0, 0), Error);
  // Negative offsets and width.
  EXPECT_THROW(spmm_accumulate(a, h, -1, z, 0, 2), Error);
  EXPECT_THROW(spmm_accumulate(a, h, 0, z, -1, 2), Error);
  EXPECT_THROW(spmm_accumulate(a, h, 0, z, 0, -1), Error);
  // Row counts that disagree with A.
  Matrix z_rows(9, 5);
  EXPECT_THROW(spmm_accumulate(a, h, 0, z_rows, 0, 5), Error);
  const Matrix h_rows(7, 6);
  EXPECT_THROW(spmm_accumulate(a, h_rows, 0, z, 0, 5), Error);
}

}  // namespace
}  // namespace sagnn
