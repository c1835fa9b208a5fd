// Property sweep over feature widths: every production kernel must be
// bitwise equal to its serial *_reference twin — across odd widths, the
// hidden width 16 and the common input widths 32/64/128, degenerate row
// counts, empty rows, dense rows, all-equal row degrees, all-zero
// matrices, and thread counts {1, 2, 8}. Matrix::operator== is exact
// element equality — no tolerance anywhere in this file.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sagnn
