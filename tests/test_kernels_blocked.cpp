// Bitwise parity of the blocked/tiled production kernels against their
// single-thread reference twins, across thread counts and on the ragged
// shapes (f=1, f=7, n=1) where tile remainders live. Matrix::operator== is
// exact element equality — no tolerance anywhere in this file.
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

TEST(BlockedKernels, SpmmBitwiseMatchesReferenceOnRaggedShapes) {
  ThreadCountGuard guard;
  Rng rng(11);
  // (rows, cols, nnz, f) covering skew, a single row, and f in {1, 7}.
  const struct {
    vid_t rows, cols;
    eid_t nnz;
    vid_t f;
  } shapes[] = {
      {129, 65, 700, 1}, {64, 64, 511, 7}, {1, 40, 25, 7}, {257, 129, 3000, 16}};
  for (const auto& s : shapes) {
    const CsrMatrix a = random_csr(s.rows, s.cols, s.nnz, s.rows * 31 + s.f);
    const Matrix h = Matrix::random_uniform(s.cols, s.f, rng);
    Matrix want(s.rows, s.f);
    spmm_accumulate_reference(a, h, want);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      Matrix got(s.rows, s.f);
      spmm_accumulate(a, h, got);
      EXPECT_TRUE(got == want) << s.rows << "x" << s.cols << " f=" << s.f
                               << " threads=" << t;
    }
  }
}

TEST(BlockedKernels, GemmBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(12);
  const struct {
    vid_t m, n, k;
  } shapes[] = {{100, 1, 1}, {1, 7, 5}, {131, 7, 7}, {77, 65, 130}, {200, 16, 16}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_uniform(s.m, s.n, rng);
    const Matrix b = Matrix::random_uniform(s.n, s.k, rng);
    Matrix want(s.m, s.k);
    gemm_accumulate_reference(a, b, want);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      Matrix got(s.m, s.k);
      gemm_accumulate(a, b, got);
      EXPECT_TRUE(got == want) << s.m << "x" << s.n << "x" << s.k
                               << " threads=" << t;
    }
  }
}

TEST(BlockedKernels, GemmAtBBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(13);
  // n spans the kTileP=48 edge (47/48/49) plus the ragged minima.
  const struct {
    vid_t m, n, k;
  } shapes[] = {{300, 1, 1}, {1, 7, 3}, {211, 7, 64}, {100, 47, 65},
                {100, 48, 64}, {100, 49, 63}, {500, 16, 16}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_uniform(s.m, s.n, rng);
    const Matrix b = Matrix::random_uniform(s.m, s.k, rng);
    const Matrix want = gemm_at_b_reference(a, b);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      EXPECT_TRUE(gemm_at_b(a, b) == want)
          << s.m << "x" << s.n << "x" << s.k << " threads=" << t;
    }
  }
}

TEST(BlockedKernels, GemmABtBitwiseMatchesReference) {
  ThreadCountGuard guard;
  Rng rng(14);
  // k, the row kernel's inner (vectorized) axis over B^T, spans 63/64/65;
  // n=1 exercises the degenerate dot product.
  const struct {
    vid_t m, n, k;
  } shapes[] = {{300, 1, 1}, {1, 7, 3}, {211, 7, 63}, {100, 33, 64},
                {100, 33, 65}, {500, 16, 16}};
  for (const auto& s : shapes) {
    const Matrix a = Matrix::random_uniform(s.m, s.n, rng);
    const Matrix b = Matrix::random_uniform(s.k, s.n, rng);
    const Matrix want = gemm_a_bt_reference(a, b);
    for (int t : kThreadCounts) {
      set_parallel_threads(t);
      EXPECT_TRUE(gemm_a_bt(a, b) == want)
          << s.m << "x" << s.n << "x" << s.k << " threads=" << t;
    }
  }
}

TEST(BlockedKernels, SpmmInsideSerialRegionStillMatches) {
  // The path every simulated rank takes: kernel called under the nesting
  // guard must produce the same bits as the pooled path.
  ThreadCountGuard guard;
  set_parallel_threads(8);
  Rng rng(15);
  const CsrMatrix a = random_csr(120, 80, 900, 21);
  const Matrix h = Matrix::random_uniform(80, 9, rng);
  Matrix pooled(120, 9);
  spmm_accumulate(a, h, pooled);
  Matrix guarded(120, 9);
  {
    SerialRegion serial;
    spmm_accumulate(a, h, guarded);
  }
  EXPECT_TRUE(pooled == guarded);
}

}  // namespace
}  // namespace sagnn
