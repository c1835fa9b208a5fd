// Microbenchmarks of the local SpMM kernel (the csrmm2 stand-in): scaling
// in nnz and feature width, plus the compacted-column variant used by the
// sparsity-aware algorithms.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sparse/blocks.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

void BM_SpmmByScale(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  const vid_t f = static_cast<vid_t>(state.range(1));
  Rng rng(1);
  const CsrMatrix a = CsrMatrix::from_coo(rmat(scale, 8, rng));
  const Matrix h = Matrix::random_uniform(a.n_cols(), f, rng);
  Matrix z(a.n_rows(), f);
  for (auto _ : state) {
    z.set_zero();
    spmm_accumulate(a, h, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * f);
}
BENCHMARK(BM_SpmmByScale)
    ->Args({10, 16})
    ->Args({12, 16})
    ->Args({14, 16})
    ->Args({12, 4})
    ->Args({12, 64});

void BM_SpmmCompactedVsPlain(benchmark::State& state) {
  // Compacted multiply on a narrow column block: same nnz, denser columns.
  const bool compacted = state.range(0) != 0;
  Rng rng(2);
  const CsrMatrix a = CsrMatrix::from_coo(rmat(12, 8, rng));
  const CsrMatrix block = extract_row_block(a, {0, a.n_rows() / 8});
  const vid_t f = 16;
  if (compacted) {
    const CompactedBlock cb = compact_columns(block);
    const Matrix h = Matrix::random_uniform(cb.matrix.n_cols(), f, rng);
    Matrix z(cb.matrix.n_rows(), f);
    for (auto _ : state) {
      z.set_zero();
      spmm_accumulate(cb.matrix, h, z);
      benchmark::DoNotOptimize(z.data());
    }
  } else {
    const Matrix h = Matrix::random_uniform(block.n_cols(), f, rng);
    Matrix z(block.n_rows(), f);
    for (auto _ : state) {
      z.set_zero();
      spmm_accumulate(block, h, z);
      benchmark::DoNotOptimize(z.data());
    }
  }
}
BENCHMARK(BM_SpmmCompactedVsPlain)->Arg(0)->Arg(1);

void BM_GatherRows(benchmark::State& state) {
  // The pack step of Algorithm 1 (T <- H[NnzCols]).
  Rng rng(3);
  const vid_t n = 1 << 14;
  const Matrix h = Matrix::random_uniform(n, 32, rng);
  std::vector<vid_t> rows;
  for (vid_t v = 0; v < n; v += 3) rows.push_back(v);
  for (auto _ : state) {
    Matrix packed = h.gather_rows(rows);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetBytesProcessed(state.iterations() * rows.size() * 32 * sizeof(real_t));
}
BENCHMARK(BM_GatherRows);

}  // namespace
}  // namespace sagnn
