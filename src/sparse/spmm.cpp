#include "sparse/spmm.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace sagnn {

namespace {

inline void spmm_rows(const CsrMatrix& a, const Matrix& h, Matrix& z,
                      vid_t row_begin, vid_t row_end) {
  const vid_t f = h.n_cols();
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto vals = a.vals();
  for (vid_t r = row_begin; r < row_end; ++r) {
    real_t* zr = z.row(r);
    for (eid_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const real_t v = vals[k];
      const real_t* hr = h.row(col_idx[k]);
      // Inner loop over the short dense dimension; vectorizes well.
      for (vid_t j = 0; j < f; ++j) zr[j] += v * hr[j];
    }
  }
}

}  // namespace

void spmm_accumulate_reference(const CsrMatrix& a, const Matrix& h, Matrix& z) {
  SAGNN_REQUIRE(h.n_rows() == a.n_cols(), "SpMM: H row count must equal A col count");
  SAGNN_REQUIRE(z.n_rows() == a.n_rows() && z.n_cols() == h.n_cols(),
                "SpMM: Z shape must be (A rows x H cols)");
  spmm_rows(a, h, z, 0, a.n_rows());
}

void spmm_accumulate(const CsrMatrix& a, const Matrix& h, Matrix& z) {
  SAGNN_REQUIRE(h.n_rows() == a.n_cols(), "SpMM: H row count must equal A col count");
  SAGNN_REQUIRE(z.n_rows() == a.n_rows() && z.n_cols() == h.n_cols(),
                "SpMM: Z shape must be (A rows x H cols)");
  const vid_t n = a.n_rows();
  // Serial-region check first: it is thread-local and lock-free, and it is
  // the path every simulated rank takes per layer per epoch.
  if (in_serial_region()) {
    spmm_rows(a, h, z, 0, n);
    return;
  }
  const std::int64_t n_blocks =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(parallel_threads()) * 4);
  if (n_blocks <= 1) {
    spmm_rows(a, h, z, 0, n);
    return;
  }
  // nnz-balanced row blocks: block b owns the rows whose cumulative nonzero
  // count falls in [b, b+1) * nnz/n_blocks. Power-law graphs make equal-ROW
  // blocks wildly imbalanced; equal-NNZ blocks keep every worker busy.
  // Each row still accumulates its nonzeros in CSR order, so the result is
  // bitwise identical to the reference kernel for any block count.
  const auto row_ptr = a.row_ptr();
  const double per_block =
      static_cast<double>(a.nnz()) / static_cast<double>(n_blocks);
  std::vector<vid_t> bounds(static_cast<std::size_t>(n_blocks) + 1, 0);
  bounds.back() = n;
  for (std::int64_t b = 1; b < n_blocks; ++b) {
    const auto target = static_cast<eid_t>(per_block * static_cast<double>(b));
    const auto it = std::lower_bound(row_ptr.begin(), row_ptr.end(), target);
    bounds[static_cast<std::size_t>(b)] =
        static_cast<vid_t>(std::min<std::ptrdiff_t>(it - row_ptr.begin(), n));
  }
  parallel_for(0, n_blocks, 1, [&](std::int64_t bb, std::int64_t be) {
    for (std::int64_t b = bb; b < be; ++b) {
      spmm_rows(a, h, z, bounds[static_cast<std::size_t>(b)],
                bounds[static_cast<std::size_t>(b) + 1]);
    }
  });
}

Matrix spmm(const CsrMatrix& a, const Matrix& h) {
  Matrix z(a.n_rows(), h.n_cols());
  spmm_accumulate(a, h, z);
  return z;
}

}  // namespace sagnn
