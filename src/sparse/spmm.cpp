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

/// One W-wide strip of one output row: zs[j] += vals[k] * h[col_idx[k]][hs + j]
/// for the row's nonzeros [k_begin, k_end) in CSR order. The running sums
/// live in a local array between additions, which cannot alias the
/// operands, so the compiler keeps them in vector registers and the strip
/// is loaded and stored once instead of once per nonzero. Copying the H
/// strip into a local array before the multiply-adds keeps GCC's SLP
/// vectorizer on whole strips; reading H in the multiply left the 4-wide
/// strip scalar in some callers.
template <int W>
inline void spmm_strip(const CsrMatrix& a, eid_t k_begin, eid_t k_end,
                       const Matrix& h, vid_t hs, real_t* zs) {
  const auto col_idx = a.col_idx();
  const auto vals = a.vals();
  real_t acc[W];
  for (int j = 0; j < W; ++j) acc[j] = zs[j];
  for (eid_t k = k_begin; k < k_end; ++k) {
    const real_t v = vals[k];
    const real_t* hr = h.row(col_idx[k]) + hs;
    real_t hv[W];
    for (int j = 0; j < W; ++j) hv[j] = hr[j];
    for (int j = 0; j < W; ++j) acc[j] += v * hv[j];
  }
  for (int j = 0; j < W; ++j) zs[j] = acc[j];
}

/// Rows [row_begin, row_end) of Z[:, z_col + [0, width)) += A · H[:, h_col +
/// [0, width)). Each row's window is covered by strips of 16, then 8, 4
/// and 1 columns; every output element still takes its row's products in
/// CSR order, starting from its own value, so this is bitwise identical to
/// spmm_rows.
inline void spmm_row_strips(const CsrMatrix& a, const Matrix& h, vid_t h_col,
                            Matrix& z, vid_t z_col, vid_t width,
                            vid_t row_begin, vid_t row_end) {
  const auto row_ptr = a.row_ptr();
  for (vid_t r = row_begin; r < row_end; ++r) {
    const eid_t kb = row_ptr[r], ke = row_ptr[r + 1];
    if (kb == ke) continue;
    real_t* zr = z.row(r) + z_col;
    vid_t j = 0;
    for (; j + 16 <= width; j += 16) spmm_strip<16>(a, kb, ke, h, h_col + j, zr + j);
    if (j + 8 <= width) {
      spmm_strip<8>(a, kb, ke, h, h_col + j, zr + j);
      j += 8;
    }
    if (j + 4 <= width) {
      spmm_strip<4>(a, kb, ke, h, h_col + j, zr + j);
      j += 4;
    }
    for (; j < width; ++j) spmm_strip<1>(a, kb, ke, h, h_col + j, zr + j);
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
  SAGNN_REQUIRE(z.n_cols() == h.n_cols(), "SpMM: Z shape must be (A rows x H cols)");
  spmm_accumulate(a, h, 0, z, 0, h.n_cols());
}

void spmm_accumulate(const CsrMatrix& a, const Matrix& h, vid_t h_col, Matrix& z,
                     vid_t z_col, vid_t width) {
  SAGNN_REQUIRE(h.n_rows() == a.n_cols(), "SpMM: H row count must equal A col count");
  SAGNN_REQUIRE(z.n_rows() == a.n_rows(), "SpMM: Z row count must equal A row count");
  SAGNN_REQUIRE(width >= 0 && h_col >= 0 && z_col >= 0 &&
                    h_col <= h.n_cols() - width && z_col <= z.n_cols() - width,
                "SpMM: column window out of range");
  const vid_t n = a.n_rows();
  // Serial-region check first: it is thread-local and lock-free, and it is
  // the path every simulated rank takes per layer per epoch.
  if (in_serial_region()) {
    spmm_row_strips(a, h, h_col, z, z_col, width, 0, n);
    return;
  }
  const std::int64_t n_blocks =
      std::min<std::int64_t>(n, static_cast<std::int64_t>(parallel_threads()) * 4);
  if (n_blocks <= 1) {
    spmm_row_strips(a, h, h_col, z, z_col, width, 0, n);
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
      spmm_row_strips(a, h, h_col, z, z_col, width,
                      bounds[static_cast<std::size_t>(b)],
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
