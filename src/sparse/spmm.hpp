#pragma once
// Sparse-matrix × tall-skinny-dense-matrix multiplication kernels.
//
// This is the workhorse of full-graph GCN training (paper §2.1). The local
// kernel stands in for cuSPARSE csrmm2: Z += A * H where A is CSR
// (n_rows x n_cols) and H is row-major dense (n_cols x f).
//
// spmm_accumulate runs over nnz-balanced row blocks on the shared thread
// pool (common/parallel.hpp). Every output row is owned by exactly one
// block and covered by register-resident strips of 16, 8, 4 and 1
// columns; each output element still takes its row's products in CSR
// order from its own starting value, so the result is bitwise identical
// to spmm_accumulate_reference at every thread count (and serial inside
// simulated cluster ranks, where the nesting guard disables fan-out).

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"

namespace sagnn {

/// Z += A * H. Z must be (A.n_rows x H.n_cols); H must have A.n_cols rows.
/// The column-window form below with (0, 0, H.n_cols).
void spmm_accumulate(const CsrMatrix& a, const Matrix& h, Matrix& z);

/// Z[:, z_col, z_col + width) += A * H[:, h_col, h_col + width). H must
/// have A.n_cols rows and Z A.n_rows rows, both windows must lie inside
/// their matrices (throws otherwise), and Z must not be H. Z's columns
/// outside the window are not written.
void spmm_accumulate(const CsrMatrix& a, const Matrix& h, vid_t h_col, Matrix& z,
                     vid_t z_col, vid_t width);

/// The original single-loop serial kernel. Kept as the ground truth the
/// blocked kernel is tested bitwise against.
void spmm_accumulate_reference(const CsrMatrix& a, const Matrix& h, Matrix& z);

/// Z = A * H (convenience; allocates).
Matrix spmm(const CsrMatrix& a, const Matrix& h);

}  // namespace sagnn
