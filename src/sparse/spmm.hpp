#pragma once
// Sparse-matrix × tall-skinny-dense-matrix multiplication kernels.
//
// This is the workhorse of full-graph GCN training (paper §2.1). The local
// kernel stands in for cuSPARSE csrmm2: Z += A * H where A is CSR
// (n_rows x n_cols) and H is row-major dense (n_cols x f).
//
// spmm_accumulate runs over nnz-balanced row blocks on the shared thread
// pool (common/parallel.hpp). Every output row is owned by exactly one
// block and accumulated in the same nonzero order as the reference kernel,
// so the result is bitwise identical to spmm_accumulate_reference at every
// thread count (and serial inside simulated cluster ranks, where the
// nesting guard disables fan-out).

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"

namespace sagnn {

/// Z += A * H. Z must be (A.n_rows x H.n_cols); H must have A.n_cols rows.
void spmm_accumulate(const CsrMatrix& a, const Matrix& h, Matrix& z);

/// The original single-loop serial kernel. Kept as the ground truth the
/// blocked kernel is tested bitwise against.
void spmm_accumulate_reference(const CsrMatrix& a, const Matrix& h, Matrix& z);

/// Z = A * H (convenience; allocates).
Matrix spmm(const CsrMatrix& a, const Matrix& h);

}  // namespace sagnn
