#pragma once
// Small dense GEMM kernels. GCN multiplies tall-skinny activations by small
// f x f weight matrices, so a register-blocked loop nest is adequate; no
// external BLAS dependency.
//
// The production kernels run on the shared thread pool
// (common/parallel.hpp). gemm_accumulate keeps strips of 16, 8, 4 and 1
// columns of a C row in registers across the whole p loop; gemm_at_b
// cache-blocks its strided access and folds four rows of A and B into each
// load and store of a C element; gemm_a_bt runs the C += A * B row kernel
// on B^T. Parallel tasks own disjoint tiles of C and every C element
// accumulates its products in the same index order as the reference
// loops, so all kernels are bitwise identical to their *_reference twins
// at every thread count.

#include "dense/matrix.hpp"

namespace sagnn {

/// C = A * B.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C += A * B.
void gemm_accumulate(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B  (A is m x n -> C is n x k). Used for the weight-gradient
/// outer product Y = H^T (A G).
Matrix gemm_at_b(const Matrix& a, const Matrix& b);

/// C = A * B^T  (B is k x n -> C is m x k). Used for G W^T in backprop.
/// Transposes B and runs gemm_accumulate, so B should be small.
Matrix gemm_a_bt(const Matrix& a, const Matrix& b);

/// Single-thread, untiled ground-truth twins, kept for the bitwise-parity
/// tests of the blocked kernels.
void gemm_accumulate_reference(const Matrix& a, const Matrix& b, Matrix& c);
Matrix gemm_at_b_reference(const Matrix& a, const Matrix& b);
Matrix gemm_a_bt_reference(const Matrix& a, const Matrix& b);

}  // namespace sagnn
