#pragma once
// One GCN layer (Kipf & Welling), factored so the same code runs serially
// and distributed: the aggregation M = Â·H is performed OUTSIDE the layer
// (serial SpMM or a distributed SpMM algorithm); the layer owns the local
// dense algebra:
//
//   forward:   Z = M W,  H_out = sigma(Z)     (identity on the last layer)
//   backward:  dZ = dH_out (.* sigma'(Z) if activated)
//              dW = M^T dZ     (caller sums across ranks when distributed)
//              dM = dZ W^T     (caller then computes dH_in = Â dM)
//
// dM is the gradient of the layer's INPUT. Nothing reads it for the first
// layer of a model (H_in is the fixed feature matrix), so GcnModel builds
// layer 0 with compute_input_grad = false and its backward leaves d_m
// empty; a standalone layer computes it.
//
// The layer caches M and Z from the forward pass for use in backward.

#include "dense/gemm.hpp"
#include "dense/matrix.hpp"
#include "dense/ops.hpp"

namespace sagnn {

class GcnLayer {
 public:
  GcnLayer() = default;
  GcnLayer(Matrix w, bool apply_relu, bool compute_input_grad = true)
      : w_(std::move(w)), relu_(apply_relu), input_grad_(compute_input_grad) {}

  vid_t in_features() const { return w_.n_rows(); }
  vid_t out_features() const { return w_.n_cols(); }
  bool has_relu() const { return relu_; }
  const Matrix& weights() const { return w_; }
  Matrix& weights_mut() { return w_; }

  /// Forward: consumes the aggregated input M = Â·H_in. Caches M and Z.
  Matrix forward(Matrix m);

  /// Backward helper results.
  struct Backward {
    Matrix d_weights;  ///< local contribution M^T dZ (sum across ranks!)
    Matrix d_m;        ///< dM = dZ W^T; aggregate with Â for dH_in (empty
                       ///< when the layer does not compute its input grad)
    Matrix d_z;        ///< dZ after activation gradient (exposed for tests)
  };

  /// Backward from the gradient wrt this layer's output.
  Backward backward(const Matrix& d_h_out) const;

  /// Apply a gradient step W -= lr * (dW + weight_decay * W).
  void apply_gradient(const Matrix& d_weights, real_t lr,
                      real_t weight_decay = 0.0f);

 private:
  Matrix w_;
  bool relu_ = true;
  bool input_grad_ = true;
  Matrix cached_m_;
  Matrix cached_z_;
};

}  // namespace sagnn
