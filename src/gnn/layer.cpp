#include "gnn/layer.hpp"

namespace sagnn {

Matrix GcnLayer::forward(Matrix m) {
  SAGNN_REQUIRE(m.n_cols() == w_.n_rows(),
                "layer input feature width mismatch");
  cached_m_ = std::move(m);
  cached_z_ = gemm(cached_m_, w_);
  return relu_ ? relu(cached_z_) : cached_z_;
}

GcnLayer::Backward GcnLayer::backward(const Matrix& d_h_out) const {
  SAGNN_REQUIRE(cached_z_.n_rows() == d_h_out.n_rows() &&
                    cached_z_.n_cols() == d_h_out.n_cols(),
                "backward called before forward, or shape mismatch");
  Backward out;
  out.d_z = relu_ ? hadamard(d_h_out, relu_grad(cached_z_)) : d_h_out;
  out.d_weights = gemm_at_b(cached_m_, out.d_z);
  if (input_grad_) out.d_m = gemm_a_bt(out.d_z, w_);
  return out;
}

void GcnLayer::apply_gradient(const Matrix& d_weights, real_t lr,
                              real_t weight_decay) {
  if (weight_decay != 0.0f) {
    // W -= lr*wd*W first, then the gradient term; order matches the usual
    // decoupled-from-nothing classic L2 formulation up to O(lr^2).
    // (IEEE a + (-s)*b == a - s*b bitwise, so flipping axpy_inplace to the
    // conventional sign kept training math bit-identical.)
    axpy_inplace(w_, w_, -lr * weight_decay);
  }
  axpy_inplace(w_, d_weights, -lr);
}

}  // namespace sagnn
