// GcnLayer forward/backward local algebra.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gnn/layer.hpp"
#include "gnn/model.hpp"

namespace sagnn {
namespace {

TEST(GcnLayer, ForwardShapeAndActivation) {
  Rng rng(1);
  GcnLayer layer(Matrix::glorot(4, 3, rng), /*apply_relu=*/true);
  const Matrix m = Matrix::random_uniform(10, 4, rng);
  const Matrix h = layer.forward(m);
  EXPECT_EQ(h.n_rows(), 10);
  EXPECT_EQ(h.n_cols(), 3);
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_GE(h.data()[i], 0.0f);
}

TEST(GcnLayer, LastLayerIsLinear) {
  Rng rng(2);
  GcnLayer layer(Matrix::glorot(3, 2, rng), /*apply_relu=*/false);
  const Matrix m = Matrix::random_uniform(5, 3, rng, -10, -5);  // all negative
  const Matrix h = layer.forward(m);
  bool any_negative = false;
  for (std::size_t i = 0; i < h.size(); ++i) any_negative |= h.data()[i] < 0;
  EXPECT_TRUE(any_negative);
}

TEST(GcnLayer, ForwardRejectsWidthMismatch) {
  Rng rng(3);
  GcnLayer layer(Matrix::glorot(4, 3, rng), true);
  EXPECT_THROW(layer.forward(Matrix(10, 5)), Error);
}

TEST(GcnLayer, BackwardShapes) {
  Rng rng(4);
  GcnLayer layer(Matrix::glorot(4, 3, rng), true);
  (void)layer.forward(Matrix::random_uniform(6, 4, rng));
  const auto back = layer.backward(Matrix::random_uniform(6, 3, rng));
  EXPECT_EQ(back.d_weights.n_rows(), 4);
  EXPECT_EQ(back.d_weights.n_cols(), 3);
  EXPECT_EQ(back.d_m.n_rows(), 6);
  EXPECT_EQ(back.d_m.n_cols(), 4);
}

TEST(GcnLayer, BackwardMasksByReluGradient) {
  // With all-negative pre-activations, relu' == 0 and all gradients vanish.
  Matrix w(1, 1, {1.0f});
  GcnLayer layer(std::move(w), true);
  (void)layer.forward(Matrix(2, 1, {-1.0f, -2.0f}));
  const auto back = layer.backward(Matrix(2, 1, {5.0f, 5.0f}));
  EXPECT_FLOAT_EQ(back.d_weights(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(back.d_m(0, 0), 0.0f);
}

TEST(GcnLayer, ApplyGradientIsSgdStep) {
  Matrix w(1, 2, {1.0f, 2.0f});
  GcnLayer layer(std::move(w), true);
  layer.apply_gradient(Matrix(1, 2, {10.0f, -10.0f}), 0.1f);
  EXPECT_FLOAT_EQ(layer.weights()(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(layer.weights()(0, 1), 3.0f);
}

TEST(GcnModel, PaperConfigShape) {
  const GcnConfig cfg = GcnConfig::paper_3layer(300, 24);
  EXPECT_EQ(cfg.n_layers(), 3);
  const GcnModel model(cfg);
  EXPECT_EQ(model.layer(0).in_features(), 300);
  EXPECT_EQ(model.layer(0).out_features(), 16);
  EXPECT_EQ(model.layer(2).out_features(), 24);
  EXPECT_TRUE(model.layer(0).has_relu());
  EXPECT_TRUE(model.layer(1).has_relu());
  EXPECT_FALSE(model.layer(2).has_relu());
}

TEST(GcnModel, FirstLayerSkipsInputGradient) {
  // Layer 0's input is the feature matrix, so the model's layer 0 leaves
  // d_m empty; its weight gradient is bitwise the standalone layer's.
  const GcnModel model(GcnConfig::paper_3layer(8, 4));
  GcnLayer model_layer = model.layer(0);
  GcnLayer standalone(model.layer(0).weights(), model.layer(0).has_relu());
  Rng rng(5);
  const Matrix m = Matrix::random_uniform(6, 8, rng);
  const Matrix d_h = Matrix::random_uniform(6, 16, rng);
  (void)model_layer.forward(m);
  (void)standalone.forward(m);
  const auto back = model_layer.backward(d_h);
  const auto want = standalone.backward(d_h);
  EXPECT_EQ(back.d_m.size(), 0u);
  EXPECT_EQ(want.d_m.n_rows(), 6);
  EXPECT_EQ(want.d_m.n_cols(), 8);
  EXPECT_TRUE(back.d_weights == want.d_weights);
  EXPECT_TRUE(back.d_z == want.d_z);

  // Deeper layers still compute it.
  GcnLayer second = model.layer(1);
  (void)second.forward(Matrix::random_uniform(6, 16, rng));
  EXPECT_EQ(second.backward(d_h).d_m.n_cols(), 16);
}

TEST(GcnModel, SameSeedIdenticalWeights) {
  const GcnConfig cfg = GcnConfig::paper_3layer(8, 4);
  const GcnModel a(cfg), b(cfg);
  EXPECT_DOUBLE_EQ(a.weight_distance(b), 0.0);
}

TEST(GcnModel, DifferentSeedDifferentWeights) {
  GcnConfig cfg = GcnConfig::paper_3layer(8, 4);
  const GcnModel a(cfg);
  cfg.seed = 43;
  const GcnModel b(cfg);
  EXPECT_GT(a.weight_distance(b), 0.0);
}

TEST(GcnModel, RejectsDegenerateConfig) {
  GcnConfig cfg;
  cfg.dims = {8};
  EXPECT_THROW(GcnModel{cfg}, Error);
}

}  // namespace
}  // namespace sagnn
