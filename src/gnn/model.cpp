#include "gnn/model.hpp"

#include "common/rng.hpp"

namespace sagnn {

GcnModel::GcnModel(const GcnConfig& config) {
  SAGNN_REQUIRE(config.dims.size() >= 2, "GCN needs at least one layer");
  Rng rng(config.seed);
  layers_.reserve(config.dims.size() - 1);
  for (std::size_t l = 0; l + 1 < config.dims.size(); ++l) {
    const bool is_last = l + 2 == config.dims.size();
    Matrix w = Matrix::glorot(config.dims[l], config.dims[l + 1], rng);
    // Layer 0's input is the feature matrix: no trainer reads its dM.
    layers_.emplace_back(std::move(w), /*apply_relu=*/!is_last,
                         /*compute_input_grad=*/l > 0);
  }
}

double GcnModel::weight_distance(const GcnModel& other) const {
  SAGNN_REQUIRE(n_layers() == other.n_layers(), "model depth mismatch");
  double acc = 0;
  for (int l = 0; l < n_layers(); ++l) {
    acc += layer(l).weights().frobenius_distance(other.layer(l).weights());
  }
  return acc;
}

}  // namespace sagnn
