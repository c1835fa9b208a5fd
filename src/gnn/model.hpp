#pragma once
// GCN model: a stack of GcnLayers with deterministic Glorot initialization.
// The same (config, seed) yields bit-identical weights on every rank, which
// is what keeps the replicated-weight distributed training consistent
// without broadcasting parameters.

#include <vector>

#include "gnn/layer.hpp"

namespace sagnn {

struct GcnConfig {
  /// Layer widths: {f_in, hidden..., n_classes}. The paper's setup is a
  /// 3-layer GCN with 16 hidden units: {f, 16, 16, classes}.
  std::vector<vid_t> dims;
  real_t learning_rate = 0.05f;
  /// L2 regularization: the SGD step uses W -= lr * (dW + weight_decay*W).
  /// Rank-replicable (pure function of replicated state).
  real_t weight_decay = 0.0f;
  /// Input-dropout probability applied to H^0 each epoch (Kipf & Welling
  /// train with dropout). Deterministic per (seed, epoch, global vertex),
  /// so every rank draws the identical mask for the rows it owns and
  /// distributed training stays equal to serial.
  real_t dropout = 0.0f;
  int epochs = 100;
  std::uint64_t seed = 42;

  int n_layers() const { return static_cast<int>(dims.size()) - 1; }

  /// The paper's architecture for a dataset with f input features.
  static GcnConfig paper_3layer(vid_t f, vid_t classes, int epochs = 100) {
    GcnConfig cfg;
    cfg.dims = {f, 16, 16, classes};
    cfg.epochs = epochs;
    return cfg;
  }
};

class GcnModel {
 public:
  GcnModel() = default;
  /// Glorot-initialized layers; layer 0 leaves its backward's d_m empty
  /// (gnn/layer.hpp).
  explicit GcnModel(const GcnConfig& config);

  int n_layers() const { return static_cast<int>(layers_.size()); }
  GcnLayer& layer(int l) { return layers_[static_cast<std::size_t>(l)]; }
  const GcnLayer& layer(int l) const { return layers_[static_cast<std::size_t>(l)]; }

  /// Frobenius distance between two models' weights (test helper).
  double weight_distance(const GcnModel& other) const;

 private:
  std::vector<GcnLayer> layers_;
};

}  // namespace sagnn
