#include "gnn/serial_trainer.hpp"

namespace sagnn {

namespace {

/// The record a serial checkpoint carries: the GCN config, every other
/// field at its default.
TrainConfig serial_record(GcnConfig gcn) {
  TrainConfig cfg;
  cfg.gcn = std::move(gcn);
  cfg.strategy = "serial";
  return cfg;
}

}  // namespace

SerialTrainer::SerialTrainer(const Dataset& dataset, GcnConfig config)
    : Trainer(dataset, serial_record(std::move(config))), model_(config_.gcn) {
  SAGNN_REQUIRE(config_.gcn.dims.front() == dataset.n_features(),
                "config input width must match dataset features");
  SAGNN_REQUIRE(config_.gcn.dims.back() == dataset.n_classes,
                "config output width must match dataset classes");
}

Matrix SerialTrainer::forward() {
  const GcnConfig& gcn = config_.gcn;
  Matrix h = dataset_.features;
  if (gcn.dropout > 0.0f) {
    dropout_rows_deterministic(h, gcn.dropout,
                               gcn.seed ^ (0x9e37ull * (epochs_run() + 1)), 0);
  }
  for (int l = 0; l < model_.n_layers(); ++l) {
    Matrix m = spmm(dataset_.adjacency, h);
    h = model_.layer(l).forward(std::move(m));
  }
  return h;
}

EpochMetrics SerialTrainer::run_epoch() {
  const GcnConfig& gcn = config_.gcn;
  const Matrix logits = forward();
  const LossStats stats =
      softmax_xent_stats(logits, dataset_.labels, dataset_.train_mask);

  // Backward: dH starts as the loss gradient wrt the logits.
  Matrix d_h = softmax_xent_grad(logits, dataset_.labels, dataset_.train_mask,
                                 stats.count);
  std::vector<Matrix> d_weights(static_cast<std::size_t>(model_.n_layers()));
  for (int l = model_.n_layers() - 1; l >= 0; --l) {
    auto back = model_.layer(l).backward(d_h);
    d_weights[static_cast<std::size_t>(l)] = std::move(back.d_weights);
    if (l > 0) d_h = spmm(dataset_.adjacency, back.d_m);
  }
  for (int l = 0; l < model_.n_layers(); ++l) {
    model_.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                   gcn.learning_rate, gcn.weight_decay);
  }
  epochs_.push_back({stats.mean_loss(), stats.accuracy()});
  return epochs_.back();
}

}  // namespace sagnn
