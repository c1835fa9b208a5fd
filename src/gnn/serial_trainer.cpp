#include "gnn/serial_trainer.hpp"

#include "ckpt/state_io.hpp"

namespace sagnn {

SerialTrainer::SerialTrainer(const Dataset& dataset, GcnConfig config)
    : dataset_(dataset), config_(std::move(config)), model_(config_) {
  SAGNN_REQUIRE(config_.dims.front() == dataset.n_features(),
                "config input width must match dataset features");
  SAGNN_REQUIRE(config_.dims.back() == dataset.n_classes,
                "config output width must match dataset classes");
}

Matrix SerialTrainer::forward() {
  Matrix h = dataset_.features;
  if (config_.dropout > 0.0f) {
    dropout_rows_deterministic(h, config_.dropout,
                               config_.seed ^ (0x9e37ull * (epoch_ + 1)), 0);
  }
  for (int l = 0; l < model_.n_layers(); ++l) {
    Matrix m = spmm(dataset_.adjacency, h);
    h = model_.layer(l).forward(std::move(m));
  }
  return h;
}

EpochMetrics SerialTrainer::run_epoch() {
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
                                   config_.learning_rate, config_.weight_decay);
  }
  ++epoch_;
  metrics_.push_back({stats.mean_loss(), stats.accuracy()});
  return metrics_.back();
}

const std::vector<EpochMetrics>& SerialTrainer::train() {
  while (epoch_ < config_.epochs) {
    run_epoch();
    maybe_auto_checkpoint(epoch_);
  }
  return metrics_;
}

const TrainResult& SerialTrainer::result() {
  result_.epochs = metrics_;
  return result_;
}

void SerialTrainer::save(std::ostream& out) {
  ckpt::Serializer s(out);
  TrainConfig cfg;
  cfg.gcn = config_;
  cfg.strategy = "serial";
  ckpt::write_prologue(s, cfg, dataset_);
  ckpt::write_progress(s, epoch_, metrics_);
  s.begin_section("model");
  ckpt::write_model(s, model_);
  s.end_section();
  s.finish();
}

void SerialTrainer::restore(ckpt::Deserializer& d, const TrainConfig& /*saved*/) {
  epoch_ = ckpt::read_progress(d, metrics_);
  d.enter_section("model");
  ckpt::read_model_into(d, model_);
  d.leave_section();
}

}  // namespace sagnn
