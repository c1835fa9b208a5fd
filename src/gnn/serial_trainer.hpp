#pragma once
// Single-process full-graph GCN trainer: the numerical reference every
// distributed configuration is property-tested against, and the baseline
// for accuracy-parity claims (paper §6.2: sparsity-aware training changes
// communication, not math). Implements the unified Trainer interface.

#include <vector>

#include "gnn/loss.hpp"
#include "gnn/trainer.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {

class SerialTrainer final : public Trainer {
 public:
  SerialTrainer(const Dataset& dataset, GcnConfig config);

  std::string name() const override { return "serial"; }
  int epochs_run() const override { return epoch_; }

  /// One full-batch epoch: forward, loss, backward, SGD step.
  EpochMetrics run_epoch() override;

  /// Run the remaining configured epochs; returns the full trajectory.
  const std::vector<EpochMetrics>& train() override;

  const TrainResult& result() override;

  /// Snapshot epoch count, metric trajectory, and model weights.
  void save(std::ostream& out) override;

  /// Forward pass only; returns the logits (used by tests/examples).
  Matrix forward();

  const GcnModel& model() const { return model_; }
  GcnModel& model_mut() { return model_; }

 protected:
  void restore(ckpt::Deserializer& d, const TrainConfig& saved) override;

 private:
  const Dataset& dataset_;
  GcnConfig config_;
  GcnModel model_;
  int epoch_ = 0;  ///< epochs completed; drives the per-epoch dropout seed
  std::vector<EpochMetrics> metrics_;
  TrainResult result_;
};

}  // namespace sagnn
