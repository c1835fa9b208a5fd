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

  /// One full-batch epoch: forward, loss, backward, SGD step.
  EpochMetrics run_epoch() override;

  /// Forward pass only; returns the logits (used by tests/examples).
  Matrix forward();

  const GcnModel& model() const override { return model_; }

 protected:
  GcnModel& restored_model() override { return model_; }

 private:
  GcnModel model_;
};

}  // namespace sagnn
