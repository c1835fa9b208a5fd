#pragma once
// Mini-batch GCN training with layer-wise neighbor sampling (GraphSAGE
// style) — the alternative the paper argues AGAINST in §1: sampling from
// the L-hop neighborhood per batch "suffers from irregular memory accesses,
// lack of parallelism, and risk of accuracy degradation", which motivates
// the full-batch approach this library parallelizes.
//
// This baseline exists so that claim is demonstrable inside this codebase
// (see examples/minibatch_vs_fullbatch.cpp):
//   * per-epoch sampled-edge counts show the multiplicative L-hop blow-up,
//   * loss/accuracy trajectories show the sampling-noise degradation
//     relative to SerialTrainer on the same dataset and model.
//
// Implements the unified Trainer interface (run_epoch()/train()/result()
// report the common loss/accuracy metrics); the sampling-specific counters
// are available through the *_detailed() variants.
//
// Sampling scheme: for each mini-batch of training vertices, walk layers
// backwards; at layer l each frontier vertex keeps at most fanout[l]
// uniformly-sampled in-neighbors. Aggregations use the GCN-normalized Â
// entries rescaled by deg/sample so the sampled aggregate is an unbiased
// estimator of the full-batch one.

#include <vector>

#include "gnn/serial_trainer.hpp"

namespace sagnn {

struct SampledEpochMetrics {
  double loss = 0;            ///< mean training loss over the epoch's batches
  double train_accuracy = 0;  ///< accuracy over the epoch's batch vertices
  std::int64_t sampled_edges = 0;  ///< aggregation nnz touched this epoch
  std::int64_t batches = 0;
};

class SampledTrainer final : public Trainer {
 public:
  SampledTrainer(const Dataset& dataset, GcnConfig config, SamplingConfig sampling);

  std::string name() const override { return "sampled"; }
  int epochs_run() const override {
    return static_cast<int>(detailed_.size());
  }

  /// One epoch = one pass over all training vertices in shuffled
  /// mini-batches, with an SGD step per batch.
  EpochMetrics run_epoch() override;
  const std::vector<EpochMetrics>& train() override;
  const TrainResult& result() override;

  /// Snapshot model weights, the mini-batch RNG stream, and both metric
  /// trajectories (common + sampling counters). Resume continues the
  /// shuffles and neighbor draws bit-identically.
  void save(std::ostream& out) override;

  /// Same epoch step, returning the sampling-specific counters.
  SampledEpochMetrics run_epoch_detailed();
  /// Remaining epochs with detailed metrics for every epoch run so far.
  const std::vector<SampledEpochMetrics>& train_detailed();

  /// Full-graph (non-sampled) evaluation of the current weights; lets the
  /// accuracy comparison against full-batch training be apples-to-apples.
  LossStats evaluate() const;

  const GcnModel& model() const { return model_; }

 protected:
  void restore(ckpt::Deserializer& d, const TrainConfig& saved) override;

 private:
  /// One layer of the sampled computation graph: a block matrix mapping
  /// the previous frontier to the current one, with rescaled Â values.
  struct SampledLayer {
    CsrMatrix block;           ///< |targets| x |sources|
    std::vector<vid_t> sources;  ///< global vertex ids of the columns
  };

  /// Build the L-layer sampled computation graph for `batch` (global ids).
  /// Returns layers outermost-first along with the innermost source list.
  std::vector<SampledLayer> sample_batch(const std::vector<vid_t>& batch);

  const Dataset& dataset_;
  GcnConfig config_;
  SamplingConfig sampling_;
  GcnModel model_;
  Rng rng_;
  std::vector<vid_t> train_vertices_;
  std::vector<SampledEpochMetrics> detailed_;
  std::vector<EpochMetrics> metrics_;
  TrainResult result_;
};

}  // namespace sagnn
