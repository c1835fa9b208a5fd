#pragma once
// Read-only checkpoint loading for serving: materialize trained weights
// and the graph fingerprint from a SAGNCKPT stream WITHOUT constructing a
// Trainer.
//
// TrainerBuilder::resume() is the wrong tool for inference — it rebuilds
// the entire training apparatus (partition, simulated cluster, optimizer
// and RNG state, traffic recorders) just to get at the weight matrices. A
// serving process wants exactly three things from a checkpoint: the model
// configuration, the weights, and enough dataset identity to refuse a
// checkpoint taken on a different graph.
//
// The loader reads the common prologue every trainer writes ("config" +
// "dataset", through ckpt::read_prologue()), then walks the remaining
// sections: "progress" and "model" are interpreted; anything else — "rng",
// "traffic", "rank_cpu", "sampled_metrics", whatever a future trainer
// adds — is skipped through Deserializer::skip_section(), which still
// verifies the section CRC. A checkpoint from ANY training mode is
// therefore loadable, and damage anywhere in the file is still detected.
// Malformed or incompatible streams throw the typed errors of
// ckpt/errors.hpp; a stream without a "model" section (no trainer writes
// one of those, but a truncated-and-repaired file could look like that)
// is a CheckpointFormatError.

#include <iosfwd>
#include <string>
#include <vector>

#include "ckpt/state_io.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"

namespace sagnn::serve {

class ModelLoader {
 public:
  /// Parses the whole checkpoint stream eagerly; every format/CRC problem
  /// surfaces here, not at first use.
  explicit ModelLoader(std::istream& in);

  const TrainConfig& train_config() const { return prologue_.config; }
  /// The "dataset" section: identity of the graph the model was trained on.
  const ckpt::DatasetFingerprint& fingerprint() const {
    return prologue_.dataset;
  }
  int epochs_trained() const { return epochs_trained_; }
  const std::vector<EpochMetrics>& metrics() const { return metrics_; }
  /// Section names that were skipped (mode-specific training state).
  const std::vector<std::string>& skipped_sections() const { return skipped_; }

  const GcnModel& model() const { return model_; }
  /// Move the weights out (the loader is spent afterwards).
  GcnModel take_model() { return std::move(model_); }

  /// Throw CheckpointMismatchError unless `ds` is the checkpoint's
  /// dataset: fingerprint().require_matches(ds, allow_edge_drift).
  void require_compatible(const Dataset& ds,
                          bool allow_edge_drift = false) const {
    prologue_.dataset.require_matches(ds, allow_edge_drift);
  }

 private:
  ckpt::Prologue prologue_;
  GcnModel model_;
  int epochs_trained_ = 0;
  std::vector<EpochMetrics> metrics_;
  std::vector<std::string> skipped_;
};

}  // namespace sagnn::serve
