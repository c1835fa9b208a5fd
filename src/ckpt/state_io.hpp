#pragma once
// Serialization visitors for the library's stateful types: dense
// matrices, the Xoshiro RNG, the GCN model, epoch-metric trajectories,
// recorded traffic, and the full TrainConfig record. These
// are the building blocks Trainer::save()/TrainerBuilder::resume() are
// assembled from; each function is the exact inverse of its partner, down
// to the bit pattern of every float.
//
// Readers validate as they go: model weights are shape-checked against the
// already-constructed model, and every structural surprise throws a typed
// ckpt error naming the offending section — malformed input can reject,
// never corrupt.

#include <iosfwd>
#include <string>
#include <vector>

#include "ckpt/serializer.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "simcomm/traffic.hpp"

namespace sagnn::ckpt {

// Values (not sections): callers wrap these in begin/enter_section.

void write_matrix(Serializer& s, const Matrix& m);
Matrix read_matrix(Deserializer& d);

void write_rng(Serializer& s, const Rng& rng);
Rng read_rng(Deserializer& d);

void write_model(Serializer& s, const GcnModel& model);
/// Loads weights into an already-constructed model; throws
/// CheckpointMismatchError if layer count, activation flags, or weight
/// shapes disagree with the checkpoint.
void read_model_into(Deserializer& d, GcnModel& model);

void write_metrics(Serializer& s, const std::vector<EpochMetrics>& metrics);
std::vector<EpochMetrics> read_metrics(Deserializer& d);

void write_traffic(Serializer& s, const TrafficRecorder& traffic);
TrafficRecorder read_traffic(Deserializer& d);

void write_train_config(Serializer& s, const TrainConfig& cfg);
TrainConfig read_train_config(Deserializer& d);

/// The "dataset" section: identity of the graph a checkpoint was taken on.
struct DatasetFingerprint {
  std::string name;
  vid_t n = 0;
  vid_t f = 0;
  vid_t classes = 0;
  eid_t nnz = 0;

  /// Throw CheckpointMismatchError unless `ds` is this dataset.
  /// `allow_edge_drift` relaxes only the edge count — the knob for serving
  /// graphs that have absorbed streaming updates since training; name,
  /// vertex count, feature width, and class count must always match (the
  /// model's shapes depend on them).
  void require_matches(const Dataset& ds, bool allow_edge_drift = false) const;
};

/// The common checkpoint prologue every trainer writes.
struct Prologue {
  TrainConfig config;          ///< the "config" section
  DatasetFingerprint dataset;  ///< the "dataset" section
};

/// Write the "config" and "dataset" sections.
void write_prologue(Serializer& s, const TrainConfig& cfg, const Dataset& ds);
/// Read them back — the one reader TrainerBuilder::resume(), kill recovery
/// and serve::ModelLoader share before the mode-specific sections.
Prologue read_prologue(Deserializer& d);

/// "progress" section body: completed-epoch count + metric trajectory.
void write_progress(Serializer& s, int epoch,
                    const std::vector<EpochMetrics>& metrics);
/// Inverse of write_progress; throws CheckpointFormatError if the stored
/// count disagrees with the trajectory length.
int read_progress(Deserializer& d, std::vector<EpochMetrics>& metrics);

}  // namespace sagnn::ckpt
