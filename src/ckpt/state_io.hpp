#pragma once
// Serialization visitors for the library's stateful types: dense/sparse
// matrices, the Xoshiro RNG, the GCN model, epoch-metric trajectories,
// recorded traffic, and the full TrainConfig record. These
// are the building blocks Trainer::save()/TrainerBuilder::resume() are
// assembled from; each function is the exact inverse of its partner, down
// to the bit pattern of every float.
//
// Readers validate as they go: CsrMatrix goes through the invariant-
// checking constructor, model weights are shape-checked against the
// already-constructed model, and every structural surprise throws a typed
// ckpt error naming the offending section — malformed input can reject,
// never corrupt.

#include <iosfwd>
#include <vector>

#include "ckpt/serializer.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "simcomm/traffic.hpp"
#include "sparse/csr.hpp"

namespace sagnn::ckpt {

// Values (not sections): callers wrap these in begin/enter_section.

void write_matrix(Serializer& s, const Matrix& m);
Matrix read_matrix(Deserializer& d);

void write_csr(Serializer& s, const CsrMatrix& m);
/// Reconstructs through the validating constructor; structural violations
/// surface as CheckpointFormatError naming the current section.
CsrMatrix read_csr(Deserializer& d);

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

void write_dataset_fingerprint(Serializer& s, const Dataset& ds);
/// Throws CheckpointMismatchError if `ds` is not the dataset the
/// checkpoint was taken on (name or shape differs).
void check_dataset_fingerprint(Deserializer& d, const Dataset& ds);

/// The common checkpoint prologue every trainer writes — the "config" and
/// "dataset" sections TrainerBuilder::resume() consumes before handing the
/// stream to the trainer's own restore().
void write_prologue(Serializer& s, const TrainConfig& cfg, const Dataset& ds);

/// "progress" section body: completed-epoch count + metric trajectory.
void write_progress(Serializer& s, int epoch,
                    const std::vector<EpochMetrics>& metrics);
/// Inverse of write_progress; throws CheckpointFormatError if the stored
/// count disagrees with the trajectory length.
int read_progress(Deserializer& d, std::vector<EpochMetrics>& metrics);

}  // namespace sagnn::ckpt
