#pragma once
// Distributed full-graph GCN training on the simulated cluster, written
// once against the DistributionStrategy interface: pick a strategy and a
// partitioner (both by registry name, via TrainConfig), and the trainer
//   1. partitions & symmetrically permutes Â (and H rows, labels, masks),
//   2. builds the P-rank cluster and runs each strategy's setup (the one-time
//      index exchange is recorded separately and excluded from epoch cost,
//      as the paper excludes preprocessing),
//   3. trains the GCN with replicated weights, one run_epoch() at a time
//      (per-rank state persists across epochs, so callers may interleave
//      epoch stepping with inspection),
//   4. reports per-epoch metrics, exact per-phase communication volumes,
//      the alpha-beta modeled epoch-time breakdown, and partition quality.

#include <memory>

#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "simcomm/cluster.hpp"

namespace sagnn {

class DistributedTrainer final : public Trainer {
 public:
  /// Validates geometry (via the strategy), GCN dimensions, and resolves
  /// both registry names (std::invalid_argument on unknown ones).
  DistributedTrainer(const Dataset& dataset, TrainConfig config);
  ~DistributedTrainer() override;

  std::string name() const override;
  EpochMetrics run_epoch() override;
  const TrainResult& result() override;

  /// Snapshot the job: one copy of the (replicated, verified-identical)
  /// model weights, the metric trajectory, recorded traffic, and per-rank
  /// CPU-second accumulators. Restoring on the SAME rank count continues
  /// bit-identically (loss trajectory, weights, per-epoch phase volumes);
  /// restoring on a different p is an elastic restart: the graph is
  /// re-partitioned and traffic accounting restarts at the resume epoch.
  void save(std::ostream& out) override;

  const TrainConfig& config() const { return config_; }
  /// The replicated model (every rank holds a bitwise-identical copy).
  const GcnModel& model() const override;

 protected:
  GcnModel& restored_model() override;
  /// "traffic", "rank_cpu" and "traffic_base".
  void save_sections(ckpt::Serializer& s) override;
  /// Copies the restored weights to every rank, then reads the traffic
  /// history — adopted only on the same communication geometry.
  void restore_sections(ckpt::Deserializer& d, const TrainConfig& saved) override;
  /// Restore from the last auto-checkpoint (elastically on p-1 ranks when
  /// the kill is permanent; cold-restart from epoch 0 when no snapshot
  /// exists yet) and keep training.
  void recover_from_kill(const RankKilledError& kill) override;

 private:
  struct RankState;

  StrategyContext context() const {
    return {config_.p, config_.c, &a_, ranges_, config_.pipeline_chunks};
  }
  /// Partition + permute the dataset for config_.p/c and spin up a fresh
  /// cluster with per-rank strategy setup. The constructor's body, also
  /// re-run by kill recovery (the aborted world, its mailboxes, and any
  /// partial epoch state are garbage after a kill — everything is rebuilt,
  /// then checkpoint state is injected via restore()).
  void initialize();
  void finalize();

  // The permuted problem (block rows contiguous per part).
  CsrMatrix a_;
  Matrix h0_;
  std::vector<vid_t> labels_;
  std::vector<std::uint8_t> mask_;
  std::vector<vid_t> original_id_;
  std::vector<BlockRange> ranges_;
  std::int64_t total_train_ = 0;

  std::unique_ptr<DistributionStrategy> job_strategy_;  ///< cost/geometry queries
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<RankState>> states_;
  std::vector<double> rank_cpu_seconds_;  ///< accumulated across epochs

  /// Epochs whose traffic is NOT in this process's recorder: 0 normally
  /// and after a same-p restore (the snapshot carries the full history);
  /// the resume epoch after an ELASTIC restore, where the old geometry's
  /// traffic is meaningless and accounting restarts fresh.
  int traffic_epoch_base_ = 0;
  int finalized_epochs_ = -1;  ///< epochs covered by result_; -1 = never

  RecoveryStats recovery_;
  /// Fault counters of clusters torn down by kill recovery (the live
  /// cluster's recorder is added at finalize()).
  FaultCounters faults_before_recovery_;
};

}  // namespace sagnn
