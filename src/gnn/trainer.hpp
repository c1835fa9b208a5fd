#pragma once
// The unified training API (every trainer — serial, distributed, sampled —
// implements the same three-verb interface):
//
//   run_epoch()  one epoch, returns its global metrics
//   train()      run all remaining configured epochs
//   result()     aggregate TrainResult (trajectory + cost/volume reports)
//
// Construction goes through TrainerBuilder, which selects the execution
// mode and — for distributed training — the communication strategy and the
// graph partitioner purely by their registry names:
//
//   auto trainer = TrainerBuilder(dataset)
//                      .strategy("1.5d-sparse")   // any registered strategy
//                      .ranks(/*p=*/16, /*c=*/2)
//                      .partitioner("gvb")        // any registered partitioner
//                      .gcn(config)
//                      .build();
//   trainer->train();
//   const TrainResult& r = trainer->result();
//
// "serial" and "sampled" are built-in mode names; every other name is
// resolved against the DistributionStrategy registry (gnn/strategy.hpp),
// so a new strategy class becomes selectable here without touching any
// trainer or driver code.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gnn/model.hpp"
#include "gnn/strategy.hpp"
#include "graph/datasets.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"
#include "plan/planner.hpp"
#include "simcomm/cost_model.hpp"
#include "simcomm/fault.hpp"

namespace sagnn {

namespace ckpt {
class Deserializer;
}  // namespace ckpt

struct TrainConfig;

/// Global per-epoch training metrics (identical across ranks).
struct EpochMetrics {
  double loss = 0;
  double train_accuracy = 0;
};

/// Exact per-phase communication per epoch, from recorded traffic.
struct PhaseVolume {
  double megabytes_per_epoch = 0;
  double messages_per_epoch = 0;
};

/// What train() does when an injected rank kill aborts an epoch
/// (RankKilledError from the fault plan's KillSpec schedule).
enum class FaultRecovery {
  /// Rethrow the typed error to the caller (who may resume manually —
  /// e.g. an elastic restart at an arbitrary new rank count).
  kNone,
  /// Closed loop: restore from the last auto-checkpoint (cold-restart
  /// from epoch 0 if none exists yet) and continue training; permanent
  /// kills restart elastically on p-1 ranks. Distributed mode only.
  kCheckpointRestart,
};

/// Bookkeeping of train()'s kill-recovery loop (zero for fault-free runs).
struct RecoveryStats {
  int kills = 0;             ///< injected rank kills caught by train()
  int restores = 0;          ///< successful auto-checkpoint restorations
  int cold_restarts = 0;     ///< kills with no snapshot yet (replay from 0)
  int elastic_restarts = 0;  ///< permanent kills absorbed on p-1 ranks
  int replayed_epochs = 0;   ///< wasted work: epochs re-run after recovery
  double recovery_seconds = 0;  ///< wall-clock rebuilding + restoring
  double last_save_seconds = 0;       ///< most recent auto-checkpoint write
  std::uint64_t snapshot_bytes = 0;   ///< size of that snapshot
};

/// Mini-batch sampling knobs (the "sampled" trainer mode).
struct SamplingConfig {
  vid_t batch_size = 64;
  /// Per-layer neighbor fanout, innermost (layer 1) first. Size must equal
  /// the number of GCN layers.
  std::vector<vid_t> fanouts;
  std::uint64_t seed = 1234;
};

/// Aggregate outcome of a training run. Serial and sampled trainers fill
/// only `epochs`; distributed trainers additionally report exact
/// communication volumes, the alpha-beta modeled epoch cost, and partition
/// quality statistics (Figures 3/4/6/7 and Table 2 of the paper).
struct TrainResult {
  std::vector<EpochMetrics> epochs;

  /// Epochs actually executed — the count every per-epoch average below is
  /// taken over. A run stopped early via run_epoch() stepping reports the
  /// completed count, never the configured one.
  int epochs_completed() const { return static_cast<int>(epochs.size()); }

  /// alpha-beta modeled time for ONE epoch, split by phase.
  EpochCost modeled_epoch;

  /// Pipeline stages (column chunks) the strategy's dominant phase ran in:
  /// 1 for every bulk-synchronous strategy, the chunk count for
  /// "1d-overlap". Feeds modeled_epoch.total_pipelined().
  int pipeline_stages = 1;

  /// Exact per-phase communication per epoch, from recorded traffic,
  /// keyed by base phase name (the stages of a chunk-tagged phase such as
  /// "alltoall#k" aggregate under "alltoall").
  std::map<std::string, PhaseVolume> phase_volumes;

  /// Predicted sparsity-aware volumes from (matrix, partition) alone;
  /// cross-checkable against phase_volumes["alltoall"].
  VolumeStats volume_model;

  double partition_wall_seconds = 0;
  double setup_megabytes = 0;  ///< one-time index-exchange volume
  double max_rank_cpu_seconds_per_epoch = 0;  ///< unscaled compute bottleneck

  /// The three modeled schedule columns: bulk-synchronous, pipelined at
  /// the stage count the run actually used, and the ideal overlap bound.
  double modeled_epoch_seconds() const { return modeled_epoch.total(); }
  double modeled_epoch_pipelined_seconds() const {
    return modeled_epoch.total_pipelined(pipeline_stages);
  }
  double modeled_epoch_overlapped_seconds() const {
    return modeled_epoch.total_overlapped();
  }

  /// MEASURED (host wall-clock) share of the nonblocking exchanges'
  /// outstanding time hidden behind useful work — the runtime counterpart
  /// of the modeled schedule columns above. 0 for strategies without
  /// nonblocking exchanges; ~0 for bulk-synchronous alltoall strategies;
  /// approaches 1 - 1/stages for the pipelined ones when compute covers
  /// the exchange. Not checkpointed: a resumed run restarts it.
  double measured_overlap_fraction() const {
    return modeled_epoch.measured_overlap_fraction();
  }

  /// Injected-fault event counters recorded by the runtime (drops,
  /// retries, timeouts, suppressed duplicates, straggler seconds) —
  /// accumulated across kill recoveries. All zero for fault-free runs.
  FaultCounters faults;

  /// Closed-loop recovery bookkeeping from train()'s kill-recovery loop.
  RecoveryStats recovery;
};

/// Common trainer interface. Epoch-at-a-time stepping and whole-run
/// training compose: train() always runs the epochs not yet executed.
class Trainer {
 public:
  virtual ~Trainer() = default;

  /// Human-readable description of the configuration.
  virtual std::string name() const = 0;

  /// Epochs executed so far.
  virtual int epochs_run() const = 0;

  /// Execute one epoch and return its global metrics.
  virtual EpochMetrics run_epoch() = 0;

  /// Execute all remaining configured epochs; returns the full trajectory.
  virtual const std::vector<EpochMetrics>& train() = 0;

  /// Aggregate result for the epochs executed so far.
  virtual const TrainResult& result() = 0;

  /// Snapshot the complete training state (configuration, model weights,
  /// RNG/optimizer state, metric trajectory, recorded traffic) to the
  /// versioned binary checkpoint format (src/ckpt/). Call between epochs;
  /// TrainerBuilder::resume() reconstructs a trainer that continues the
  /// run bit-identically to one that was never interrupted.
  virtual void save(std::ostream& out) = 0;

 protected:
  /// Restore path: the deserializer is positioned after the config and
  /// dataset sections (already consumed by TrainerBuilder::resume()).
  /// `saved` is the checkpoint's own configuration BEFORE builder
  /// overrides — trainers compare it against their merged config to tell
  /// an exact same-geometry resume from an elastic restart.
  virtual void restore(ckpt::Deserializer& d, const TrainConfig& saved) = 0;

  /// Periodic auto-checkpointing, shared by every mode's train() loop:
  /// when armed (TrainConfig::auto_checkpoint_every via TrainerBuilder),
  /// save() to the configured path after every N completed epochs,
  /// atomically against process crashes (sibling ".tmp" + checked
  /// flush/close + rename — a killed process or failed write never
  /// replaces the previous good snapshot; power-loss durability (fsync)
  /// is explicitly out of scope). Call with epochs_run() after each
  /// epoch of a train() loop; no-op when disabled. run_epoch() stepping
  /// deliberately never triggers it.
  void maybe_auto_checkpoint(int epochs_completed);

  /// The armed auto-checkpoint knobs (empty path / 0 when disabled) — the
  /// kill-recovery loop restores from this path.
  const std::string& auto_checkpoint_path() const {
    return auto_checkpoint_path_;
  }
  int auto_checkpoint_every() const { return auto_checkpoint_every_; }
  /// Wall-clock and size of the most recent auto-checkpoint write (0 until
  /// one happened) — surfaced on TrainResult::recovery.
  double last_auto_save_seconds() const { return last_auto_save_seconds_; }
  std::uint64_t last_auto_snapshot_bytes() const {
    return last_auto_snapshot_bytes_;
  }

  friend class TrainerBuilder;

 private:
  /// Builder-only: validates and stores the auto-checkpoint knobs.
  void arm_auto_checkpoint(std::string path, int every_epochs);

  int auto_checkpoint_every_ = 0;
  std::string auto_checkpoint_path_;
  double last_auto_save_seconds_ = 0;
  std::uint64_t last_auto_snapshot_bytes_ = 0;
};

/// One configuration record subsuming the per-mode option structs.
struct TrainConfig {
  GcnConfig gcn;  ///< dims auto-derived from the dataset when left empty

  /// "serial", "sampled", or a registered distribution-strategy name
  /// (e.g. "1d-sparse", "1.5d-oblivious", "2d-sparse").
  std::string strategy = "serial";

  /// Host thread-pool size for partitioning and the blocked kernels
  /// (common/parallel.hpp). 0 keeps the current pool (SAGNN_THREADS env,
  /// else hardware concurrency); >= 1 pins it. Never affects training
  /// math: kernels are bitwise thread-count-invariant and simulated rank
  /// threads always compute serially.
  int threads = 0;

  // --- distributed-mode options ---
  int p = 4;  ///< simulated GPU count
  int c = 1;  ///< replication factor (1.5D strategies)
  std::string partitioner = "block";  ///< partitioner registry name
  PartitionerOptions partitioner_options;
  CostModel cost_model;
  /// Column chunks for pipelined strategies ("1d-overlap",
  /// "1.5d-overlap"); bulk-synchronous strategies ignore it.
  int pipeline_chunks = 4;

  /// Unread; see the comment on its type in gnn/strategy.hpp.
  KernelConfig kernels;

  /// Periodic auto-checkpointing inside train(): every
  /// `auto_checkpoint_every` completed epochs the trainer save()s to
  /// `auto_checkpoint_path`, written atomically against process crashes
  /// (sibling ".tmp" file + checked flush + rename) so an interrupted
  /// write never leaves a torn snapshot at the advertised path. 0
  /// disables. A runtime knob, deliberately NOT serialized into
  /// checkpoints — re-arm it on the resuming builder if wanted.
  int auto_checkpoint_every = 0;
  std::string auto_checkpoint_path;

  /// Deterministic fault injection on the simulated cluster (stragglers,
  /// lossy links, rank kills — see simcomm/fault.hpp); null = fault-free.
  /// A runtime knob exactly like auto-checkpointing: deliberately NOT
  /// serialized into checkpoints, so a resumed run re-arms it explicitly.
  std::shared_ptr<const FaultPlan> fault_plan;
  /// What train() does when an injected kill aborts an epoch.
  FaultRecovery fault_recovery = FaultRecovery::kNone;

  // --- sampled-mode options ---
  SamplingConfig sampling;
};

/// Fluent constructor for every trainer kind.
class TrainerBuilder {
 public:
  explicit TrainerBuilder(const Dataset& dataset) : dataset_(&dataset) {}

  /// Replace the whole configuration record. (Does not count as an
  /// explicit override for resume() — use the individual setters to
  /// deviate from a checkpoint's configuration.)
  TrainerBuilder& config(TrainConfig cfg) {
    config_ = std::move(cfg);
    return *this;
  }

  TrainerBuilder& gcn(GcnConfig cfg) {
    config_.gcn = std::move(cfg);
    return *this;
  }
  /// Execution mode / distribution strategy by registry name. Fails fast:
  /// a name that is neither a registered strategy (canonical or alias) nor
  /// a built-in mode ("serial", "sampled") raises UnknownNameError HERE,
  /// at the call site, listing every registered choice — not at build().
  TrainerBuilder& strategy(std::string name);
  TrainerBuilder& ranks(int p, int c = 1) {
    config_.p = p;
    config_.c = c;
    set_.ranks = true;
    return *this;
  }
  /// Host thread-pool size (see TrainConfig::threads; 0 = leave as-is).
  TrainerBuilder& threads(int n) {
    config_.threads = n;
    set_.threads = true;
    return *this;
  }
  /// Fails fast like strategy(): unknown partitioner names raise
  /// UnknownNameError at this call, listing the registered choices.
  TrainerBuilder& partitioner(std::string name, PartitionerOptions opts = {});
  TrainerBuilder& cost_model(const CostModel& model) {
    config_.cost_model = model;
    set_.cost_model = true;
    return *this;
  }
  /// Column-chunk count for pipelined strategies (>= 1).
  TrainerBuilder& pipeline_chunks(int chunks) {
    config_.pipeline_chunks = chunks;
    set_.pipeline_chunks = true;
    return *this;
  }
  /// Arm periodic auto-checkpointing: train() snapshots to `path` every
  /// `every_epochs` completed epochs (atomic tmp-file + rename).
  TrainerBuilder& auto_checkpoint(std::string path, int every_epochs) {
    config_.auto_checkpoint_path = std::move(path);
    config_.auto_checkpoint_every = every_epochs;
    set_.auto_checkpoint = true;
    return *this;
  }
  /// Install a deterministic fault plan on the simulated cluster (shared,
  /// so the caller can keep a handle — e.g. to read kills_fired()).
  TrainerBuilder& fault_plan(std::shared_ptr<const FaultPlan> plan) {
    config_.fault_plan = std::move(plan);
    set_.fault = true;
    return *this;
  }
  /// Convenience: build the plan from a spec in place.
  TrainerBuilder& fault_plan(FaultSpec spec) {
    return fault_plan(FaultPlan::make(std::move(spec)));
  }
  /// Recovery policy for injected rank kills (see FaultRecovery).
  TrainerBuilder& fault_recovery(FaultRecovery mode) {
    config_.fault_recovery = mode;
    set_.fault = true;
    return *this;
  }
  TrainerBuilder& sampling(SamplingConfig cfg) {
    config_.sampling = std::move(cfg);
    return *this;
  }
  TrainerBuilder& epochs(int n) {
    config_.gcn.epochs = n;
    set_.epochs = true;
    return *this;
  }
  TrainerBuilder& learning_rate(real_t lr) {
    config_.gcn.learning_rate = lr;
    return *this;
  }

  /// Census-driven autotuning (docs/planner.md): take a census of the
  /// dataset, rank the candidate grid with plan_strategies(), and adopt
  /// the winner's (strategy, partitioner, p, c, pipeline_chunks) into this
  /// builder's configuration. Knobs already set on the builder PIN the
  /// corresponding search dimension and shrink the grid: strategy() and
  /// partitioner() restrict the registries to that one name, ranks(p, c)
  /// pins p (and c when >= 1), pipeline_chunks() pins K, cost_model() and
  /// gcn() feed the predictor. The ranked plan stays inspectable through
  /// plan(). A pinned strategy must be distributed — autotune() with
  /// "serial"/"sampled" raises Error; unknown names raise UnknownNameError
  /// already inside strategy()/partitioner().
  TrainerBuilder& autotune(PlannerOptions opts = {});

  /// The ranked plan of the last autotune() call (empty before).
  const Plan& plan() const { return plan_; }

  const TrainConfig& peek() const { return config_; }

  /// Instantiate the trainer. Unknown strategy or partitioner names raise
  /// std::invalid_argument listing the registered choices; geometry and
  /// dimension violations raise Error (as the per-mode constructors do).
  std::unique_ptr<Trainer> build() const;

  /// Reconstruct a trainer from a checkpoint written by Trainer::save()
  /// and continue the run bit-identically. The checkpoint's configuration
  /// is authoritative; knobs explicitly set on this builder override it:
  ///
  ///   * epochs(n)      — extend or shorten the remaining run,
  ///   * ranks(p', c')  — ELASTIC RESTART: the graph is re-partitioned for
  ///                      the new geometry and the replicated weights
  ///                      resume on p' ranks (c' = 0 keeps the
  ///                      checkpoint's replication factor),
  ///   * partitioner()/threads()/pipeline_chunks()/cost_model() — likewise;
  ///   * auto_checkpoint() — re-arms periodic snapshotting (the knob is
  ///                         never stored in checkpoints);
  ///   * fault_plan()/fault_recovery() — re-arms fault injection
  ///                         (likewise runtime-only, never stored).
  ///
  /// strategy() may be set but must match the checkpoint's strategy
  /// (changing the algorithm mid-run is a different experiment);
  /// a mismatch throws ckpt::CheckpointMismatchError. A checkpoint taken
  /// on a different dataset is rejected the same way. Damaged streams
  /// throw the typed errors of ckpt/errors.hpp.
  std::unique_ptr<Trainer> resume(std::istream& in) const;

 private:
  std::unique_ptr<Trainer> instantiate(TrainConfig cfg) const;

  const Dataset* dataset_;
  TrainConfig config_;
  Plan plan_;  ///< ranking of the last autotune() call
  /// Which knobs were explicitly set (resume() override tracking).
  struct {
    bool strategy = false;
    bool ranks = false;
    bool partitioner = false;
    bool threads = false;
    bool pipeline_chunks = false;
    bool epochs = false;
    bool cost_model = false;
    bool auto_checkpoint = false;
    bool fault = false;
  } set_;
};

}  // namespace sagnn
