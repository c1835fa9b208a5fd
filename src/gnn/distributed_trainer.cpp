#include "gnn/distributed_trainer.hpp"

#include <algorithm>
#include <fstream>

#include "ckpt/state_io.hpp"
#include "common/timer.hpp"
#include "gnn/loss.hpp"
#include "sparse/permute.hpp"

namespace sagnn {

/// Everything one simulated rank keeps alive between epochs. The strategy
/// holds its communicators by value, so the state stays valid across
/// successive Cluster::run() invocations.
struct DistributedTrainer::RankState {
  std::unique_ptr<DistributionStrategy> strategy;
  Matrix h0_local;
  std::vector<vid_t> labels_local;
  std::vector<std::uint8_t> mask_local;
  /// Original vertex id of each permuted local row: dropout masks key on
  /// the ORIGINAL identity so they match serial training exactly.
  std::vector<vid_t> ids_local;
  GcnModel model;  ///< same seed -> identical weights on all ranks
};

DistributedTrainer::DistributedTrainer(const Dataset& dataset, TrainConfig config)
    : Trainer(dataset, std::move(config)) {
  initialize();
}

void DistributedTrainer::initialize() {
  SAGNN_REQUIRE(config_.p >= 1, "need at least one rank");
  job_strategy_ = strategy_registry().create(config_.strategy);
  const int n_blocks = job_strategy_->n_blocks(config_.p, config_.c);
  SAGNN_REQUIRE(config_.gcn.dims.front() == dataset_.n_features() &&
                    config_.gcn.dims.back() == dataset_.n_classes,
                "GCN dims must match the dataset");

  // ---- Partition & permute (one-time preprocessing, paper §6.3.1). ----
  WallTimer part_timer;
  const auto partitioner =
      make_partitioner(config_.partitioner, config_.partitioner_options);
  const Partition partition = partitioner->partition(dataset_.adjacency, n_blocks);
  result_.partition_wall_seconds = part_timer.seconds();
  result_.volume_model = compute_volume_stats(dataset_.adjacency, partition);

  const auto perm = partition.relabel_permutation();
  a_ = permute_symmetric(dataset_.adjacency, perm);
  h0_ = permute_rows(dataset_.features, perm);
  labels_ = permute_labels(dataset_.labels, perm);
  mask_.assign(dataset_.train_mask.size(), 0);
  for (std::size_t v = 0; v < mask_.size(); ++v) {
    mask_[static_cast<std::size_t>(perm[v])] = dataset_.train_mask[v];
  }
  ranges_ = ranges_from_sizes(partition.part_sizes());
  original_id_ = invert_permutation(perm);
  total_train_ = std::count(mask_.begin(), mask_.end(), std::uint8_t{1});
  SAGNN_REQUIRE(total_train_ > 0, "dataset has no training vertices");

  // ---- Cluster + per-rank strategy setup. ----
  // Destruction order matters on re-initialization: the old RankStates
  // hold communicators into the old world, so they go first.
  states_.clear();
  cluster_ = std::make_unique<Cluster>(config_.p, config_.fault_plan);
  states_.resize(static_cast<std::size_t>(config_.p));
  rank_cpu_seconds_.assign(static_cast<std::size_t>(config_.p), 0.0);
  const StrategyContext ctx = context();
  cluster_->run([&](Comm& comm) {
    auto st = std::make_unique<RankState>();
    st->strategy = strategy_registry().create(config_.strategy);
    st->strategy->setup(comm, ctx);
    const BlockRange range = st->strategy->my_range();
    st->h0_local = h0_.slice_rows(range.begin, range.end);
    st->labels_local.assign(labels_.begin() + range.begin,
                            labels_.begin() + range.end);
    st->mask_local.assign(mask_.begin() + range.begin, mask_.begin() + range.end);
    st->ids_local.assign(original_id_.begin() + range.begin,
                         original_id_.begin() + range.end);
    st->model = GcnModel(config_.gcn);
    states_[static_cast<std::size_t>(comm.rank())] = std::move(st);
  });
  result_.setup_megabytes =
      static_cast<double>(
          cluster_->traffic().phase("index_exchange").total_bytes()) /
      1.0e6;
}

DistributedTrainer::~DistributedTrainer() = default;

std::string DistributedTrainer::name() const {
  return job_strategy_->name() + "+" + config_.partitioner + "@p=" +
         std::to_string(config_.p) +
         (config_.c > 1 ? ",c=" + std::to_string(config_.c) : "");
}

EpochMetrics DistributedTrainer::run_epoch() {
  const int e = epochs_run();
  EpochMetrics metrics;
  // Arm scheduled kills for this epoch (single-threaded: no rank is inside
  // the world between cluster rounds). Setup traffic above ran kill-free.
  if (config_.fault_plan != nullptr) cluster_->world().begin_fault_epoch(e);
  cluster_->run([&](Comm& comm) {
    // Epoch-boundary kill check (KillSpec::after_sends == 0 fires here,
    // before any work of the epoch).
    if (config_.fault_plan != nullptr) comm.world().poll_fault(comm.rank());
    RankState& st = *states_[static_cast<std::size_t>(comm.rank())];
    // Cross-layer pipelined strategies reset their epoch-wide stage
    // cursor here, so every epoch tags the same stage sequence.
    st.strategy->begin_epoch();
    double* cpu = &rank_cpu_seconds_[static_cast<std::size_t>(comm.rank())];
    Comm& reduce_comm = st.strategy->reduce_comm();
    GcnModel& model = st.model;
    const GcnConfig& gcn = config_.gcn;

    // Forward. Input dropout masks are a pure function of
    // (seed, epoch, ORIGINAL row id), so they agree with serial training
    // and across replicas of the same block row.
    Matrix h = st.h0_local;
    if (gcn.dropout > 0.0f) {
      ThreadCpuTimer t_drop;
      dropout_rows_deterministic(
          h, gcn.dropout,
          gcn.seed ^ (0x9e37ull * (static_cast<std::uint64_t>(e) + 1)),
          st.ids_local);
      *cpu += t_drop.seconds();
    }
    for (int l = 0; l < model.n_layers(); ++l) {
      Matrix m = st.strategy->propagate_forward(h, cpu);
      ThreadCpuTimer t;
      h = model.layer(l).forward(std::move(m));
      *cpu += t.seconds();
    }

    // Global loss statistics (tiny all-reduce; lower-order term).
    const LossStats local = softmax_xent_stats(h, st.labels_local, st.mask_local);
    std::vector<double> triple{local.loss_sum,
                               static_cast<double>(local.correct),
                               static_cast<double>(local.count)};
    allreduce_sum<double>(reduce_comm, triple, "allreduce");
    if (comm.rank() == 0) {
      metrics = {triple[0] / std::max(1.0, triple[2]),
                 triple[2] > 0 ? triple[1] / triple[2] : 0.0};
    }

    // Backward.
    Matrix d_h = softmax_xent_grad(h, st.labels_local, st.mask_local, total_train_);
    std::vector<Matrix> d_weights(static_cast<std::size_t>(model.n_layers()));
    for (int l = model.n_layers() - 1; l >= 0; --l) {
      ThreadCpuTimer t;
      auto back = model.layer(l).backward(d_h);
      *cpu += t.seconds();
      // dW = M^T dZ summed over the disjoint block rows.
      std::vector<real_t> flat{back.d_weights.data(),
                               back.d_weights.data() + back.d_weights.size()};
      allreduce_sum<real_t>(reduce_comm, flat, "allreduce");
      d_weights[static_cast<std::size_t>(l)] = Matrix(
          back.d_weights.n_rows(), back.d_weights.n_cols(), std::move(flat));
      if (l > 0) d_h = st.strategy->propagate_backward(back.d_m, cpu);
    }
    ThreadCpuTimer t;
    for (int l = 0; l < model.n_layers(); ++l) {
      model.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                    gcn.learning_rate, gcn.weight_decay);
    }
    *cpu += t.seconds();
  });
  epochs_.push_back(metrics);
  return metrics;
}

const GcnModel& DistributedTrainer::model() const {
  return states_.front()->model;
}

GcnModel& DistributedTrainer::restored_model() {
  return states_.front()->model;
}

void DistributedTrainer::save(std::ostream& out) {
  // The weights are replicated by construction (same init seed, identical
  // all-reduced gradients); verify before writing one copy, so a snapshot
  // can never launder a replication bug into a "successful" restore.
  const GcnModel& reference = model();
  for (const auto& st : states_) {
    for (int l = 0; l < reference.n_layers(); ++l) {
      SAGNN_CHECK(st->model.layer(l).weights() == reference.layer(l).weights());
    }
  }
  Trainer::save(out);
}

void DistributedTrainer::save_sections(ckpt::Serializer& s) {
  s.begin_section("traffic");
  ckpt::write_traffic(s, cluster_->traffic());
  s.end_section();
  s.begin_section("rank_cpu");
  s.write_vector(rank_cpu_seconds_,
                 [](ckpt::Serializer& x, double v) { x.write_f64(v); });
  s.end_section();
  // Epochs NOT covered by the recorder (nonzero iff this run itself began
  // as an elastic restart) — a later same-geometry resume must keep
  // dividing traffic by the epochs it actually covers.
  s.begin_section("traffic_base");
  s.write_i32(traffic_epoch_base_);
  s.end_section();
}

void DistributedTrainer::restore_sections(ckpt::Deserializer& d,
                                          const TrainConfig& saved) {
  // restore() loaded the replicated weights into rank 0's model; copy them
  // to every other rank. The constructor already partitioned the (possibly
  // new) geometry and ran setup, so this is pure state injection — no
  // cluster round needed.
  for (std::size_t r = 1; r < states_.size(); ++r) {
    states_[r]->model = states_.front()->model;
  }

  d.enter_section("traffic");
  TrafficRecorder saved_traffic = ckpt::read_traffic(d);
  d.leave_section();
  d.enter_section("rank_cpu");
  auto saved_cpu = d.read_vector<double>(
      [](ckpt::Deserializer& x) { return x.read_f64(); });
  d.leave_section();
  if (saved_traffic.p() != saved.p) {
    throw ckpt::CheckpointFormatError(
        "section 'traffic': recorded for p=" +
        std::to_string(saved_traffic.p()) +
        " but the checkpoint config says p=" + std::to_string(saved.p));
  }
  if (saved_cpu.size() != static_cast<std::size_t>(saved_traffic.p())) {
    throw ckpt::CheckpointFormatError(
        "section 'rank_cpu': " + std::to_string(saved_cpu.size()) +
        " entries for a " + std::to_string(saved_traffic.p()) +
        "-rank snapshot");
  }
  d.enter_section("traffic_base");
  const int saved_traffic_base = d.read_i32();
  d.leave_section();
  if (saved_traffic_base < 0 || saved_traffic_base > epochs_run()) {
    throw ckpt::CheckpointFormatError(
        "section 'traffic_base': base " + std::to_string(saved_traffic_base) +
        " outside [0, " + std::to_string(epochs_run()) + "]");
  }

  // "Same geometry" means the full communication-relevant configuration,
  // not just the rank count: a changed c, partitioner (different
  // permutation and halos), or pipeline chunking (different stage tags)
  // makes the snapshot's history incomparable even at equal p.
  const bool same_comm_config =
      saved.p == config_.p && saved.c == config_.c &&
      saved.partitioner == config_.partitioner &&
      saved.partitioner_options == config_.partitioner_options &&
      saved.pipeline_chunks == config_.pipeline_chunks;
  if (same_comm_config) {
    // Adopt the snapshot's full communication history (which includes the
    // one-time index exchange this constructor just re-recorded
    // identically), so per-epoch averages continue exactly as in an
    // uninterrupted run. The snapshot's own base carries over: it is
    // nonzero when that run had itself elastically restarted.
    cluster_->traffic() = saved_traffic;
    rank_cpu_seconds_ = std::move(saved_cpu);
    traffic_epoch_base_ = saved_traffic_base;
  } else {
    // Elastic restart: the old geometry's (src, dst) counters are
    // meaningless under the new layout. Keep the fresh recorder (it
    // already holds the new index exchange) and restart per-epoch
    // accounting here.
    traffic_epoch_base_ = epochs_run();
  }
  finalized_epochs_ = -1;
}

void DistributedTrainer::recover_from_kill(const RankKilledError& kill) {
  WallTimer timer;
  ++recovery_.kills;
  // The aborted world's recorder dies with the cluster; bank its fault
  // counters first (the snapshot we restore holds none — they are
  // runtime-only).
  faults_before_recovery_ += cluster_->traffic().fault_counters();
  const int epochs_done_before = epochs_run();

  if (kill.permanent()) {
    SAGNN_REQUIRE(config_.p > 1,
                  "permanent kill of the last remaining rank is unsurvivable");
    config_.p = config_.p - 1;
    ++recovery_.elastic_restarts;
  }

  const std::string& path = auto_checkpoint_path();
  std::ifstream snapshot;
  if (!path.empty()) snapshot.open(path, std::ios::binary);

  // Everything the kill poisoned — the aborted world, its mailboxes, and
  // rank state possibly mid-gradient — is rebuilt from scratch for the
  // (possibly reduced) geometry...
  initialize();

  if (snapshot.is_open() && snapshot.good()) {
    // ...then the last complete snapshot is injected, exactly the
    // TrainerBuilder::resume() flow. The auto-checkpoint's tmp+rename
    // atomicity guarantees this file is never a torn write.
    ckpt::Deserializer d(snapshot);
    const ckpt::Prologue prologue = ckpt::read_prologue(d);
    prologue.dataset.require_matches(dataset_);
    restore(d, prologue.config);
    d.finish();
    ++recovery_.restores;
  } else {
    // Killed before the first auto-checkpoint (or none armed): cold
    // restart — replay the whole run from epoch 0. Deterministic kernels
    // and one-shot kills make the replayed trajectory identical.
    epochs_.clear();
    traffic_epoch_base_ = 0;
    finalized_epochs_ = -1;
    ++recovery_.cold_restarts;
  }
  recovery_.replayed_epochs += epochs_done_before - epochs_run();
  recovery_.recovery_seconds += timer.seconds();
}

const TrainResult& DistributedTrainer::result() {
  finalize();
  return result_;
}

void DistributedTrainer::finalize() {
  if (finalized_epochs_ == epochs_run()) return;
  finalized_epochs_ = epochs_run();
  // Every per-epoch average below divides by the COMPLETED epoch count
  // (== result_.epochs.size()), so a run stopped early via run_epoch()
  // stepping reports consistently. After an elastic restore the recorder
  // only holds post-restart traffic, so averages divide by the epochs it
  // actually covers (epochs_run() - traffic_epoch_base_).
  result_.epochs = epochs_;

  const TrafficRecorder traffic = cluster_->traffic();  // snapshot
  const int traffic_epochs = std::max(1, epochs_run() - traffic_epoch_base_);
  const double inv_epochs = 1.0 / traffic_epochs;

  // Per-epoch traffic: everything except setup and barriers, averaged.
  // Stage-tagged phases ("alltoall#k") aggregate under their base name;
  // the deepest stage count is the pipeline depth the run used.
  result_.phase_volumes.clear();
  result_.pipeline_stages = 1;
  for (const auto& phase : traffic.phase_names()) {
    const std::string base = TrafficRecorder::base_name(phase);
    if (base == "sync" || base == "index_exchange") continue;
    if (result_.phase_volumes.count(base)) continue;  // base seen already
    const PhaseTraffic tr = traffic.phase_total(base);
    result_.phase_volumes[base] = {
        static_cast<double>(tr.total_bytes()) * inv_epochs / 1.0e6,
        static_cast<double>(tr.total_msgs()) * inv_epochs};
    result_.pipeline_stages =
        std::max(result_.pipeline_stages, traffic.stage_count(base));
  }

  const StrategyContext ctx = context();
  result_.modeled_epoch =
      job_strategy_->epoch_cost(config_.cost_model, traffic, rank_cpu_seconds_,
                                ctx, traffic_epochs);
  result_.alltoall_overlap = traffic.overlap_total("alltoall");

  // Fault/recovery surfacing: counters accumulate across clusters torn
  // down by kill recovery plus the live recorder.
  result_.faults = faults_before_recovery_;
  result_.faults += traffic.fault_counters();
  result_.recovery = recovery_;
  result_.recovery.last_save_seconds = last_auto_save_seconds();
  result_.recovery.snapshot_bytes = last_auto_snapshot_bytes();
}

}  // namespace sagnn
