// Training workloads. The untraced path times TrainerBuilder::build() and
// Trainer::run_epoch(); the traced path (TracedTrainer below) re-runs the
// same configuration through the public functions DistributedTrainer calls,
// in the same order, with a span around each call, and must reproduce the
// trainer's loss trajectory and per-phase traffic bit for bit.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "gnn/loss.hpp"
#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "partition/metrics.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/permute.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sagnn;

namespace {

struct TrainSpec {
  std::string name;
  std::string dataset;  ///< "amazon" | "reddit"
  DatasetScale scale;
  std::string strategy;
  std::string partitioner;
  int p = 1;
  int c = 1;
  int chunks = 4;
};

const TrainSpec kSpecs[] = {
    {"train-compute", "amazon", DatasetScale::kDefault, "1d-sparse", "gvb", 4, 1, 4},
    {"train-msgs", "reddit", DatasetScale::kSmall, "1d-sparse", "block", 64, 1, 4},
    {"train-1.5d", "amazon", DatasetScale::kDefault, "1.5d-overlap", "gvb", 64, 4, 4},
};

/// Epochs kept out of op_ms (reported as gnn.warmup_epoch_ms).
constexpr int kWarmupEpochs = 5;
/// Extra TrainerBuilder::build() calls spread over the measured window:
/// the host has slow spells of about a second, so set-ups timed back to
/// back all land in the same one. setup_s is the median of every build.
constexpr int kSetupSamples = 8;
/// Set-ups of the traced loop (per-layer set-up metrics are their median).
constexpr int kTracedSetupReps = 3;
/// Epochs of each traced run written to the trace file.
constexpr int kTraceFileEpochs = kWarmupEpochs + 10;

double ms(double seconds) { return seconds * 1e3; }

/// Per-epoch per-phase traffic exactly as DistributedTrainer::finalize()
/// computes TrainResult::phase_volumes.
std::map<std::string, PhaseVolume> phase_volumes(const TrafficRecorder& traffic,
                                                 int epochs) {
  std::map<std::string, PhaseVolume> out;
  const double inv_epochs = 1.0 / std::max(1, epochs);
  for (const auto& phase : traffic.phase_names()) {
    const std::string base = TrafficRecorder::base_name(phase);
    if (base == "sync" || base == "index_exchange" || out.count(base)) continue;
    const PhaseTraffic tr = traffic.phase_total(base);
    out[base] = {static_cast<double>(tr.total_bytes()) * inv_epochs / 1.0e6,
                 static_cast<double>(tr.total_msgs()) * inv_epochs};
  }
  return out;
}

bool same_volumes(const std::map<std::string, PhaseVolume>& a,
                  const std::map<std::string, PhaseVolume>& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, v] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.megabytes_per_epoch != v.megabytes_per_epoch ||
        it->second.messages_per_epoch != v.messages_per_epoch) {
      return false;
    }
  }
  return true;
}

/// The communication buckets of a modeled epoch (deterministic: they are
/// priced from recorded traffic only).
std::vector<double> comm_buckets(const EpochCost& c) {
  return {c.alltoall,         c.bcast,         c.allreduce,         c.other,
          c.alltoall_latency, c.bcast_latency, c.allreduce_latency, c.other_latency,
          c.alltoall_messages, c.alltoall_bytes};
}

/// DistributedTrainer's initialize() and run_epoch(), call for call, with
/// spans. Kept in the benchmark's own files so the program under test is
/// unchanged; the bitwise comparison against the real trainer proves the
/// two run the same program.
class TracedTrainer {
 public:
  TracedTrainer(const Dataset& ds, const TrainConfig& cfg, SpanLog& log)
      : cfg_(cfg), log_(log) {
    const int host = log_.host();
    job_strategy_ = strategy_registry().create(cfg_.strategy);
    const int n_blocks = job_strategy_->n_blocks(cfg_.p, cfg_.c);

    Partition partition;
    {
      Scope s(log_, host, -1, "partition", "partition");
      const auto partitioner =
          make_partitioner(cfg_.partitioner, cfg_.partitioner_options);
      partition = partitioner->partition(ds.adjacency, n_blocks);
    }
    partition_s = log_.track(host).back().wall;
    {
      Scope s(log_, host, -1, "volume_stats", "partition");
      volume = compute_volume_stats(ds.adjacency, partition);
    }
    std::vector<vid_t> perm;
    {
      Scope s(log_, host, -1, "permute", "sparse");
      perm = partition.relabel_permutation();
      a_ = permute_symmetric(ds.adjacency, perm);
      h0_ = permute_rows(ds.features, perm);
      labels_ = permute_labels(ds.labels, perm);
    }
    permute_s = log_.track(host).back().wall;
    mask_.assign(ds.train_mask.size(), 0);
    for (std::size_t v = 0; v < mask_.size(); ++v) {
      mask_[static_cast<std::size_t>(perm[v])] = ds.train_mask[v];
    }
    ranges_ = ranges_from_sizes(partition.part_sizes());
    original_id_ = invert_permutation(perm);
    total_train_ = std::count(mask_.begin(), mask_.end(), std::uint8_t{1});

    cluster_ = std::make_unique<Cluster>(cfg_.p, cfg_.fault_plan);
    states_.resize(static_cast<std::size_t>(cfg_.p));
    rank_cpu_.assign(static_cast<std::size_t>(cfg_.p), 0.0);
    std::vector<double> setup_wall(static_cast<std::size_t>(cfg_.p), 0.0);
    const StrategyContext ctx = context();
    cluster_->run([&](Comm& comm) {
      const int r = comm.rank();
      auto st = std::make_unique<RankState>();
      st->strategy = strategy_registry().create(cfg_.strategy);
      {
        Scope s(log_, r, -1, "strategy_setup", "dist");
        st->strategy->setup(comm, ctx);
      }
      setup_wall[static_cast<std::size_t>(r)] = log_.track(r).back().wall;
      const BlockRange range = st->strategy->my_range();
      st->h0_local = h0_.slice_rows(range.begin, range.end);
      st->labels_local.assign(labels_.begin() + range.begin,
                              labels_.begin() + range.end);
      st->mask_local.assign(mask_.begin() + range.begin, mask_.begin() + range.end);
      st->ids_local.assign(original_id_.begin() + range.begin,
                           original_id_.begin() + range.end);
      st->model = GcnModel(cfg_.gcn);
      states_[static_cast<std::size_t>(r)] = std::move(st);
    });
    dist_setup_s = *std::max_element(setup_wall.begin(), setup_wall.end());
    const PhaseTraffic ix = cluster_->traffic().phase("index_exchange");
    index_exchange_mb = static_cast<double>(ix.total_bytes()) / 1.0e6;
    index_exchange_msgs = static_cast<double>(ix.total_msgs());
  }

  EpochMetrics run_epoch() {
    const int e = static_cast<int>(epochs.size());
    EpochMetrics metrics;
    Scope epoch_span(log_, log_.host(), e, "epoch", "gnn");
    cluster_->run([&](Comm& comm) {
      const int r = comm.rank();
      Scope body(log_, r, e, "rank_body", "gnn");
      RankState& st = *states_[static_cast<std::size_t>(r)];
      st.strategy->begin_epoch();
      double* cpu = &rank_cpu_[static_cast<std::size_t>(r)];
      Comm& reduce_comm = st.strategy->reduce_comm();
      GcnModel& model = st.model;
      const GcnConfig& gcn = cfg_.gcn;

      Matrix h = st.h0_local;
      if (gcn.dropout > 0.0f) {
        Scope s(log_, r, e, "dropout", "dense");
        ThreadCpuTimer t_drop;
        dropout_rows_deterministic(
            h, gcn.dropout,
            gcn.seed ^ (0x9e37ull * (static_cast<std::uint64_t>(e) + 1)), st.ids_local);
        *cpu += t_drop.seconds();
      }
      for (int l = 0; l < model.n_layers(); ++l) {
        Matrix m;
        {
          Scope s(log_, r, e, "propagate_fwd", "dist");
          m = st.strategy->propagate_forward(h, &s.value());
          *cpu += s.value();
        }
        Scope s(log_, r, e, "layer_fwd", "dense");
        ThreadCpuTimer t;
        h = model.layer(l).forward(std::move(m));
        *cpu += t.seconds();
      }

      LossStats local;
      {
        Scope s(log_, r, e, "loss_stats", "gnn");
        local = softmax_xent_stats(h, st.labels_local, st.mask_local);
      }
      std::vector<double> triple{local.loss_sum, static_cast<double>(local.correct),
                                 static_cast<double>(local.count)};
      {
        Scope s(log_, r, e, "allreduce_loss", "simcomm");
        allreduce_sum<double>(reduce_comm, triple, "allreduce");
      }
      if (r == 0) {
        metrics = {triple[0] / std::max(1.0, triple[2]),
                   triple[2] > 0 ? triple[1] / triple[2] : 0.0};
      }

      Matrix d_h;
      {
        Scope s(log_, r, e, "loss_grad", "gnn");
        d_h = softmax_xent_grad(h, st.labels_local, st.mask_local, total_train_);
      }
      std::vector<Matrix> d_weights(static_cast<std::size_t>(model.n_layers()));
      for (int l = model.n_layers() - 1; l >= 0; --l) {
        GcnLayer::Backward back;
        {
          Scope s(log_, r, e, "layer_bwd", "dense");
          ThreadCpuTimer t;
          back = model.layer(l).backward(d_h);
          *cpu += t.seconds();
        }
        std::vector<real_t> flat{back.d_weights.data(),
                                 back.d_weights.data() + back.d_weights.size()};
        {
          Scope s(log_, r, e, "allreduce_grad", "simcomm");
          allreduce_sum<real_t>(reduce_comm, flat, "allreduce");
        }
        d_weights[static_cast<std::size_t>(l)] =
            Matrix(back.d_weights.n_rows(), back.d_weights.n_cols(), std::move(flat));
        if (l > 0) {
          Scope s(log_, r, e, "propagate_bwd", "dist");
          d_h = st.strategy->propagate_backward(back.d_m, &s.value());
          *cpu += s.value();
        }
      }
      Scope s(log_, r, e, "optimizer", "gnn");
      ThreadCpuTimer t;
      for (int l = 0; l < model.n_layers(); ++l) {
        model.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                      gcn.learning_rate, gcn.weight_decay);
      }
      *cpu += t.seconds();
    });
    epochs.push_back(metrics);
    return metrics;
  }

  /// Per-epoch traffic and modeled cost over the epochs run so far, as
  /// DistributedTrainer::finalize() derives them.
  std::map<std::string, PhaseVolume> volumes() const {
    return phase_volumes(cluster_->traffic(), static_cast<int>(epochs.size()));
  }
  EpochCost modeled_epoch() const {
    const int n = std::max(1, static_cast<int>(epochs.size()));
    return job_strategy_->epoch_cost(cfg_.cost_model, cluster_->traffic(), rank_cpu_,
                                     context(), n);
  }
  OverlapSample alltoall_overlap() const {
    return cluster_->traffic().overlap_total("alltoall");
  }
  eid_t nnz() const { return a_.nnz(); }

  // Set-up measurements (host wall seconds) and partition quality.
  double partition_s = 0;
  double permute_s = 0;
  double dist_setup_s = 0;  ///< bottleneck rank
  double index_exchange_mb = 0;
  double index_exchange_msgs = 0;
  VolumeStats volume;
  std::vector<EpochMetrics> epochs;

 private:
  struct RankState {
    std::unique_ptr<DistributionStrategy> strategy;
    Matrix h0_local;
    std::vector<vid_t> labels_local;
    std::vector<std::uint8_t> mask_local;
    std::vector<vid_t> ids_local;
    GcnModel model;
  };

  StrategyContext context() const {
    return {cfg_.p, cfg_.c, &a_, ranges_, cfg_.pipeline_chunks, cfg_.kernels};
  }

  TrainConfig cfg_;
  SpanLog& log_;
  CsrMatrix a_;
  Matrix h0_;
  std::vector<vid_t> labels_;
  std::vector<std::uint8_t> mask_;
  std::vector<vid_t> original_id_;
  std::vector<BlockRange> ranges_;
  std::int64_t total_train_ = 0;
  std::unique_ptr<DistributionStrategy> job_strategy_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<RankState>> states_;
  std::vector<double> rank_cpu_;
};

/// Per-rank sums of one epoch's spans.
struct RankEpoch {
  double propagate = 0, local_cpu = 0;
  double layer = 0, layer_cpu = 0;
  double loss = 0, loss_cpu = 0;
  double optimizer = 0, optimizer_cpu = 0;
  double allreduce = 0;
  double body = 0;
  double rank_cpu = 0;  ///< the trainer's per-rank CPU accounting
};

/// What the caller of derive_layers() needs beyond the metrics it sets.
struct Derived {
  double epoch_s = 0;      ///< median host wall of a traced epoch
  double local_cpu = 0;    ///< local-compute CPU seconds, all ranks and epochs
  double comm_host_s = 0;  ///< propagate_other + allreduce, bottleneck rank
};

/// Per-layer metrics of the steady epochs [first, end) of a traced run:
/// per epoch the bottleneck (max over ranks), then the median over epochs.
Derived derive_layers(const SpanLog& log, int p, int first, int end, Report& rep) {
  const int n = end - first;
  std::vector<RankEpoch> acc(static_cast<std::size_t>(n) * p);
  std::vector<double> epoch_wall(static_cast<std::size_t>(n), 0.0);
  for (const Span& s : log.tracks()[static_cast<std::size_t>(log.host())]) {
    if (s.step >= first && s.step < end) {
      epoch_wall[static_cast<std::size_t>(s.step - first)] = s.wall;
    }
  }
  for (int r = 0; r < p; ++r) {
    for (const Span& s : log.tracks()[static_cast<std::size_t>(r)]) {
      if (s.step < first || s.step >= end) continue;
      RankEpoch& a = acc[static_cast<std::size_t>(s.step - first) * p + r];
      const std::string name = s.name;
      if (name == "propagate_fwd" || name == "propagate_bwd") {
        a.propagate += s.wall;
        a.local_cpu += s.value;
        a.rank_cpu += s.value;
      } else if (name == "layer_fwd" || name == "layer_bwd") {
        a.layer += s.wall;
        a.layer_cpu += s.cpu;
        a.rank_cpu += s.cpu;
      } else if (name == "loss_stats" || name == "loss_grad") {
        a.loss += s.wall;
        a.loss_cpu += s.cpu;
      } else if (name == "optimizer") {
        a.optimizer += s.wall;
        a.optimizer_cpu += s.cpu;
        a.rank_cpu += s.cpu;
      } else if (name == "dropout") {
        a.rank_cpu += s.cpu;
      } else if (name == "allreduce_loss" || name == "allreduce_grad") {
        a.allreduce += s.wall;
      } else if (name == "rank_body") {
        a.body = s.wall;
      }
    }
  }
  // Median over epochs of a per-epoch reduction over ranks.
  auto per_epoch = [&](auto reduce) {
    std::vector<double> v;
    for (int e = 0; e < n; ++e) {
      v.push_back(reduce(e, &acc[static_cast<std::size_t>(e) * p]));
    }
    return median(v);
  };
  auto bottleneck = [&](auto field) {
    return per_epoch([&](int, const RankEpoch* ranks) {
      double m = 0;
      for (int r = 0; r < p; ++r) m = std::max(m, field(ranks[r]));
      return m;
    });
  };
  auto set_bottleneck_ms = [&](const char* name, double RankEpoch::*field) {
    const double v = bottleneck([&](const RankEpoch& a) { return a.*field; });
    rep.set(name, ms(v), "ms");
    return v;
  };
  const double other =
      bottleneck([](const RankEpoch& a) { return a.propagate - a.local_cpu; });
  rep.set("dist.propagate_other_ms", ms(other), "ms");
  const double allreduce =
      set_bottleneck_ms("simcomm.allreduce_ms", &RankEpoch::allreduce);
  set_bottleneck_ms("dist.propagate_ms", &RankEpoch::propagate);
  set_bottleneck_ms("dist.local_compute_ms", &RankEpoch::local_cpu);
  set_bottleneck_ms("dense.layer_ms", &RankEpoch::layer);
  set_bottleneck_ms("dense.layer_cpu_ms", &RankEpoch::layer_cpu);
  set_bottleneck_ms("gnn.loss_ms", &RankEpoch::loss);
  set_bottleneck_ms("gnn.loss_cpu_ms", &RankEpoch::loss_cpu);
  set_bottleneck_ms("gnn.optimizer_ms", &RankEpoch::optimizer);
  set_bottleneck_ms("gnn.optimizer_cpu_ms", &RankEpoch::optimizer_cpu);
  set_bottleneck_ms("gnn.rank_cpu_ms_max", &RankEpoch::rank_cpu);
  rep.set("gnn.rank_cpu_ms_mean", ms(per_epoch([&](int, const RankEpoch* ranks) {
            double sum = 0;
            for (int r = 0; r < p; ++r) sum += ranks[r].rank_cpu;
            return sum / p;
          })),
          "ms");
  rep.set("simcomm.round_ms", ms(per_epoch([&](int e, const RankEpoch* ranks) {
            double slowest = 0;
            for (int r = 0; r < p; ++r) slowest = std::max(slowest, ranks[r].body);
            return epoch_wall[static_cast<std::size_t>(e)] - slowest;
          })),
          "ms");
  rep.set("simcomm.rank_skew", per_epoch([&](int, const RankEpoch* ranks) {
            double lo = ranks[0].body, hi = ranks[0].body;
            for (int r = 1; r < p; ++r) {
              lo = std::min(lo, ranks[r].body);
              hi = std::max(hi, ranks[r].body);
            }
            return lo > 0 ? hi / lo : 0.0;
          }),
          "ratio");
  Derived d;
  d.epoch_s = median(epoch_wall);
  for (const RankEpoch& a : acc) d.local_cpu += a.local_cpu;
  d.comm_host_s = other + allreduce;
  return d;
}

/// The recipe's own graph for every workload seed: the partitioners' time
/// differed 1.6x between graphs drawn from different seeds, which would
/// make setup_s depend on the seeds a set of runs happened to draw. The
/// seed feeds the GCN initialization.
Dataset make_input(const TrainSpec& spec) {
  return spec.dataset == "amazon" ? make_amazon_sim(spec.scale)
                                  : make_reddit_sim(spec.scale);
}

TrainConfig make_config(const TrainSpec& spec, const Dataset& ds, std::uint64_t seed) {
  TrainConfig cfg;
  // The epoch budget is the run's --seconds; run_epoch() stepping ignores it.
  cfg.gcn = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, 1 << 30);
  cfg.gcn.seed = derive_seed(seed, 2);
  cfg.strategy = spec.strategy;
  cfg.threads = host_threads();
  cfg.p = spec.p;
  cfg.c = spec.c;
  cfg.partitioner = spec.partitioner;
  cfg.pipeline_chunks = spec.chunks;
  cfg.cost_model.volume_scale = ds.sim_scale;
  return cfg;
}

bool same_metrics(const EpochMetrics& a, const EpochMetrics& b) {
  return a.loss == b.loss && a.train_accuracy == b.train_accuracy;
}

}  // namespace

bool run_training(const Options& opt, Report& rep) {
  const TrainSpec* spec = nullptr;
  for (const TrainSpec& s : kSpecs) {
    if (s.name == opt.workload) spec = &s;
  }
  if (spec == nullptr) return false;

  const Dataset ds = make_input(*spec);
  const TrainConfig cfg = make_config(*spec, ds, opt.seed);
  set_parallel_threads(cfg.threads);
  std::cout << "dataset " << ds.name << ": n=" << ds.n_vertices()
            << " nnz=" << ds.n_edges() << " f=" << ds.n_features() << "; "
            << spec->strategy << " " << spec->partitioner << " p=" << spec->p
            << " c=" << spec->c << " threads=" << cfg.threads << "\n";
  CountGuard guard;

  std::vector<double> setup_s;
  auto build = [&] {
    WallTimer t;
    auto built = TrainerBuilder(ds).config(cfg).build();
    setup_s.push_back(t.seconds());
    return built;
  };
  std::unique_ptr<Trainer> trainer = build();

  // Warm-up epochs: timed, kept out of op_ms.
  std::vector<EpochMetrics> trajectory;
  std::vector<double> warmup_s;
  for (int e = 0; e < kWarmupEpochs; ++e) {
    WallTimer t;
    trajectory.push_back(trainer->run_epoch());
    warmup_s.push_back(t.seconds());
  }
  // Peak memory of one warmed-up trainer, taken before the reference
  // trainers below and the extra set-ups coexist with it.
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");

  // The serial reference prefix (the repository's serial-parity contract)
  // and a second build, which must train its first epoch bitwise alike.
  std::vector<EpochMetrics> serial;
  {
    auto reference =
        TrainerBuilder(ds).strategy("serial").threads(cfg.threads).gcn(cfg.gcn).build();
    for (int e = 0; e < kWarmupEpochs; ++e) serial.push_back(reference->run_epoch());
  }
  rep.check(same_metrics(build()->run_epoch(), trajectory.front()),
            "two builds of one configuration trained different first epochs");
  for (int e = 0; e < kWarmupEpochs; ++e) {
    const EpochMetrics& d = trajectory[static_cast<std::size_t>(e)];
    const EpochMetrics& s = serial[static_cast<std::size_t>(e)];
    rep.check(std::abs(d.loss - s.loss) <= 5e-3 * std::max(1.0, s.loss) &&
                  std::abs(d.train_accuracy - s.train_accuracy) <= 0.02,
              "epoch " + std::to_string(e) + " loss " + std::to_string(d.loss) +
                  " departs from serial " + std::to_string(s.loss));
  }
  const TrainResult& warm = trainer->result();
  const std::vector<std::uint64_t> pair_rows = warm.volume_model.pair_rows;
  for (int e = 0; e < kWarmupEpochs; ++e) {
    guard.put("loss.e" + std::to_string(e),
              trajectory[static_cast<std::size_t>(e)].loss);
  }
  guard.put("partition.edgecut", static_cast<double>(warm.volume_model.edgecut));
  guard.put("dist.index_exchange_mb", warm.setup_megabytes);
  for (const auto& [phase, v] : warm.phase_volumes) {
    guard.put("traffic." + phase + ".mb", v.megabytes_per_epoch);
    guard.put("traffic." + phase + ".msgs", v.messages_per_epoch);
  }
  const std::vector<double> comm = comm_buckets(warm.modeled_epoch);
  for (std::size_t i = 0; i < comm.size(); ++i) {
    guard.put("model.comm." + std::to_string(i), comm[i]);
  }

  // Measured epochs, with the extra set-ups spread between them.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> epoch_s;
  WallTimer window;
  int setups_done = 0;
  while (window.seconds() < budget || epoch_s.size() < 20) {
    if (setups_done < kSetupSamples &&
        window.seconds() >= budget * (setups_done + 0.5) / kSetupSamples) {
      ++setups_done;
      rep.check(build()->result().volume_model.pair_rows == pair_rows,
                "two builds of one configuration partitioned differently");
      continue;
    }
    WallTimer t;
    const EpochMetrics m = trainer->run_epoch();
    epoch_s.push_back(t.seconds());
    trajectory.push_back(m);
    rep.check(std::isfinite(m.loss), "epoch " + std::to_string(trajectory.size()) +
                                         " loss is not finite");
  }
  double busy = 0;
  for (double s : epoch_s) busy += s;
  const Tail tl = tail(epoch_s);
  rep.set("op_ms", ms(median(epoch_s)), "ms");
  rep.set("ops_per_s", static_cast<double>(epoch_s.size()) / busy, "1/s");
  rep.set("setup_s", median(setup_s), "s");
  rep.set("gnn.warmup_epoch_ms", ms(median(warmup_s)), "ms");
  std::cout << "op = one training epoch: " << epoch_s.size()
            << " measured epochs after " << kWarmupEpochs << " warm-up, "
            << setup_s.size() << " set-ups\n"
            << "op_ms_tail p" << tl.percentile << " = " << ms(tl.value)
            << " ms (host wall, not gated)\n";

  if (opt.trace) {
    const TrainResult untraced = trainer->result();
    const int epochs = static_cast<int>(trajectory.size());
    trainer.reset();

    // Traced set-up, repeated like the untraced one; the last one trains.
    SpanLog log(cfg.p);
    std::vector<double> partition_s, permute_s, dist_setup_s;
    std::unique_ptr<TracedTrainer> traced;
    for (int i = 0; i < kTracedSetupReps; ++i) {
      SpanLog scratch(cfg.p);
      const bool last = i + 1 == kTracedSetupReps;
      traced = std::make_unique<TracedTrainer>(ds, cfg, last ? log : scratch);
      partition_s.push_back(traced->partition_s);
      permute_s.push_back(traced->permute_s);
      dist_setup_s.push_back(traced->dist_setup_s);
      if (!last) traced.reset();  // it refers to `scratch`
    }
    for (int r = 0; r <= cfg.p; ++r) {
      const std::size_t per_epoch = r == cfg.p ? 1 : 24;
      log.track(r).reserve(static_cast<std::size_t>(epochs) * per_epoch + 8);
    }
    for (int e = 0; e < epochs; ++e) traced->run_epoch();

    // The traced loop must be the trainer's program, bit for bit.
    bool same = traced->epochs.size() == untraced.epochs.size();
    for (std::size_t e = 0; same && e < traced->epochs.size(); ++e) {
      same = same_metrics(traced->epochs[e], untraced.epochs[e]);
    }
    rep.check(same, "traced loop departs from the trainer's loss trajectory");
    const auto volumes = traced->volumes();
    rep.check(same_volumes(volumes, untraced.phase_volumes),
              "traced loop departs from the trainer's per-phase traffic");
    const EpochCost modeled = traced->modeled_epoch();
    rep.check(comm_buckets(modeled) == comm_buckets(untraced.modeled_epoch),
              "traced loop departs from the trainer's modeled communication");
    rep.check(traced->volume.edgecut == untraced.volume_model.edgecut &&
                  traced->index_exchange_mb == untraced.setup_megabytes,
              "traced set-up departs from the trainer's partition or index exchange");
    guard.put("dist.index_exchange_msgs", traced->index_exchange_msgs);

    const Derived d = derive_layers(log, cfg.p, kWarmupEpochs, epochs, rep);
    rep.set("partition.partition_s", median(partition_s), "s");
    rep.set("sparse.permute_s", median(permute_s), "s");
    rep.set("partition.edgecut", static_cast<double>(traced->volume.edgecut), "count");
    rep.set("partition.send_imbalance_pct", traced->volume.send_imbalance_percent(),
            "%");
    rep.set("dist.setup_s", median(dist_setup_s), "s");
    rep.set("dist.index_exchange_mb", traced->index_exchange_mb, "MB");
    rep.set("dist.index_exchange_msgs", traced->index_exchange_msgs, "count");

    double width_sum = 0;
    for (vid_t w : propagate_widths(cfg.gcn.dims)) width_sum += static_cast<double>(w);
    const double madds = static_cast<double>(traced->nnz()) * width_sum *
                         static_cast<double>(epochs - kWarmupEpochs);
    rep.set("dist.local_madds_per_s", d.local_cpu > 0 ? madds / d.local_cpu : 0.0,
            "1/s");

    double msgs = 0, other_msgs = 0, other_mb = 0;
    for (const auto& [phase, v] : volumes) {
      msgs += v.messages_per_epoch;
      if (phase != "alltoall" && phase != "allreduce") {
        other_msgs += v.messages_per_epoch;
        other_mb += v.megabytes_per_epoch;
      }
    }
    auto volume = [&](const std::string& phase) {
      const auto it = volumes.find(phase);
      return it == volumes.end() ? PhaseVolume{} : it->second;
    };
    rep.set("simcomm.alltoall_msgs", volume("alltoall").messages_per_epoch, "count");
    rep.set("simcomm.alltoall_mb", volume("alltoall").megabytes_per_epoch, "MB");
    rep.set("simcomm.allreduce_msgs", volume("allreduce").messages_per_epoch, "count");
    rep.set("simcomm.allreduce_mb", volume("allreduce").megabytes_per_epoch, "MB");
    rep.set("simcomm.other_msgs", other_msgs, "count");
    rep.set("simcomm.other_mb", other_mb, "MB");
    rep.set("simcomm.msgs_per_epoch", msgs, "count");
    // Host time the simulator spends per message, over all messages of an
    // epoch (its base, simcomm.msgs_per_epoch).
    rep.set("simcomm.us_per_msg", msgs > 0 ? d.comm_host_s * 1e6 / msgs : 0.0, "us");
    const OverlapSample overlap = traced->alltoall_overlap();
    rep.set("simcomm.overlap_hidden_frac", overlap.fraction(), "ratio");
    rep.set("simcomm.wait_blocked_ms", ms(overlap.blocked / (epochs * cfg.p)), "ms");
    rep.set("model.comm_ms", ms(untraced.modeled_epoch.comm()), "ms");
    rep.set("model.compute_ms", ms(untraced.modeled_epoch.compute), "ms");

    const double untraced_epoch_s = median(epoch_s);
    rep.set("trace.overhead_pct",
            100.0 * (d.epoch_s - untraced_epoch_s) / untraced_epoch_s, "%");
    if (!opt.trace_file.empty()) {
      log.write_chrome_trace(opt.trace_file, kTraceFileEpochs);
    }
  }

  trainer.reset();
  if (spec->name == "train-compute") run_serving_phase(ds, opt, rep, guard);
  guard.settle(opt.counts_file, rep);
  return true;
}

}  // namespace perfbench
