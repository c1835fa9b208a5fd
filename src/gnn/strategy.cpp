#include "gnn/strategy.hpp"

#include <algorithm>

#include "plan/census.hpp"

namespace sagnn {

StrategyRegistry& strategy_registry() {
  static StrategyRegistry registry("distribution strategy");
  return registry;
}

std::vector<double> DistributionStrategy::smooth_rank_cpu(
    const StrategyContext& ctx, std::span<const double> measured) const {
  // The kernels are measured with per-thread CPU clocks, but with many
  // rank fibers folded onto few cores the per-rank split is noisy
  // (cache and scheduler effects). Compute work is nnz-dominated and
  // exactly proportional to each rank's share of the matrix, so keep the
  // MEASURED total and redistribute it in proportion to rank_work(). This
  // preserves the partitioner-induced compute imbalance the paper
  // discusses (§7.1.1) without scheduling noise.
  double total_cpu = 0;
  for (double s : measured) total_cpu += s;
  const std::vector<double> work = rank_work(ctx);
  SAGNN_CHECK(static_cast<int>(work.size()) == ctx.p);
  double total_work = 0;
  for (double w : work) total_work += w;
  std::vector<double> smoothed(static_cast<std::size_t>(ctx.p), 0.0);
  for (int r = 0; r < ctx.p; ++r) {
    smoothed[static_cast<std::size_t>(r)] =
        total_work > 0 ? total_cpu * work[static_cast<std::size_t>(r)] / total_work
                       : total_cpu / ctx.p;
  }
  return smoothed;
}

EpochCost DistributionStrategy::epoch_cost(const CostModel& model,
                                           const TrafficRecorder& traffic,
                                           std::span<const double> rank_cpu_seconds,
                                           const StrategyContext& ctx,
                                           int epochs) const {
  const std::vector<double> smoothed = smooth_rank_cpu(ctx, rank_cpu_seconds);

  // The alpha-beta model is linear in byte and message counts and every
  // epoch's traffic is identical, so one epoch costs the whole run divided
  // by the epoch count. The one-time index exchange is excluded during
  // assembly (like "sync"), so the per-epoch `other` bucket is exact — no
  // subtract-and-clamp that could silently absorb accounting drift.
  const double inv_epochs = 1.0 / std::max(1, epochs);
  EpochCost all = sagnn::epoch_cost(model, traffic, smoothed, {"index_exchange"});
  all.scale(inv_epochs);
  return all;
}

PredictedCost DistributionStrategy::predict_cost(const PredictInput&) const {
  PredictedCost out;
  out.note = name() + " does not implement predict_cost()";
  return out;
}

// ---- CostEstimator -------------------------------------------------------

double CostEstimator::alpha_spread(int group, int stride) const {
  if (group <= 1) return m_.alpha_intra;
  // Of the group - 1 peers, those on the bottleneck rank's node are spaced
  // `stride` apart, so at most gpus_per_node / stride - 1 of them exist.
  const int per_node = std::max(1, m_.gpus_per_node / std::max(1, stride));
  const double intra =
      std::min<double>(group - 1, std::max(0, per_node - 1));
  const double frac = intra / static_cast<double>(group - 1);
  return frac * m_.alpha_intra + (1.0 - frac) * m_.alpha_inter;
}

double CostEstimator::beta_spread(int group, int stride) const {
  if (group <= 1) return m_.beta_intra;
  const int per_node = std::max(1, m_.gpus_per_node / std::max(1, stride));
  const double intra =
      std::min<double>(group - 1, std::max(0, per_node - 1));
  const double frac = intra / static_cast<double>(group - 1);
  return frac * m_.beta_intra + (1.0 - frac) * m_.beta_inter;
}

double CostEstimator::alpha_ring(int group, int stride) const {
  // Every ring message of the bottleneck rank goes to the SAME neighbor;
  // as soon as the ring spans a node boundary, that rank's link is
  // inter-node (the phase cost is a max over ranks).
  const bool spans = (group - 1) * std::max(1, stride) >= m_.gpus_per_node;
  return spans ? m_.alpha_inter : m_.alpha_intra;
}

double CostEstimator::beta_ring(int group, int stride) const {
  const bool spans = (group - 1) * std::max(1, stride) >= m_.gpus_per_node;
  return spans ? m_.beta_inter : m_.beta_intra;
}

void CostEstimator::alltoall(EpochCost& c, double bytes, double msgs,
                             int group, int stride) const {
  const double latency = msgs * alpha_spread(group, stride);
  const double scaled = bytes * m_.volume_scale;
  c.alltoall += latency + scaled * beta_spread(group, stride);
  c.alltoall_latency += latency;
  c.alltoall_messages += msgs;
  c.alltoall_bytes += scaled;
}

void CostEstimator::bcast(EpochCost& c, double bytes, double msgs, int group,
                          int stride) const {
  const double latency = msgs * alpha_spread(group, stride);
  c.bcast += latency + bytes * m_.volume_scale * beta_spread(group, stride);
  c.bcast_latency += latency;
}

void CostEstimator::allreduce(EpochCost& c, double payload_bytes, int ring,
                              int stride) const {
  if (ring <= 1) return;
  const double msgs = 2.0 * (ring - 1);
  const double bytes =
      2.0 * payload_bytes * static_cast<double>(ring - 1) / ring;
  const double latency = msgs * alpha_ring(ring, stride);
  c.allreduce += latency + bytes * m_.volume_scale * beta_ring(ring, stride);
  c.allreduce_latency += latency;
}

void CostEstimator::exchange(EpochCost& c, double bytes, double msgs,
                             int group, int stride) const {
  const double latency = msgs * alpha_spread(group, stride);
  c.other += latency + bytes * m_.volume_scale * beta_spread(group, stride);
  c.other_latency += latency;
}

double CostEstimator::compute_seconds(double madds) const {
  constexpr double kHostMaddsPerSecond = 2.5e8;  // nominal, never measured
  return madds / kHostMaddsPerSecond * m_.compute_scale * m_.volume_scale;
}

std::vector<vid_t> propagate_widths(const std::vector<vid_t>& dims) {
  std::vector<vid_t> widths;
  const int layers = static_cast<int>(dims.size()) - 1;
  for (int l = 0; l < layers; ++l) widths.push_back(dims[static_cast<std::size_t>(l)]);
  for (int l = layers - 1; l >= 1; --l) {
    widths.push_back(dims[static_cast<std::size_t>(l)]);
  }
  return widths;
}

std::vector<vid_t> effective_dims(const PredictInput& in) {
  if (!in.dims.empty()) return in.dims;
  SAGNN_REQUIRE(in.census != nullptr, "prediction needs a census");
  return {in.census->f, 16, 16, in.census->n_classes};
}

std::vector<vid_t> predict_base(EpochCost& cost, const PredictInput& in,
                                int n_blocks, double dense_rows,
                                int reduce_ranks, int reduce_stride) {
  const GraphCensus& cs = *in.census;
  const CostEstimator e(in.model);
  const std::vector<vid_t> dims = effective_dims(in);
  const std::vector<vid_t> widths = propagate_widths(dims);

  // Nominal compute: every scheme splits the tile SpMM's nnz * width work
  // p ways (replicas split columns, grids split tiles); what differs is
  // the dense GEMM row count (replication and 2D/3D residency duplicate
  // dense compute) and the partitioner's nnz imbalance at n_blocks.
  double width_sum = 0;
  for (vid_t w : widths) width_sum += static_cast<double>(w);
  const double spmm_madds =
      static_cast<double>(cs.nnz) / std::max(1, in.p) *
      cs.expected_compute_imbalance(in.partitioner, n_blocks) * width_sum;
  double gemm_cols = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    gemm_cols += static_cast<double>(dims[l]) * static_cast<double>(dims[l + 1]);
  }
  // Forward GEMM plus the ~2x of backward (dX and dW) per layer.
  const double dense_madds = 3.0 * dense_rows * gemm_cols;
  cost.compute = e.compute_seconds(spmm_madds + dense_madds);

  // Per-layer weight-gradient ring all-reduces plus the loss triple, over
  // the strategy's reduce scope.
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    e.allreduce(cost,
                static_cast<double>(dims[l]) * static_cast<double>(dims[l + 1]) *
                    sizeof(real_t),
                reduce_ranks, reduce_stride);
  }
  e.allreduce(cost, 3.0 * sizeof(double), reduce_ranks, reduce_stride);
  return widths;
}

}  // namespace sagnn
