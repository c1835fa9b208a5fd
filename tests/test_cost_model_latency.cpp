// The explicit alpha-beta latency decomposition of EpochCost: the
// bottleneck detail (seconds == latency + beta-terms at the same rank),
// the message-count-aware total_pipelined(K, alpha, beta) model and its
// bulk >= pipe >= ideal ordering at every chunk depth, and the
// latency-capped useful-K crossover the model predicts (docs/cost_model.md).
#include <gtest/gtest.h>

#include <cmath>

#include "simcomm/cost_model.hpp"

namespace sagnn {
namespace {

TEST(PhaseCostDetail, DecomposesTheBottleneckExactly) {
  // Rank 0 sends to both peers; rank 1 receives the heavier load. The
  // detail must pick the global bottleneck (rank 0's send side here) and
  // split its seconds into the alpha share and the beta terms exactly.
  CostModel m;
  m.gpus_per_node = 2;  // ranks {0,1} share a node, rank 2 is remote
  PhaseTraffic t(3);
  t.bytes[0 * 3 + 1] = 1000;
  t.msgs[0 * 3 + 1] = 2;
  t.bytes[0 * 3 + 2] = 4000;
  t.msgs[0 * 3 + 2] = 1;
  const auto d = m.phase_cost_detail(t);
  // Rank 0's send side, peer by peer (peer 0 is itself and free).
  const double send0 =
      (m.alpha(0, 1) * 2 + m.beta(0, 1) * 1000 * m.volume_scale) +
      (m.alpha(0, 2) * 1 + m.beta(0, 2) * 4000 * m.volume_scale);
  EXPECT_DOUBLE_EQ(d.seconds, send0);
  EXPECT_DOUBLE_EQ(d.latency, 2 * m.alpha_intra + 1 * m.alpha_inter);
  EXPECT_DOUBLE_EQ(d.messages, 3.0);
  EXPECT_DOUBLE_EQ(d.bytes, 5000.0);
  // seconds == latency + beta terms at the bottleneck (to rounding: the
  // seconds accumulate alpha and beta terms fused per peer).
  EXPECT_NEAR(d.seconds - d.latency, m.beta_intra * 1000 + m.beta_inter * 4000,
              d.seconds * 1e-12);
}

TEST(PhaseCostDetail, AppliesVolumeScaleToBytesNotMessages) {
  CostModel m;
  m.volume_scale = 10.0;
  PhaseTraffic t(2);
  t.bytes[0 * 2 + 1] = 100;
  t.msgs[0 * 2 + 1] = 4;
  const auto d = m.phase_cost_detail(t);
  EXPECT_DOUBLE_EQ(d.bytes, 1000.0);
  EXPECT_DOUBLE_EQ(d.messages, 4.0);
  // Ranks 0 and 1 share a node under the default gpus_per_node = 4.
  EXPECT_DOUBLE_EQ(d.latency, 4 * m.alpha_intra);  // unscaled
}

TEST(EpochCostAssembly, FillsLatencySplitAndAlltoallCounts) {
  CostModel m;
  TrafficRecorder rec(2);
  rec.record("alltoall#0", 0, 1, 500);
  rec.record("alltoall#1", 0, 1, 500);
  rec.record("allreduce", 0, 1, 300);
  rec.record("gather", 1, 0, 100);
  const EpochCost cost = epoch_cost(m, rec, {0.0, 0.0});

  // Two tagged stages accumulate: 2 messages, 1000 bytes at the
  // bottleneck (both ranks on one node -> alpha_intra).
  EXPECT_DOUBLE_EQ(cost.alltoall_messages, 2.0);
  EXPECT_DOUBLE_EQ(cost.alltoall_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(cost.alltoall_latency, 2 * m.alpha_intra);
  EXPECT_DOUBLE_EQ(cost.allreduce_latency, m.alpha_intra);
  EXPECT_DOUBLE_EQ(cost.other_latency, m.alpha_intra);
  EXPECT_DOUBLE_EQ(cost.comm_latency(), cost.alltoall_latency +
                                            cost.allreduce_latency +
                                            cost.other_latency);
  EXPECT_DOUBLE_EQ(cost.comm_bandwidth(), cost.comm() - cost.comm_latency());
}

/// A synthetic depth-1 cost: compute C, one chunkable alltoall with m
/// messages of latency a each and V bytes at bandwidth b, plus a fixed
/// remainder R in the allreduce bucket.
EpochCost synthetic_cost(double compute, double m, double a, double v,
                         double b, double rest) {
  EpochCost c;
  c.compute = compute;
  c.alltoall = m * a + v * b;
  c.alltoall_latency = m * a;
  c.alltoall_messages = m;
  c.alltoall_bytes = v;
  c.allreduce = rest;
  return c;
}

TEST(EpochCostPipelinedModel, EffectiveAlphaBetaReproducesCommAtDepthOne) {
  const EpochCost c = synthetic_cost(2.0, 100, 1e-5, 1e6, 4e-11, 0.3);
  const auto [alpha, beta] = c.effective_alpha_beta();
  // The subtract-then-divide calibration round-trips to within rounding.
  EXPECT_NEAR(alpha, 1e-5, 1e-5 * 1e-12);
  EXPECT_NEAR(beta, 4e-11, 4e-11 * 1e-12);
  EXPECT_NEAR(c.comm_repriced(1, alpha, beta), c.comm(), c.comm() * 1e-12);
  EXPECT_NEAR(c.total_pipelined(1, alpha, beta), c.total(), c.total() * 1e-12);
}

TEST(EpochCostPipelinedModel, BulkPipeIdealOrderingHoldsAtEveryDepth) {
  const EpochCost c = synthetic_cost(1.0, 50, 2e-4, 1e7, 4e-11, 0.1);
  const auto [alpha, beta] = c.effective_alpha_beta();
  for (int k : {1, 2, 4, 8, 16, 64, 1024}) {
    const double comm_k = c.comm_repriced(k, alpha, beta);
    const double bulk_k = c.compute + comm_k;
    const double ideal_k = std::max(c.compute, comm_k);
    const double pipe_k = c.total_pipelined(k, alpha, beta);
    EXPECT_LE(pipe_k, bulk_k) << k;
    EXPECT_GE(pipe_k, ideal_k) << k;
  }
}

TEST(EpochCostPipelinedModel, LatencyCapsTheUsefulChunkDepth) {
  // Communication-dominated regime: pipe(K) = K*a*m + b*V + R + C/K is
  // minimized near K* = sqrt(C / (a*m)) and rises beyond it — the alpha
  // term bounds the useful pipeline depth (docs/cost_model.md derives
  // this closed form).
  const double compute = 1.0, m = 1000, a = 1e-5, v = 1e9, b = 4e-9;
  const EpochCost c = synthetic_cost(compute, m, a, v, b, 0.0);
  const auto [alpha, beta] = c.effective_alpha_beta();
  const double k_star = std::sqrt(compute / (a * m));  // = 10
  const double at_star = c.total_pipelined(static_cast<int>(k_star), alpha, beta);
  EXPECT_LT(at_star, c.total_pipelined(1, alpha, beta));
  EXPECT_LT(at_star, c.total_pipelined(100, alpha, beta));
  // Monotone rise once latency dominates: doubling K past the optimum
  // only adds alpha cost.
  EXPECT_LT(c.total_pipelined(20, alpha, beta),
            c.total_pipelined(40, alpha, beta));
  EXPECT_LT(c.total_pipelined(40, alpha, beta),
            c.total_pipelined(80, alpha, beta));
}

TEST(EpochCostPipelinedModel, CrossLayerDepthDividesTheResidual) {
  // A cross-layer schedule passes its deeper recorded stage count: same
  // repriced comm, smaller serialized residual.
  const EpochCost c = synthetic_cost(4.0, 10, 1e-6, 1e6, 4e-11, 0.0);
  const auto [alpha, beta] = c.effective_alpha_beta();
  const double within = c.total_pipelined(4, alpha, beta);          // depth 4
  const double cross = c.total_pipelined(4, alpha, beta, 20);       // depth 20
  EXPECT_LT(cross, within);
  const double comm_4 = c.comm_repriced(4, alpha, beta);
  EXPECT_DOUBLE_EQ(cross, std::max(c.compute, comm_4) +
                              std::min(c.compute, comm_4) / 20.0);
}

TEST(EpochCostScale, ScalesEveryField) {
  EpochCost c = synthetic_cost(2.0, 100, 1e-5, 1e6, 4e-11, 0.3);
  c.bcast = 0.2;
  c.other = 0.1;
  c.bcast_latency = 0.01;
  c.allreduce_latency = 0.02;
  c.other_latency = 0.03;
  const EpochCost orig = c;
  c.scale(0.5);
  EXPECT_DOUBLE_EQ(c.compute, orig.compute * 0.5);
  EXPECT_DOUBLE_EQ(c.alltoall, orig.alltoall * 0.5);
  EXPECT_DOUBLE_EQ(c.bcast, orig.bcast * 0.5);
  EXPECT_DOUBLE_EQ(c.allreduce, orig.allreduce * 0.5);
  EXPECT_DOUBLE_EQ(c.other, orig.other * 0.5);
  EXPECT_DOUBLE_EQ(c.alltoall_latency, orig.alltoall_latency * 0.5);
  EXPECT_DOUBLE_EQ(c.bcast_latency, orig.bcast_latency * 0.5);
  EXPECT_DOUBLE_EQ(c.allreduce_latency, orig.allreduce_latency * 0.5);
  EXPECT_DOUBLE_EQ(c.other_latency, orig.other_latency * 0.5);
  EXPECT_DOUBLE_EQ(c.alltoall_messages, orig.alltoall_messages * 0.5);
  EXPECT_DOUBLE_EQ(c.alltoall_bytes, orig.alltoall_bytes * 0.5);
}

}  // namespace
}  // namespace sagnn
