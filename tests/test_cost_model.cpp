// Alpha-beta cost model: per-rank serialization, bottleneck semantics,
// intra/inter-node distinction, epoch assembly.
#include <gtest/gtest.h>

#include "simcomm/cost_model.hpp"

namespace sagnn {
namespace {

CostModel simple_model() {
  CostModel m;
  m.alpha_intra = 1.0;  // exaggerated units for easy arithmetic
  m.alpha_inter = 10.0;
  m.beta_intra = 0.5;
  m.beta_inter = 2.0;
  m.gpus_per_node = 2;
  m.compute_scale = 0.1;
  return m;
}

TEST(CostModel, NodeTopology) {
  const CostModel m = simple_model();
  EXPECT_TRUE(m.same_node(0, 1));
  EXPECT_FALSE(m.same_node(1, 2));
  EXPECT_DOUBLE_EQ(m.alpha(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.alpha(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(m.beta(2, 3), 0.5);
  EXPECT_DOUBLE_EQ(m.beta(1, 2), 2.0);
}

TEST(CostModel, SendSecondsSerializesAllDestinations) {
  const CostModel m = simple_model();
  PhaseTraffic intra(4), inter(4), both(4);
  // rank 0 -> 1 (intra, 10B), rank 0 -> 2 (inter, 10B)
  intra.bytes[0 * 4 + 1] = both.bytes[0 * 4 + 1] = 10;
  intra.msgs[0 * 4 + 1] = both.msgs[0 * 4 + 1] = 1;
  inter.bytes[0 * 4 + 2] = both.bytes[0 * 4 + 2] = 10;
  inter.msgs[0 * 4 + 2] = both.msgs[0 * 4 + 2] = 1;
  // One message alone costs its receiver as much as its sender.
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(intra).seconds, 6.0);   // 1 + 0.5*10
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(inter).seconds, 30.0);  // 10 + 2*10
  // Together rank 0's send side serializes both: 6 + 30.
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(both).seconds, 36.0);
}

TEST(CostModel, SelfTrafficIsFree) {
  const CostModel m = simple_model();
  PhaseTraffic t(2);
  t.bytes[0] = 1000000;  // (0,0)
  t.msgs[0] = 5;
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(t).seconds, 0.0);
}

TEST(CostModel, PhaseIsBottleneckRank) {
  const CostModel m = simple_model();
  PhaseTraffic t(4);
  t.bytes[0 * 4 + 1] = 2;   // rank0 sends 2B intra: 1 + 1 = 2
  t.msgs[0 * 4 + 1] = 1;
  t.bytes[3 * 4 + 0] = 100;  // rank3 sends 100B inter: 10 + 200 = 210
  t.msgs[3 * 4 + 0] = 1;
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(t).seconds, 210.0);
}

TEST(CostModel, RecvSideCanBeBottleneck) {
  const CostModel m = simple_model();
  PhaseTraffic t(4);
  // Everyone sends 10B to rank 0 (inter from 2,3; intra from 1):
  for (int s = 1; s < 4; ++s) {
    t.bytes[static_cast<std::size_t>(s) * 4 + 0] = 10;
    t.msgs[static_cast<std::size_t>(s) * 4 + 0] = 1;
  }
  // rank0 recv: (1+5) + (10+20) + (10+20) = 66 > any single send cost (30).
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(t).seconds, 66.0);
}

TEST(CostModel, ComputeSecondsScalesAndTakesMax) {
  const CostModel m = simple_model();
  EXPECT_DOUBLE_EQ(m.compute_seconds({1.0, 5.0, 2.0}), 0.5);
}

TEST(CostModel, EpochCostBucketsByPhaseName) {
  const CostModel m = simple_model();
  TrafficRecorder rec(2);
  rec.record("alltoall", 0, 1, 10);   // intra: 1 + 5 = 6
  rec.record("bcast", 1, 0, 2);       // intra: 1 + 1 = 2
  rec.record("allreduce", 0, 1, 4);   // intra: 1 + 2 = 3
  rec.record("weird", 1, 0, 2);       // other: 2
  rec.record("sync", 0, 1, 999999);   // excluded
  const EpochCost cost = epoch_cost(m, rec, {10.0, 20.0});
  EXPECT_DOUBLE_EQ(cost.alltoall, 6.0);
  EXPECT_DOUBLE_EQ(cost.bcast, 2.0);
  EXPECT_DOUBLE_EQ(cost.allreduce, 3.0);
  EXPECT_DOUBLE_EQ(cost.other, 2.0);
  EXPECT_DOUBLE_EQ(cost.compute, 2.0);
  EXPECT_DOUBLE_EQ(cost.total(), 15.0);
}

TEST(CostModel, OverlappedTotalIsMaxOfSides) {
  EpochCost c;
  c.compute = 5;
  c.alltoall = 2;
  c.bcast = 1;
  EXPECT_DOUBLE_EQ(c.comm(), 3.0);
  EXPECT_DOUBLE_EQ(c.total(), 8.0);
  EXPECT_DOUBLE_EQ(c.total_overlapped(), 5.0);
  c.allreduce = 10;
  EXPECT_DOUBLE_EQ(c.total_overlapped(), 13.0);
}

TEST(CostModel, PipelinedTotalInterpolatesBetweenBulkAndOverlap) {
  EpochCost c;
  c.compute = 6;
  c.alltoall = 4;
  // stages = 1 is exactly the bulk-synchronous schedule.
  EXPECT_DOUBLE_EQ(c.total_pipelined(1), c.total());
  // Monotone non-increasing in stages, never below the overlap bound.
  double prev = c.total_pipelined(1);
  for (int s : {2, 3, 4, 8, 64, 4096}) {
    const double t = c.total_pipelined(s);
    EXPECT_LE(t, prev) << s;
    EXPECT_GE(t, c.total_overlapped()) << s;
    prev = t;
  }
  // Closed form: max + min / stages.
  EXPECT_DOUBLE_EQ(c.total_pipelined(2), 6.0 + 4.0 / 2.0);
  // stages -> inf converges to the idealized full overlap.
  EXPECT_NEAR(c.total_pipelined(1 << 24), c.total_overlapped(), 1e-6);
  // Degenerate stage counts clamp to the bulk-synchronous schedule.
  EXPECT_DOUBLE_EQ(c.total_pipelined(0), c.total());
  EXPECT_DOUBLE_EQ(c.total_pipelined(-3), c.total());
  // Communication-bound epochs pipeline the compute side instead.
  c.allreduce = 20;
  EXPECT_DOUBLE_EQ(c.total_pipelined(4), 24.0 + 6.0 / 4.0);
}

TEST(CostModel, EpochCostAggregatesChunkTaggedStages) {
  const CostModel m = simple_model();
  TrafficRecorder rec(2);
  rec.record("alltoall#0", 0, 1, 10);  // stage 0 bottleneck: 1 + 5 = 6
  rec.record("alltoall#1", 0, 1, 4);   // stage 1 bottleneck: 1 + 2 = 3
  rec.record("bcast#0", 1, 0, 2);      // tagged bcast: 1 + 1 = 2
  const EpochCost cost = epoch_cost(m, rec, {0.0, 0.0});
  // Stages are synchronization points: their bottleneck costs add into the
  // base bucket instead of landing in `other`.
  EXPECT_DOUBLE_EQ(cost.alltoall, 9.0);
  EXPECT_DOUBLE_EQ(cost.bcast, 2.0);
  EXPECT_DOUBLE_EQ(cost.other, 0.0);
}

TEST(CostModel, EpochCostExcludesListedBasesExactly) {
  const CostModel m = simple_model();
  TrafficRecorder rec(2);
  rec.record("index_exchange", 0, 1, 123456);
  rec.record("weird", 0, 1, 2);  // other: 1 + 1 = 2
  const EpochCost cost = epoch_cost(m, rec, {0.0, 0.0}, {"index_exchange"});
  EXPECT_DOUBLE_EQ(cost.other, 2.0);
  EXPECT_DOUBLE_EQ(cost.comm(), 2.0);
}

TEST(CostModel, VolumeScaleMultipliesBytesNotLatency) {
  CostModel m = simple_model();
  m.volume_scale = 10.0;
  PhaseTraffic t(2);
  t.bytes[0 * 2 + 1] = 10;  // intra: alpha 1, beta 0.5
  t.msgs[0 * 2 + 1] = 1;
  // 1 (latency unscaled) + 0.5 * 10 * 10 (bytes scaled)
  EXPECT_DOUBLE_EQ(m.phase_cost_detail(t).seconds, 51.0);
  EXPECT_DOUBLE_EQ(m.compute_seconds({1.0}), 1.0);  // 0.1 scale * 10
}

TEST(CostModel, DefaultsAreSane) {
  // Perlmutter-flavored defaults: inter-node latency above intra, 25 GB/s
  // links, 4 GPUs per node.
  const CostModel m;
  EXPECT_GT(m.alpha_inter, m.alpha_intra);
  EXPECT_EQ(m.gpus_per_node, 4);
  EXPECT_NEAR(m.beta_intra * 25.0e9, 1.0, 1e-9);
}

}  // namespace
}  // namespace sagnn
