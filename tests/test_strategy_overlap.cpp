// The "1d-overlap" chunked-pipelining strategy and the cost accounting it
// depends on: identical training math and bytes to "1d-sparse" with K-fold
// messages, stage-tagged traffic driving TrainResult's three schedule
// columns, a measured overlap ledger that counts every exchange wait and
// none of an exchange's own sends as hidden time, and a strategy-level
// epoch cost whose `other` bucket excludes the one-time index exchange
// exactly.
#include <gtest/gtest.h>

#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "partition/partition.hpp"
#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"
#include "simcomm/fault.hpp"
#include "sparse/blocks.hpp"

namespace sagnn {
namespace {

GcnConfig tiny_config(const Dataset& ds, int epochs = 3) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

TrainResult run(const Dataset& ds, const std::string& strategy, int chunks,
                int epochs = 3) {
  auto trainer = TrainerBuilder(ds)
                     .strategy(strategy)
                     .ranks(4)
                     .partitioner("gvb")
                     .pipeline_chunks(chunks)
                     .gcn(tiny_config(ds, epochs))
                     .build();
  trainer->train();
  return trainer->result();
}

TEST(StrategyOverlap, SameBytesAsSparseWithKFoldMessages) {
  // The pipelined schedule reuses the 1D sparsity-aware index exchange, so
  // it moves exactly the same payload per epoch — the chunking only
  // multiplies the per-pair message count (the latency price of overlap).
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int chunks = 4;
  const TrainResult sparse = run(ds, "1d-sparse", chunks);
  const TrainResult overlap = run(ds, "1d-overlap", chunks);

  const PhaseVolume& a2a_sparse = sparse.phase_volumes.at("alltoall");
  const PhaseVolume& a2a_overlap = overlap.phase_volumes.at("alltoall");
  EXPECT_DOUBLE_EQ(a2a_overlap.megabytes_per_epoch, a2a_sparse.megabytes_per_epoch);
  EXPECT_DOUBLE_EQ(a2a_overlap.messages_per_epoch,
                   chunks * a2a_sparse.messages_per_epoch);
  EXPECT_DOUBLE_EQ(overlap.setup_megabytes, sparse.setup_megabytes);

  // Identical math: the loss trajectories agree bitwise, not just within
  // the serial-parity tolerance.
  ASSERT_EQ(overlap.epochs.size(), sparse.epochs.size());
  for (std::size_t e = 0; e < sparse.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(overlap.epochs[e].loss, sparse.epochs[e].loss) << e;
    EXPECT_DOUBLE_EQ(overlap.epochs[e].train_accuracy,
                     sparse.epochs[e].train_accuracy)
        << e;
  }
}

TEST(StrategyOverlap, SurfacesThreeScheduleColumns) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (int chunks : {1, 2, 4, 8}) {
    const TrainResult r = run(ds, "1d-overlap", chunks, 2);
    EXPECT_EQ(r.pipeline_stages, chunks);
    const double bulk = r.modeled_epoch_seconds();
    const double pipe = r.modeled_epoch_pipelined_seconds();
    const double ideal = r.modeled_epoch_overlapped_seconds();
    EXPECT_LE(pipe, bulk) << chunks;
    EXPECT_GE(pipe, ideal) << chunks;
    if (chunks == 1) {
      EXPECT_DOUBLE_EQ(pipe, bulk);
    }
  }
  // Bulk-synchronous strategies report a single stage, for which the
  // pipelined column degenerates to the bulk one.
  const TrainResult sparse = run(ds, "1d-sparse", 4, 2);
  EXPECT_EQ(sparse.pipeline_stages, 1);
  EXPECT_DOUBLE_EQ(sparse.modeled_epoch_pipelined_seconds(),
                   sparse.modeled_epoch_seconds());
}

TEST(StrategyOverlap, ChunkCountsBeyondFeatureWidthClamp) {
  // More chunks than columns must not break anything: each multiply clamps
  // to its own feature width and stays exact.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const TrainResult wide = run(ds, "1d-overlap", 1000, 2);
  const TrainResult sparse = run(ds, "1d-sparse", 1, 2);
  ASSERT_EQ(wide.epochs.size(), sparse.epochs.size());
  for (std::size_t e = 0; e < sparse.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(wide.epochs[e].loss, sparse.epochs[e].loss) << e;
  }
  EXPECT_GT(wide.pipeline_stages, 1);
}

TEST(StrategyOverlap, RejectsNonPositiveChunkCount) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(run(ds, "1d-overlap", 0, 1), Error);
}

TEST(StrategyOverlap, MeasuredAlltoallOverlapCountsEveryExchangeWait) {
  // The measured ledger's seconds are host wall-clock, but the number of
  // waits it aggregates is fixed by the schedule: every rank waits once
  // per chunk of each of the 2L - 1 = 5 propagates per epoch of the
  // 3-layer GCN; bulk-synchronous exchanges count as one chunk, and the
  // broadcast-based oblivious strategies record none.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int epochs = 3;
  const int chunks = 2;
  const int propagates = 5 * epochs;
  struct Case {
    std::string strategy;
    int p;
    int c;
    int waits;
  };
  for (const Case& k : {Case{"1d-overlap", 4, 1, 4 * chunks * propagates},
                        Case{"1.5d-overlap", 8, 2, 8 * chunks * propagates},
                        Case{"1d-sparse", 4, 1, 4 * propagates},
                        Case{"1d-oblivious", 4, 1, 0},
                        Case{"2d-oblivious", 4, 1, 0}}) {
    auto trainer = TrainerBuilder(ds)
                       .strategy(k.strategy)
                       .ranks(k.p, k.c)
                       .partitioner("gvb")
                       .pipeline_chunks(chunks)
                       .gcn(tiny_config(ds, epochs))
                       .build();
    trainer->train();
    const OverlapSample& s = trainer->result().alltoall_overlap;
    EXPECT_EQ(s.waits, static_cast<std::uint64_t>(k.waits)) << k.strategy;
    EXPECT_GE(s.fraction(), 0.0) << k.strategy;
    EXPECT_LE(s.fraction(), 1.0) << k.strategy;
  }
}

TEST(StrategyOverlap, ExchangeOwnSendsAreNotHiddenTime) {
  // A straggling rank 0 sleeps (11 - 1) * 1 ms = 10 ms before each of its
  // three cross-rank sends. Those sleeps belong to the exchange's own
  // post, not to work the exchange overlapped, so a bulk alltoallv waited
  // right after posting reads (almost) no hidden time on any rank: rank
  // 0's peers park for its messages (blocked), rank 0 finds theirs.
  FaultSpec spec;
  spec.rank_slowdown[0] = 11;
  spec.straggler_send_delay = 1e-3;
  const TrafficRecorder traffic =
      run_spmd(4, FaultPlan::make(spec), [](Comm& comm) {
        const std::vector<std::vector<int>> send(4, std::vector<int>{comm.rank()});
        const auto recv = alltoallv<int>(comm, send);
        for (int s = 0; s < 4; ++s) {
          EXPECT_EQ(recv[static_cast<std::size_t>(s)], std::vector<int>{s});
        }
      });
  const OverlapSample s = traffic.overlap_total("alltoall");
  EXPECT_EQ(s.waits, 4u);
  EXPECT_LT(s.hidden, 0.010);
}

TEST(StrategyEpochCost, OtherBucketExcludesIndexExchangeExactly) {
  // The one-time index exchange is excluded during cost assembly, so the
  // per-epoch `other` bucket equals the non-setup phases' cost exactly —
  // no subtract-and-clamp remainder.
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(16, 60, rng));
  const auto ranges = uniform_block_ranges(16, 2);
  StrategyContext ctx;
  ctx.p = 2;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  const auto strategy = strategy_registry().create("1d-sparse");

  CostModel m;
  TrafficRecorder rec(2);
  rec.record("index_exchange", 0, 1, 123457);
  rec.record("gather", 0, 1, 1000);  // lands in `other`
  rec.record("alltoall", 0, 1, 500);
  const int epochs = 3;
  const std::vector<double> cpu{0.1, 0.2};
  const EpochCost cost = strategy->epoch_cost(m, rec, cpu, ctx, epochs);
  EXPECT_DOUBLE_EQ(cost.other,
                   m.phase_cost_detail(rec.phase("gather")).seconds / epochs);
  EXPECT_DOUBLE_EQ(cost.alltoall,
                   m.phase_cost_detail(rec.phase("alltoall")).seconds / epochs);
}

TEST(StrategyOverlap, BlockRowWorkSharedWithSparse1d) {
  // Both 1D strategies weight rank r by the nnz of block row r it owns
  // outright.
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(24, 120, rng));
  const auto ranges = uniform_block_ranges(24, 3);
  StrategyContext ctx;
  ctx.p = 3;
  ctx.adjacency = &a;
  ctx.ranges = ranges;
  std::vector<double> work;
  for (const BlockRange& r : ranges) {
    work.push_back(static_cast<double>(a.row_ptr()[r.end] - a.row_ptr()[r.begin]));
  }
  double total = 0;
  for (double w : work) total += w;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(a.nnz()));
  EXPECT_EQ(strategy_registry().create("1d-overlap")->rank_work(ctx), work);
  EXPECT_EQ(strategy_registry().create("1d-sparse")->rank_work(ctx), work);
}

}  // namespace
}  // namespace sagnn
