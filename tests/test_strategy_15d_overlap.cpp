// The "1.5d-overlap" cross-layer pipelined strategy: bitwise-identical
// math and bytes to "1.5d-sparse" with K-fold alltoall messages (the
// grid-row all-reduce is never inflated), epoch-wide stage tags that
// continue across propagate calls (cross-layer latency hiding), and
// per-stage payloads that reassemble the non-overlapped totals exactly.
// The Spmm1dPipelined suite runs the same multiply at c = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dist/spmm_15d.hpp"
#include "gnn/strategy.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

GcnConfig tiny_config(const Dataset& ds, int epochs = 3) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

TrainResult run(const Dataset& ds, const std::string& strategy, int chunks,
                int epochs = 3, int p = 4, int c = 2) {
  auto trainer = TrainerBuilder(ds)
                     .strategy(strategy)
                     .ranks(p, c)
                     .partitioner("gvb")
                     .pipeline_chunks(chunks)
                     .gcn(tiny_config(ds, epochs))
                     .build();
  trainer->train();
  return trainer->result();
}

// ---- SpMM level: multiply_pipelined vs multiply ----

struct PipelinedRun {
  std::vector<Matrix> replicas;
  TrafficRecorder traffic{1};
  int final_stage = 0;
};

/// Run `multiplies` back-to-back pipelined multiplies (one per simulated
/// layer) with a shared epoch-wide stage counter, as the strategy does.
/// chunks < 0 means "call the bulk multiply()" (untagged baseline).
PipelinedRun run_15d(const CsrMatrix& a, const Matrix& h, int p, int c,
                     int chunks, int multiplies = 1) {
  const auto ranges = uniform_block_ranges(a.n_rows(), p / c);
  PipelinedRun out;
  out.replicas.resize(static_cast<std::size_t>(p));
  std::vector<int> stages(static_cast<std::size_t>(p), 0);
  Cluster cluster(p);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm(comm, a, ranges, c, SpmmMode::kSparsityAware);
    const BlockRange r = spmm.my_range();
    Matrix z;
    for (int i = 0; i < multiplies; ++i) {
      const Matrix h_local = h.slice_rows(r.begin, r.end);
      z = chunks < 0
              ? spmm.multiply(h_local)
              : spmm.multiply_pipelined(
                    h_local, chunks,
                    &stages[static_cast<std::size_t>(comm.rank())]);
    }
    out.replicas[static_cast<std::size_t>(comm.rank())] = z;
  });
  out.traffic = cluster.traffic();
  out.final_stage = stages.front();
  return out;
}

TEST(Spmm15dPipelined, BitwiseIdenticalToBulkMultiply) {
  Rng rng(11);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 500, rng));
  const Matrix h = Matrix::random_uniform(64, 12, rng);
  const auto bulk = run_15d(a, h, 8, 2, /*chunks=*/-1);
  for (int chunks : {1, 2, 3, 4, 12, 100}) {
    const auto pipe = run_15d(a, h, 8, 2, chunks);
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(pipe.replicas[static_cast<std::size_t>(r)].max_abs_diff(
                    bulk.replicas[static_cast<std::size_t>(r)]),
                0.0)
          << "chunks=" << chunks << " rank " << r;
    }
  }
}

TEST(Spmm15dPipelined, OddWidthChunkWindowsBitwiseIdenticalToBulk) {
  // f = 33 leaves uneven chunk widths (11/11/11, 8/8/8/9, ..., 33 x 1), so
  // every chunk's in-place window of Z starts at a different column and
  // runs a different 16/8/4/1 strip tail.
  Rng rng(14);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 500, rng));
  const Matrix h = Matrix::random_uniform(64, 33, rng);
  const auto bulk = run_15d(a, h, 8, 2, /*chunks=*/-1);
  for (int chunks : {1, 2, 3, 4, 33}) {
    const auto pipe = run_15d(a, h, 8, 2, chunks);
    for (int r = 0; r < 8; ++r) {
      const Matrix& got = pipe.replicas[static_cast<std::size_t>(r)];
      const Matrix& want = bulk.replicas[static_cast<std::size_t>(r)];
      EXPECT_TRUE(got == want) << "chunks=" << chunks << " rank " << r;
    }
  }
}

TEST(Spmm15dPipelined, StageTagsContinueAcrossMultiplies) {
  // Two back-to-back multiplies with one stage counter model two layers:
  // the second multiply's first exchange must land in the pipeline slot
  // directly after the first multiply's all-reduce — no tag reuse, no gap.
  Rng rng(12);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 300, rng));
  const Matrix h = Matrix::random_uniform(48, 8, rng);
  const int chunks = 2;
  const auto two = run_15d(a, h, 4, 2, chunks, /*multiplies=*/2);

  // Per multiply: 2 alltoall stages + 1 allreduce stage -> counter at 6.
  EXPECT_EQ(two.final_stage, 6);
  EXPECT_EQ(two.traffic.stage_count("alltoall"), 4);
  EXPECT_EQ(two.traffic.stage_count("allreduce"), 2);
  for (int s : {0, 1, 3, 4}) {
    EXPECT_GT(two.traffic.phase(TrafficRecorder::stage_phase("alltoall", s))
                  .total_msgs(),
              0u)
        << "alltoall stage " << s;
  }
  for (int s : {2, 5}) {
    EXPECT_GT(two.traffic.phase(TrafficRecorder::stage_phase("allreduce", s))
                  .total_msgs(),
              0u)
        << "allreduce stage " << s;
  }
  // Identical H both times -> the two layers' stage payloads match.
  EXPECT_EQ(two.traffic.phase(TrafficRecorder::stage_phase("alltoall", 0))
                .total_bytes(),
            two.traffic.phase(TrafficRecorder::stage_phase("alltoall", 3))
                .total_bytes());
}

TEST(Spmm15dPipelined, StagePayloadsReassembleBulkTotalsExactly) {
  Rng rng(13);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 500, rng));
  const Matrix h = Matrix::random_uniform(64, 10, rng);
  const auto bulk = run_15d(a, h, 8, 2, /*chunks=*/-1);
  const auto pipe = run_15d(a, h, 8, 2, /*chunks=*/4);

  // Chunking changes the schedule, never the payload: summed over stages,
  // bytes match the bulk run exactly; alltoall messages inflate K-fold
  // while the (full-width, never column-split) all-reduce is untouched.
  const PhaseTraffic a2a_bulk = bulk.traffic.phase("alltoall");
  const PhaseTraffic a2a_pipe = pipe.traffic.phase_total("alltoall");
  EXPECT_EQ(a2a_pipe.total_bytes(), a2a_bulk.total_bytes());
  EXPECT_EQ(a2a_pipe.total_msgs(), 4 * a2a_bulk.total_msgs());
  const PhaseTraffic ar_bulk = bulk.traffic.phase("allreduce");
  const PhaseTraffic ar_pipe = pipe.traffic.phase_total("allreduce");
  EXPECT_EQ(ar_pipe.total_bytes(), ar_bulk.total_bytes());
  EXPECT_EQ(ar_pipe.total_msgs(), ar_bulk.total_msgs());

  // And not just in aggregate: every (src, dst) pair moves the same bytes.
  for (std::size_t i = 0; i < a2a_bulk.bytes.size(); ++i) {
    ASSERT_EQ(a2a_pipe.bytes[i], a2a_bulk.bytes[i]) << "pair " << i;
  }

  // A K=1 tagged run records one stage per multiply; its stage-0 payload
  // must equal the union of the K=4 run's four chunk stages.
  const auto one = run_15d(a, h, 8, 2, /*chunks=*/1);
  EXPECT_EQ(one.traffic.stage_count("alltoall"), 1);
  std::uint64_t four_stage_bytes = 0;
  for (int s = 0; s < 4; ++s) {
    four_stage_bytes +=
        pipe.traffic.phase(TrafficRecorder::stage_phase("alltoall", s))
            .total_bytes();
  }
  EXPECT_EQ(one.traffic.phase(TrafficRecorder::stage_phase("alltoall", 0))
                .total_bytes(),
            four_stage_bytes);
}

// c = 1: the 1D exchange, pipelined one propagate at a time. run_15d
// gives each multiply a fresh stage cursor, as "1d-overlap" does.

TEST(Spmm1dPipelined, MatchesBulkMultiplyBitwise) {
  // Column chunking never reorders any output element's accumulation, so
  // the pipelined product is bit-identical to the bulk sparsity-aware one
  // for every chunk count — including counts above the feature width.
  Rng rng(21);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 400, rng));
  const Matrix h = Matrix::random_uniform(64, 8, rng);
  const auto bulk = run_15d(a, h, 4, 1, /*chunks=*/-1);
  for (int chunks : {1, 2, 3, 8, 100}) {
    const auto pipe = run_15d(a, h, 4, 1, chunks);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(pipe.replicas[static_cast<std::size_t>(r)].max_abs_diff(
                    bulk.replicas[static_cast<std::size_t>(r)]),
                0.0)
          << "chunks " << chunks << " rank " << r;
    }
  }
}

TEST(Spmm1dPipelined, StageTaggedTrafficMatchesBulkBytes) {
  Rng rng(22);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(96, 700, rng));
  const Matrix h = Matrix::random_uniform(96, 9, rng);
  const int chunks = 3;
  const auto bulk = run_15d(a, h, 4, 1, /*chunks=*/-1);
  const auto pipe = run_15d(a, h, 4, 1, chunks);

  // One tagged stage per chunk; bytes sum to the bulk alltoall exactly
  // (same rows requested, columns partitioned), messages go up K-fold.
  EXPECT_EQ(pipe.traffic.stage_count("alltoall"), chunks);
  EXPECT_EQ(pipe.traffic.phase_total("alltoall").total_bytes(),
            bulk.traffic.phase("alltoall").total_bytes());
  EXPECT_EQ(pipe.traffic.phase_total("alltoall").total_msgs(),
            static_cast<std::uint64_t>(chunks) *
                bulk.traffic.phase("alltoall").total_msgs());
  // No stage is empty: 9 columns over 3 chunks moves bytes in every stage.
  for (int k = 0; k < chunks; ++k) {
    EXPECT_GT(pipe.traffic.phase(TrafficRecorder::stage_phase("alltoall", k))
                  .total_bytes(),
              0u)
        << "stage " << k;
  }
}

TEST(Spmm1dPipelined, HandlesEmptyBlocksAndRepeatedMultiplies) {
  Rng rng(23);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(30, 150, rng));
  const std::vector<vid_t> sizes{10, 0, 20};
  const auto ranges = ranges_from_sizes(sizes);
  const Matrix h = Matrix::random_uniform(30, 5, rng);
  Matrix expected = h;
  for (int iter = 0; iter < 3; ++iter) expected = spmm(a, expected);

  Matrix result(30, 5);
  Cluster cluster(3);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 1, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    Matrix h_local = h.slice_rows(r.begin, r.end);
    for (int iter = 0; iter < 3; ++iter) {
      h_local = spmm_dist.multiply_pipelined(h_local, 2, nullptr);
    }
    for (vid_t i = 0; i < h_local.n_rows(); ++i) {
      std::copy(h_local.row(i), h_local.row(i) + 5, result.row(r.begin + i));
    }
  });
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

TEST(Spmm1dPipelined, RejectsObliviousMode) {
  Rng rng(24);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(16, 60, rng));
  const auto ranges = uniform_block_ranges(16, 2);
  const Matrix h = Matrix::random_uniform(16, 4, rng);
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 1, SpmmMode::kOblivious);
    const BlockRange r = spmm_dist.my_range();
    (void)spmm_dist.multiply_pipelined(h.slice_rows(r.begin, r.end), 2,
                                       nullptr);
  }),
               Error);
}

// ---- Trainer level: the registered strategy ----

TEST(Strategy15dOverlap, SameBytesAsSparse15dWithKFoldAlltoallMessages) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int chunks = 4;
  const TrainResult sparse = run(ds, "1.5d-sparse", chunks);
  const TrainResult overlap = run(ds, "1.5d-overlap", chunks);

  const PhaseVolume& a2a_sparse = sparse.phase_volumes.at("alltoall");
  const PhaseVolume& a2a_overlap = overlap.phase_volumes.at("alltoall");
  EXPECT_DOUBLE_EQ(a2a_overlap.megabytes_per_epoch,
                   a2a_sparse.megabytes_per_epoch);
  EXPECT_DOUBLE_EQ(a2a_overlap.messages_per_epoch,
                   chunks * a2a_sparse.messages_per_epoch);
  // The grid-row all-reduce is never chunked: equal bytes AND messages.
  const PhaseVolume& ar_sparse = sparse.phase_volumes.at("allreduce");
  const PhaseVolume& ar_overlap = overlap.phase_volumes.at("allreduce");
  EXPECT_DOUBLE_EQ(ar_overlap.megabytes_per_epoch, ar_sparse.megabytes_per_epoch);
  EXPECT_DOUBLE_EQ(ar_overlap.messages_per_epoch, ar_sparse.messages_per_epoch);
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

TEST(Strategy15dOverlap, CrossLayerStageCountIsPropagatesTimesChunks) {
  // 3 GCN layers -> 3 forward + 2 backward propagates per epoch; the
  // epoch-wide stage counter gives every propagate its own K chunk slots
  // (amazon-sim kTiny propagates 16-wide matrices everywhere, so no
  // clamping), and every epoch re-tags the same sequence — the stage
  // count must not grow with the epoch count.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (int chunks : {1, 2, 4}) {
    const TrainResult r = run(ds, "1.5d-overlap", chunks, /*epochs=*/3);
    // pipeline_stages is the deepest per-base stage count: 5 x K alltoall
    // chunk stages vs the allreduce base's 5 tagged propagate stages plus
    // the untagged gradient-reduce phase (= 6, which wins at K = 1).
    EXPECT_EQ(r.pipeline_stages, std::max(5 * chunks, 6)) << "chunks=" << chunks;
  }
  // The within-layer "1d-overlap" schedule reports K stages; the
  // cross-layer schedule's pipeline is propagates x deeper.
  const TrainResult within = run(ds, "1d-overlap", 4, 3, 4, 1);
  EXPECT_EQ(within.pipeline_stages, 4);
}

TEST(Strategy15dOverlap, ScheduleColumnsStayOrdered) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  for (int chunks : {1, 2, 8}) {
    const TrainResult r = run(ds, "1.5d-overlap", chunks, 2);
    const double bulk = r.modeled_epoch_seconds();
    const double pipe = r.modeled_epoch_pipelined_seconds();
    const double ideal = r.modeled_epoch_overlapped_seconds();
    EXPECT_LE(pipe, bulk) << chunks;
    EXPECT_GE(pipe, ideal) << chunks;
  }
}

TEST(Strategy15dOverlap, RejectsNonPositiveChunkCount) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  EXPECT_THROW(run(ds, "1.5d-overlap", 0, 1), Error);
}

TEST(Strategy15dOverlap, AliasesResolve) {
  for (const char* alias : {"15d-overlap", "1.5d-pipelined", "1.5d-overlap"}) {
    EXPECT_EQ(strategy_registry().create(alias)->name(), "1.5d-overlap")
        << alias;
  }
}

TEST(Strategy15dOverlap, WorkSharedWithSparse15d) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const auto ranges = uniform_block_ranges(ds.n_vertices(), 2);
  StrategyContext ctx;
  ctx.p = 4;
  ctx.c = 2;
  ctx.adjacency = &ds.adjacency;
  ctx.ranges = ranges;
  EXPECT_EQ(strategy_registry().create("1.5d-overlap")->rank_work(ctx),
            strategy_registry().create("1.5d-sparse")->rank_work(ctx));
}

TEST(Strategy15dOverlap, CheckpointResumeStaysBitIdentical) {
  // The cross-layer stage tags restart every epoch, so a same-geometry
  // resume must adopt the tagged traffic history and continue exactly.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnConfig cfg = tiny_config(ds, 4);
  auto whole = TrainerBuilder(ds)
                   .strategy("1.5d-overlap")
                   .ranks(4, 2)
                   .partitioner("gvb")
                   .pipeline_chunks(2)
                   .gcn(cfg)
                   .build();
  whole->train();

  auto first = TrainerBuilder(ds)
                   .strategy("1.5d-overlap")
                   .ranks(4, 2)
                   .partitioner("gvb")
                   .pipeline_chunks(2)
                   .gcn(cfg)
                   .build();
  for (int e = 0; e < 2; ++e) (void)first->run_epoch();
  std::stringstream snapshot;
  first->save(snapshot);
  auto resumed = TrainerBuilder(ds).resume(snapshot);
  resumed->train();

  const TrainResult& a = resumed->result();
  const TrainResult& b = whole->result();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < b.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].loss, b.epochs[e].loss) << e;
  }
  EXPECT_EQ(a.pipeline_stages, b.pipeline_stages);
  for (const auto& [phase, vol] : b.phase_volumes) {
    ASSERT_TRUE(a.phase_volumes.count(phase)) << phase;
    EXPECT_DOUBLE_EQ(a.phase_volumes.at(phase).megabytes_per_epoch,
                     vol.megabytes_per_epoch)
        << phase;
    EXPECT_DOUBLE_EQ(a.phase_volumes.at(phase).messages_per_epoch,
                     vol.messages_per_epoch)
        << phase;
  }
}

}  // namespace
}  // namespace sagnn
