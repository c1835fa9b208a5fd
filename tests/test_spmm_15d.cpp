// Distributed row-replicated SpMM (Algorithm 2, and Algorithm 1 at c = 1):
// grid layout, correctness against serial SpMM across (p, c) combinations
// and both modes, replication consistency, and the c = 1 (1D) volume,
// locality and degenerate-partition properties. Tests that run only at
// c = 1 form the Spmm1d suite.
#include <gtest/gtest.h>

#include <ostream>

#include "dist/spmm_15d.hpp"
#include "graph/generators.hpp"
#include "partition/metrics.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

TEST(GridLayout, ShapeAndIndexing) {
  const GridLayout g = GridLayout::make(8, 2);
  EXPECT_EQ(g.rows, 4);
  EXPECT_EQ(g.s, 2);
  EXPECT_EQ(g.grid_row(5), 2);
  EXPECT_EQ(g.grid_col(5), 1);
  EXPECT_EQ(g.rank_of(2, 1), 5);
}

TEST(GridLayout, RejectsIndivisible) {
  EXPECT_THROW(GridLayout::make(6, 2), Error);  // c^2=4 does not divide 6
  EXPECT_THROW(GridLayout::make(8, 0), Error);
}

struct Case15 {
  vid_t n;
  eid_t m;
  vid_t f;
  int p;
  int c;
  SpmmMode mode;
};

// Names the ctest entry of each sweep case (the default would dump the
// struct's bytes, padding included, which differ between runs).
void PrintTo(const Case15& c, std::ostream* os) {
  *os << "n=" << c.n << " m=" << c.m << " f=" << c.f << " p=" << c.p
      << " c=" << c.c << " " << to_string(c.mode);
}

/// Runs one multiply on every rank and stitches grid column 0's blocks
/// into the full result. `ranges` defaults to p/c uniform block rows.
Matrix run_dist_15d(const CsrMatrix& a, const Matrix& h, int p, int c,
                    SpmmMode mode, TrafficRecorder* traffic_out = nullptr,
                    std::vector<BlockRange> ranges = {}) {
  if (ranges.empty()) ranges = uniform_block_ranges(a.n_rows(), p / c);
  Matrix result(a.n_rows(), h.n_cols());
  std::vector<Matrix> replicas(static_cast<std::size_t>(p));
  Cluster cluster(p);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, c, mode);
    const BlockRange r = spmm_dist.my_range();
    const Matrix h_local = h.slice_rows(r.begin, r.end);
    const Matrix z_local = spmm_dist.multiply(h_local);
    replicas[static_cast<std::size_t>(comm.rank())] = z_local;
    if (spmm_dist.layout().grid_col(comm.rank()) == 0) {
      for (vid_t i = 0; i < z_local.n_rows(); ++i) {
        std::copy(z_local.row(i), z_local.row(i) + z_local.n_cols(),
                  result.row(r.begin + i));
      }
    }
  });
  // Replication consistency: all ranks in a process row hold identical Z.
  const GridLayout g = GridLayout::make(p, c);
  for (int rank = 0; rank < p; ++rank) {
    const int row0 = g.rank_of(g.grid_row(rank), 0);
    EXPECT_EQ(replicas[static_cast<std::size_t>(rank)].max_abs_diff(
                  replicas[static_cast<std::size_t>(row0)]),
              0.0)
        << "rank " << rank << " disagrees with its process row";
  }
  if (traffic_out != nullptr) *traffic_out = cluster.traffic();
  return result;
}

class Spmm15dMatchesSerial : public ::testing::TestWithParam<Case15> {};

TEST_P(Spmm15dMatchesSerial, Agrees) {
  const Case15 c = GetParam();
  Rng rng(c.n + c.p * 31 + c.c);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(c.n, c.m, rng));
  const Matrix h = Matrix::random_uniform(c.n, c.f, rng);
  const Matrix z = run_dist_15d(a, h, c.p, c.c, c.mode);
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spmm15dMatchesSerial,
    ::testing::Values(
        // c = 1: the 1D algorithm, including one rank and non-power-of-two p.
        Case15{16, 60, 3, 1, 1, SpmmMode::kOblivious},
        Case15{16, 60, 3, 1, 1, SpmmMode::kSparsityAware},
        Case15{64, 400, 8, 4, 1, SpmmMode::kOblivious},
        Case15{64, 400, 8, 4, 1, SpmmMode::kSparsityAware},
        Case15{100, 700, 5, 7, 1, SpmmMode::kOblivious},
        Case15{100, 700, 5, 7, 1, SpmmMode::kSparsityAware},
        Case15{128, 1500, 16, 16, 1, SpmmMode::kOblivious},
        Case15{128, 1500, 16, 16, 1, SpmmMode::kSparsityAware},
        Case15{37, 150, 2, 5, 1, SpmmMode::kSparsityAware},
        Case15{256, 4000, 4, 8, 1, SpmmMode::kSparsityAware},
        Case15{64, 400, 4, 4, 1, SpmmMode::kOblivious},
        Case15{64, 400, 4, 4, 1, SpmmMode::kSparsityAware},
        // c > 1: replicated block rows.
        Case15{64, 400, 4, 4, 2, SpmmMode::kOblivious},
        Case15{64, 400, 4, 4, 2, SpmmMode::kSparsityAware},
        Case15{96, 800, 8, 8, 2, SpmmMode::kOblivious},
        Case15{96, 800, 8, 8, 2, SpmmMode::kSparsityAware},
        Case15{96, 800, 6, 16, 4, SpmmMode::kOblivious},
        Case15{96, 800, 6, 16, 4, SpmmMode::kSparsityAware},
        Case15{50, 300, 3, 9, 3, SpmmMode::kSparsityAware},
        Case15{128, 1200, 8, 16, 2, SpmmMode::kSparsityAware}));

TEST(Spmm15d, C1MatchesP2PVolumeOf1D) {
  // With c=1 the 1.5D algorithm degenerates to a 1D decomposition; the
  // sparsity-aware row-exchange volume must equal the 1D prediction.
  Rng rng(3);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(60, 400, rng));
  const Matrix h = Matrix::random_uniform(60, 4, rng);
  TrafficRecorder traffic(1);
  run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware, &traffic);
  // The volume model of the uniform block partition run_dist_15d uses.
  const std::uint64_t predicted =
      compute_volume_stats(a, BlockPartitioner().partition(a, 4)).total_rows() *
      4 * sizeof(real_t);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), predicted);
}

TEST(Spmm15d, RejectsNonSquareMatrixAndRangesThatDoNotTile) {
  const auto construct = [](const CsrMatrix& a, std::vector<BlockRange> ranges,
                            SpmmMode mode) {
    Cluster cluster(static_cast<int>(ranges.size()));
    cluster.run([&](Comm& comm) {
      const DistSpmm15d spmm_dist(comm, a, ranges, 1, mode);
    });
  };
  const CsrMatrix a = CsrMatrix::zeros(8, 8);
  for (SpmmMode mode : {SpmmMode::kOblivious, SpmmMode::kSparsityAware}) {
    EXPECT_NO_THROW(construct(a, uniform_block_ranges(8, 2), mode));
    EXPECT_THROW(construct(CsrMatrix::zeros(8, 9), {{0, 4}, {4, 8}}, mode), Error);
    EXPECT_THROW(construct(a, {{1, 4}, {4, 8}}, mode), Error);  // not from 0
    EXPECT_THROW(construct(a, {{0, 3}, {4, 8}}, mode), Error);  // gap
    EXPECT_THROW(construct(a, {{0, 5}, {4, 8}}, mode), Error);  // overlap
    EXPECT_THROW(construct(a, {{0, 4}, {4, 7}}, mode), Error);  // short of n
  }
}

TEST(Spmm15d, BlockFormsMultiplyBitwiseAlike) {
  // The oblivious plain blocks and the sparsity-aware compacted blocks hold
  // the same nonzeros in the same CSR order, so every rank's output is
  // bitwise identical across modes and schedules.
  Rng rng(15);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(96, 900, rng));
  const Matrix h = Matrix::random_uniform(96, 7, rng);
  const int p = 16;
  for (int c : {1, 2, 4}) {
    const auto ranges = uniform_block_ranges(96, p / c);
    std::vector<Matrix> oblivious(p), sparse(p), pipelined(p);
    Cluster cluster(p);
    cluster.run([&](Comm& comm) {
      DistSpmm15d obl(comm, a, ranges, c, SpmmMode::kOblivious);
      DistSpmm15d sa(comm, a, ranges, c, SpmmMode::kSparsityAware);
      const BlockRange r = sa.my_range();
      const Matrix h_local = h.slice_rows(r.begin, r.end);
      const auto me = static_cast<std::size_t>(comm.rank());
      oblivious[me] = obl.multiply(h_local);
      sparse[me] = sa.multiply(h_local);
      pipelined[me] = sa.multiply_pipelined(h_local, 3, nullptr);
    });
    for (int rank = 0; rank < p; ++rank) {
      const auto me = static_cast<std::size_t>(rank);
      EXPECT_TRUE(sparse[me] == oblivious[me]) << "c=" << c << " rank " << rank;
      EXPECT_TRUE(pipelined[me] == oblivious[me]) << "c=" << c << " rank " << rank;
    }
  }
}

TEST(Spmm1d, SparseVolumeNeverExceedsOblivious) {
  Rng rng(9);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(96, 500, rng));
  const Matrix h = Matrix::random_uniform(96, 8, rng);
  TrafficRecorder tr_obl(1), tr_sa(1);
  run_dist_15d(a, h, 6, 1, SpmmMode::kOblivious, &tr_obl);
  run_dist_15d(a, h, 6, 1, SpmmMode::kSparsityAware, &tr_sa);
  const auto obl = tr_obl.phase("bcast").total_bytes();
  const auto sa = tr_sa.phase("alltoall").total_bytes();
  EXPECT_GT(obl, 0u);
  EXPECT_LE(sa, obl);
}

TEST(Spmm1d, SparseVolumeMatchesNnzColsPrediction) {
  Rng rng(10);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(80, 400, rng));
  const vid_t f = 8;
  const Matrix h = Matrix::random_uniform(80, f, rng);
  const int p = 5;
  // Predict: remote rows of the block partition's volume model (the rows
  // of H_j each block A^T_{ij}, i != j, reads) * f * sizeof(real_t).
  const std::uint64_t predicted =
      compute_volume_stats(a, BlockPartitioner().partition(a, p)).total_rows() *
      static_cast<std::uint64_t>(f) * sizeof(real_t);
  TrafficRecorder traffic(1);
  run_dist_15d(a, h, p, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), predicted);
}

TEST(Spmm1d, BlockLocalGraphIsCommunicationFree) {
  // Edges only within blocks: the sparsity-aware all-to-all must carry
  // zero remote payload ("communication-free training" regime).
  CooMatrix coo(32, 32);
  for (vid_t v = 0; v < 32; v += 8) {
    for (vid_t i = 0; i < 7; ++i) coo.add(v + i, v + i + 1, 1.0f);
  }
  coo.symmetrize();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(1);
  const Matrix h = Matrix::random_uniform(32, 4, rng);
  TrafficRecorder traffic(1);
  const Matrix z = run_dist_15d(a, h, 4, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-5);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), 0u);
}

TEST(Spmm1d, WorksOnDisconnectedGraph) {
  // Two components split across ranks: zero cross traffic for SA when the
  // blocks align with components.
  CooMatrix coo(20, 20);
  for (vid_t v = 0; v < 9; ++v) coo.add(v, v + 1, 1.0f);
  for (vid_t v = 10; v < 19; ++v) coo.add(v, v + 1, 1.0f);
  coo.symmetrize();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  Rng rng(14);
  const Matrix h = Matrix::random_uniform(20, 2, rng);
  TrafficRecorder traffic(1);
  const Matrix z = run_dist_15d(a, h, 2, 1, SpmmMode::kSparsityAware, &traffic);
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-5);
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), 0u);
}

TEST(Spmm1d, HandlesEmptyBlocks) {
  // A rank may own zero rows (degenerate partitions); the algorithms must
  // still work — its block contributes nothing and it requests nothing.
  Rng rng(13);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(30, 120, rng));
  const Matrix h = Matrix::random_uniform(30, 3, rng);
  const std::vector<vid_t> sizes{10, 0, 20};
  for (SpmmMode mode : {SpmmMode::kOblivious, SpmmMode::kSparsityAware}) {
    const Matrix z = run_dist_15d(a, h, 3, 1, mode, nullptr, ranges_from_sizes(sizes));
    EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-4) << to_string(mode);
  }
}

TEST(Spmm15d, ReplicationReducesRowExchangeVolume) {
  // Increasing c reduces the number of off-diagonal blocks each rank must
  // fetch rows for (at the price of the all-reduce) — the 1.5D tradeoff.
  Rng rng(4);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(128, 2000, rng));
  const Matrix h = Matrix::random_uniform(128, 8, rng);
  TrafficRecorder t1(1), t2(1);
  run_dist_15d(a, h, 16, 1, SpmmMode::kSparsityAware, &t1);
  run_dist_15d(a, h, 16, 2, SpmmMode::kSparsityAware, &t2);
  EXPECT_LT(t2.phase("alltoall").total_bytes(), t1.phase("alltoall").total_bytes());
  EXPECT_GT(t2.phase("allreduce").total_bytes(), t1.phase("allreduce").total_bytes());
}

TEST(Spmm15d, ObliviousBcastVolumeIndependentOfSparsity) {
  // The oblivious algorithm moves the same bytes for a dense-ish and a
  // nearly-diagonal graph of equal size; the sparsity-aware one does not.
  const vid_t n = 64;
  Rng rng(5);
  const CsrMatrix dense_g = CsrMatrix::from_coo(erdos_renyi(n, 1200, rng));
  CooMatrix diag(n, n);
  for (vid_t v = 0; v + 1 < n; v += 2) diag.add(v, v + 1, 1.0f);
  diag.symmetrize();
  const CsrMatrix sparse_g = CsrMatrix::from_coo(diag);
  const Matrix h = Matrix::random_uniform(n, 4, rng);

  TrafficRecorder obl_dense(1), obl_sparse(1), sa_dense(1), sa_sparse(1);
  run_dist_15d(dense_g, h, 8, 2, SpmmMode::kOblivious, &obl_dense);
  run_dist_15d(sparse_g, h, 8, 2, SpmmMode::kOblivious, &obl_sparse);
  run_dist_15d(dense_g, h, 8, 2, SpmmMode::kSparsityAware, &sa_dense);
  run_dist_15d(sparse_g, h, 8, 2, SpmmMode::kSparsityAware, &sa_sparse);

  EXPECT_EQ(obl_dense.phase("bcast").total_bytes(),
            obl_sparse.phase("bcast").total_bytes());
  EXPECT_LT(sa_sparse.phase("alltoall").total_bytes(),
            sa_dense.phase("alltoall").total_bytes());
}

TEST(Spmm1d, RepeatedMultipliesStayCorrect) {
  // The index exchange happens once; multiple multiplies (as in training)
  // must all be right.
  Rng rng(11);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(40, 240, rng));
  const auto ranges = uniform_block_ranges(40, 4);
  Matrix h = Matrix::random_uniform(40, 4, rng);
  Matrix expected = h;
  for (int iter = 0; iter < 3; ++iter) expected = spmm(a, expected);

  Matrix result(40, 4);
  Cluster cluster(4);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 1, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    Matrix h_local = h.slice_rows(r.begin, r.end);
    for (int iter = 0; iter < 3; ++iter) h_local = spmm_dist.multiply(h_local);
    for (vid_t i = 0; i < h_local.n_rows(); ++i) {
      std::copy(h_local.row(i), h_local.row(i) + 4, result.row(r.begin + i));
    }
  });
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

TEST(Spmm15d, RepeatedMultipliesStayCorrect) {
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 300, rng));
  const auto ranges = uniform_block_ranges(48, 4);
  Matrix h = Matrix::random_uniform(48, 3, rng);
  Matrix expected = h;
  for (int i = 0; i < 3; ++i) expected = spmm(a, expected);

  Matrix result(48, 3);
  Cluster cluster(8);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 2, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    Matrix h_local = h.slice_rows(r.begin, r.end);
    for (int i = 0; i < 3; ++i) h_local = spmm_dist.multiply(h_local);
    if (spmm_dist.layout().grid_col(comm.rank()) == 0) {
      for (vid_t i = 0; i < h_local.n_rows(); ++i) {
        std::copy(h_local.row(i), h_local.row(i) + 3, result.row(r.begin + i));
      }
    }
  });
  EXPECT_LT(result.max_abs_diff(expected), 1e-3);
}

TEST(Spmm1d, ComputeSecondsAccumulate) {
  Rng rng(12);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 800, rng));
  const auto ranges = uniform_block_ranges(64, 2);
  const Matrix h = Matrix::random_uniform(64, 32, rng);
  std::vector<double> secs(2, 0.0);
  Cluster cluster(2);
  cluster.run([&](Comm& comm) {
    DistSpmm15d spmm_dist(comm, a, ranges, 1, SpmmMode::kSparsityAware);
    const BlockRange r = spmm_dist.my_range();
    (void)spmm_dist.multiply(h.slice_rows(r.begin, r.end),
                             &secs[static_cast<std::size_t>(comm.rank())]);
  });
  EXPECT_GT(secs[0] + secs[1], 0.0);
}

}  // namespace
}  // namespace sagnn
