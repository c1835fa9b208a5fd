// Distributed tile SpMM on stacked square grids (2D at d = 1, the
// communication-avoiding 3D scheme above): cube-grid geometry rules,
// SpMM- and training-level serial parity at every depth, the structural
// property that its all-reduce volume is sparsity-independent, and the
// empty-slice path when the feature width is narrower than the depth
// (GNN-shaped widths are exactly where that happens).
#include <gtest/gtest.h>

#include <ostream>

#include "dist/spmm_3d.hpp"
#include "gnn/serial_trainer.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "simcomm/cluster.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

TEST(Spmm3dGeometry, FactorsStackedSquareGrids) {
  const CubeGrid g = CubeGrid::make(8, 2);
  EXPECT_EQ(g.q, 2);
  EXPECT_EQ(g.d, 2);
  EXPECT_EQ(CubeGrid::make(4, 1).q, 2);   // d = 1: plain 2D grid
  EXPECT_EQ(CubeGrid::make(4, 4).q, 1);   // q = 1: pure feature split
  EXPECT_EQ(CubeGrid::make(16, 4).q, 2);
  EXPECT_EQ(CubeGrid::make(12, 3).q, 2);  // non-square p, valid cube
}

TEST(Spmm3dGeometry, RanksDecomposeAsLayerRowColumn) {
  const CubeGrid g = CubeGrid::make(8, 2);  // 2 layers of 2x2
  EXPECT_EQ(g.layer(5), 1);
  EXPECT_EQ(g.grid_row(5), 0);
  EXPECT_EQ(g.grid_col(5), 1);
  EXPECT_EQ(g.rank_of(1, 0, 1), 5);
}

TEST(Spmm3dGeometry, RejectsNonCubeGeometries) {
  EXPECT_THROW(CubeGrid::make(8, 3), Error);   // 3 does not divide 8
  EXPECT_THROW(CubeGrid::make(8, 1), Error);   // 8 is not a square
  EXPECT_THROW(CubeGrid::make(24, 2), Error);  // 12 is not a square
  EXPECT_THROW(CubeGrid::make(0, 1), Error);
  EXPECT_THROW(CubeGrid::make(4, 0), Error);
}

struct Case3d {
  vid_t n;
  eid_t m;
  vid_t f;
  int p;
  int d;
  SpmmMode mode;
};

// Names the ctest entry of each sweep case (the default would dump the
// struct's bytes, padding included, which differ between runs).
void PrintTo(const Case3d& c, std::ostream* os) {
  *os << "n=" << c.n << " m=" << c.m << " f=" << c.f << " p=" << c.p
      << " d=" << c.d << " " << to_string(c.mode);
}

/// Runs `propagates` chained aggregations on every rank and stitches the
/// H-resident blocks of layer 0's diagonal ranks (one owner per block).
Matrix run_dist_3d(const CsrMatrix& a, const Matrix& h, int p, int d,
                   SpmmMode mode, int propagates = 1,
                   TrafficRecorder* traffic_out = nullptr) {
  const CubeGrid g = CubeGrid::make(p, d);
  const auto ranges = uniform_block_ranges(a.n_rows(), g.q);
  Matrix result(a.n_rows(), h.n_cols());
  Cluster cluster(p);
  cluster.run([&](Comm& comm) {
    DistSpmm3d spmm_dist(comm, a, ranges, d, mode);
    const BlockRange in = spmm_dist.input_range();
    Matrix local = h.slice_rows(in.begin, in.end);
    for (int i = 0; i < propagates; ++i) local = spmm_dist.propagate(local);
    const int r = comm.rank();
    if (g.layer(r) == 0 && g.grid_row(r) == g.grid_col(r)) {
      for (vid_t i = 0; i < local.n_rows(); ++i) {
        std::copy(local.row(i), local.row(i) + local.n_cols(),
                  result.row(in.begin + i));
      }
    }
  });
  if (traffic_out != nullptr) *traffic_out = cluster.traffic();
  return result;
}

class Spmm3dPropagateMatchesSerial : public ::testing::TestWithParam<Case3d> {};

TEST_P(Spmm3dPropagateMatchesSerial, Agrees) {
  const Case3d c = GetParam();
  Rng rng(c.n + c.p * 31 + c.d);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(c.n, c.m, rng));
  const Matrix h = Matrix::random_uniform(c.n, c.f, rng);
  EXPECT_LT(run_dist_3d(a, h, c.p, c.d, c.mode).max_abs_diff(spmm(a, h)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Spmm3dPropagateMatchesSerial,
    ::testing::Values(
        // d = 1: the 2D (SUMMA-style) scheme.
        Case3d{32, 200, 4, 1, 1, SpmmMode::kOblivious},
        Case3d{32, 200, 4, 4, 1, SpmmMode::kOblivious},
        Case3d{32, 200, 4, 4, 1, SpmmMode::kSparsityAware},
        Case3d{60, 400, 6, 9, 1, SpmmMode::kOblivious},
        Case3d{60, 400, 6, 9, 1, SpmmMode::kSparsityAware},
        Case3d{100, 900, 8, 16, 1, SpmmMode::kOblivious},
        Case3d{100, 900, 8, 16, 1, SpmmMode::kSparsityAware},
        // d > 1: feature slices, including q = 1 and widths below d.
        Case3d{48, 300, 6, 8, 2, SpmmMode::kOblivious},
        Case3d{48, 300, 6, 8, 2, SpmmMode::kSparsityAware},
        Case3d{40, 200, 5, 4, 4, SpmmMode::kSparsityAware},
        Case3d{64, 500, 7, 12, 3, SpmmMode::kSparsityAware},
        Case3d{32, 200, 2, 4, 4, SpmmMode::kSparsityAware}));

TEST(Spmm3d, ChainedPropagatesStayCorrect) {
  // Each propagate returns to H residency (grid column) through the
  // transpose partner, so propagates chain — the GCN layer pattern.
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 300, rng));
  const Matrix h = Matrix::random_uniform(48, 3, rng);
  Matrix expected = h;
  for (int i = 0; i < 3; ++i) expected = spmm(a, expected);
  for (const auto& [p, d] : {std::pair{9, 1}, std::pair{8, 2}}) {
    const Matrix z = run_dist_3d(a, h, p, d, SpmmMode::kSparsityAware, 3);
    EXPECT_LT(z.max_abs_diff(expected), 1e-3) << "p=" << p << " d=" << d;
  }
}

TEST(Spmm2d, AllreduceVolumeIsSparsityIndependent) {
  // The 2D algorithm's (d = 1) dominant communication (the row all-reduce
  // of Z) does not shrink with sparsity — CAGNET's reason for preferring
  // 1D/1.5D in GNN training.
  const vid_t n = 64;
  Rng rng(6);
  const CsrMatrix dense_g = CsrMatrix::from_coo(erdos_renyi(n, 1500, rng));
  CooMatrix diag(n, n);
  for (vid_t v = 0; v + 1 < n; v += 2) diag.add(v, v + 1, 1.0f);
  diag.symmetrize();
  const CsrMatrix sparse_g = CsrMatrix::from_coo(diag);
  const Matrix h = Matrix::random_uniform(n, 4, rng);

  TrafficRecorder t_dense(1), t_sparse(1);
  run_dist_3d(dense_g, h, 9, 1, SpmmMode::kSparsityAware, 1, &t_dense);
  run_dist_3d(sparse_g, h, 9, 1, SpmmMode::kSparsityAware, 1, &t_sparse);
  EXPECT_EQ(t_dense.phase("allreduce").total_bytes(),
            t_sparse.phase("allreduce").total_bytes());
  EXPECT_GT(t_dense.phase("allreduce").total_bytes(), 0u);
}

void expect_matches_serial(int p, int c, const std::vector<vid_t>& dims = {}) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const int epochs = 4;
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  if (!dims.empty()) cfg.dims = dims;
  cfg.learning_rate = 0.3f;

  SerialTrainer serial(ds, cfg);
  const auto serial_metrics = serial.train();

  auto trainer = TrainerBuilder(ds)
                     .strategy("3d")
                     .ranks(p, c)
                     .partitioner("gvb")
                     .gcn(cfg)
                     .build();
  trainer->train();
  const TrainResult dist = trainer->result();

  ASSERT_EQ(dist.epochs.size(), serial_metrics.size());
  for (std::size_t e = 0; e < serial_metrics.size(); ++e) {
    EXPECT_NEAR(dist.epochs[e].loss, serial_metrics[e].loss,
                5e-3 * std::max(1.0, serial_metrics[e].loss))
        << "p=" << p << " c=" << c << " epoch " << e;
    EXPECT_NEAR(dist.epochs[e].train_accuracy, serial_metrics[e].train_accuracy,
                0.02)
        << "p=" << p << " c=" << c << " epoch " << e;
  }
}

TEST(Spmm3dMatchesSerial, DepthTwoStackOfTwoByTwo) {
  expect_matches_serial(/*p=*/8, /*c=*/2);  // q = 2, d = 2
}

TEST(Spmm3dMatchesSerial, PureFeatureSplit) {
  expect_matches_serial(/*p=*/4, /*c=*/4);  // q = 1, d = 4: no row comm
}

TEST(Spmm3dMatchesSerial, DepthOneDegeneratesToTwoD) {
  expect_matches_serial(/*p=*/4, /*c=*/1);  // q = 2, d = 1
}

TEST(Spmm3dMatchesSerial, WidthNarrowerThanDepthLeavesSlicesEmpty) {
  // Hidden width 2 with d = 4: layers 2 and 3 own empty feature slices in
  // the hidden propagates, so the empty-slice guards must stay symmetric
  // across the layer-row all-reduce, the transpose, and the depth
  // all-gather.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  expect_matches_serial(/*p=*/4, /*c=*/4,
                        {ds.n_features(), 2, 2, ds.n_classes});
}

}  // namespace
}  // namespace sagnn
