// The two distribution-strategy families behind every registered name
// (paper §4):
//   * row-replicated: block rows replicated c times (DistSpmm15d) — the
//     paper's 1D Algorithm 1 at c = 1, its 1.5D Algorithm 2 above;
//   * grid: tiles on d stacked q x q grids (DistSpmm3d) — CAGNET's 2D
//     (SUMMA-style) scheme at d = 1, communication-avoiding 3D above.
// A registry name binds one parameter set of a family (the registration
// lines at the bottom). That binding is the only place the parameters can
// be set, so a new schedule is usually a new binding, not a new class.

#include <algorithm>

#include "dist/spmm_15d.hpp"
#include "dist/spmm_3d.hpp"
#include "gnn/strategy.hpp"
#include "plan/census.hpp"

namespace sagnn {
namespace {

/// Where a family's second grid dimension (the replication factor c, or
/// the depth d) comes from.
enum class Dim {
  kOne,      ///< fixed at 1 (the 1D and 2D names ignore the c knob)
  kContext,  ///< StrategyContext::c / PredictInput::c
};

/// How a row-replicated strategy schedules its sparsity-aware exchange.
enum class Schedule {
  /// One bulk-synchronous exchange per propagate.
  kBulk,
  /// K column chunks per propagate: chunk k+1's alltoallv is posted before
  /// chunk k's local SpMM (the overlap direction of Selvitopi et al.).
  /// Stage tags "alltoall#k" restart every propagate and appear only when
  /// the chunk count clamped to the feature width is above 1.
  kChunked,
  /// K column chunks on an epoch-wide stage cursor, reset by
  /// begin_epoch(): layer l+1's first exchange takes the pipeline slot
  /// right after layer l's last SpMM chunk (cross-layer latency hiding).
  /// Tagged even at K = 1; the grid-row all-reduce gets its own stage.
  kCrossLayer,
};

/// rank_work() of both families: rank r's share is the nnz of block row
/// row_of(r), split `ways` ways.
template <typename RowOf>
std::vector<double> block_row_work(const StrategyContext& ctx, RowOf row_of,
                                   double ways) {
  std::vector<double> work(static_cast<std::size_t>(ctx.p), 0.0);
  const auto row_ptr = ctx.adjacency->row_ptr();
  for (int r = 0; r < ctx.p; ++r) {
    const BlockRange& range = ctx.ranges[static_cast<std::size_t>(row_of(r))];
    work[static_cast<std::size_t>(r)] =
        static_cast<double>(row_ptr[range.end] - row_ptr[range.begin]) / ways;
  }
  return work;
}

/// Block rows replicated c times: rank r holds block row r / c, and
/// reductions run over the grid column (one replica of every block row).
/// Chunked schedules move the bulk bytes in K times the alltoall messages;
/// the grid-row all-reduce is never column-split, so its messages do not
/// scale with K.
class RowReplicated final : public DistributionStrategy {
 public:
  RowReplicated(std::string name, SpmmMode mode, Dim c, Schedule schedule)
      : name_(std::move(name)), mode_(mode), c_(c), schedule_(schedule) {}

  std::string name() const override { return name_; }

  int n_blocks(int p, int c) const override {
    return GridLayout::make(p, width(c)).rows;
  }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    if (schedule_ != Schedule::kBulk) {
      SAGNN_REQUIRE(ctx.pipeline_chunks >= 1,
                    "pipeline_chunks must be at least 1");
      chunks_ = ctx.pipeline_chunks;
    }
    spmm_ = std::make_unique<DistSpmm15d>(comm, *ctx.adjacency, ctx.ranges,
                                          width(ctx.c), mode_);
  }

  void begin_epoch() override { stage_ = 0; }

  Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) override {
    return propagate(x_local, cpu_seconds);
  }
  Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) override {
    return propagate(g_local, cpu_seconds);
  }

  Comm& reduce_comm() override { return spmm_->col_comm(); }
  const BlockRange& my_range() const override { return spmm_->my_range(); }

  std::vector<double> rank_work(const StrategyContext& ctx) const override {
    // The c replicas of a grid row split its block's nnz evenly.
    const GridLayout layout = GridLayout::make(ctx.p, width(ctx.c));
    return block_row_work(
        ctx, [&](int r) { return layout.grid_row(r); }, layout.s);
  }

  PredictedCost predict_cost(const PredictInput& in) const override;

 private:
  int width(int c) const { return c_ == Dim::kContext ? c : 1; }

  Matrix propagate(const Matrix& h_local, double* cpu_seconds) {
    if (schedule_ == Schedule::kBulk) return spmm_->multiply(h_local, cpu_seconds);
    if (schedule_ == Schedule::kCrossLayer) {
      return spmm_->multiply_pipelined(h_local, chunks_, &stage_, cpu_seconds);
    }
    int stage = 0;
    const bool staged = chunks_ > 1 && h_local.n_cols() > 1;
    return spmm_->multiply_pipelined(h_local, chunks_,
                                     staged ? &stage : nullptr, cpu_seconds);
  }

  std::string name_;
  SpmmMode mode_;
  Dim c_;
  Schedule schedule_;
  int chunks_ = 4;
  /// Epoch-wide pipeline-stage cursor of the cross-layer schedule.
  int stage_ = 0;
  std::unique_ptr<DistSpmm15d> spmm_;
};

PredictedCost RowReplicated::predict_cost(const PredictInput& in) const {
  PredictedCost out;
  if (in.census == nullptr) {
    out.note = name() + " prediction needs a census";
    return out;
  }
  GridLayout layout;
  try {
    layout = GridLayout::make(in.p, width(in.c));
  } catch (const Error& err) {
    out.note = err.what();
    return out;
  }
  const GraphCensus& cs = *in.census;
  if (static_cast<vid_t>(layout.rows) > cs.n) {
    out.note = c_ == Dim::kOne ? "more ranks than vertices"
                               : "more block rows than vertices";
    return out;
  }

  const CostEstimator e(in.model);
  const double n = static_cast<double>(cs.n);
  const double s = sizeof(real_t);
  const int rows = layout.rows;
  const int c = layout.s;
  const int k = schedule_ == Schedule::kBulk ? 1 : std::max(1, in.chunks);
  // Reduce scope: a grid column, `rows` members spaced c apart. Each rank
  // holds an n*c/p-row replica.
  const std::vector<vid_t> widths =
      predict_base(out.cost, in, rows, n * c / in.p, rows, c);
  // Sparsity-aware: the grid-column fetch of the halo rows the partitioner
  // left behind, bottleneck rank at the send-imbalance factor. Oblivious:
  // every remote block row in the grid column is broadcast. The 1D names
  // keep their own spelling of the remote rows, n - n/p: it differs from
  // (rows - 1) n/p in the last bit, enough to reorder near-tied plans.
  const double halo = cs.expected_halo_rows(in.partitioner, rows);
  const double imb = cs.expected_send_imbalance(in.partitioner, rows);
  const double remote_rows = c_ == Dim::kOne ? n - n / in.p : (rows - 1) * n / in.p;
  for (vid_t width : widths) {
    const double w = static_cast<double>(width);
    if (mode_ == SpmmMode::kSparsityAware) {
      e.alltoall(out.cost, halo / in.p * imb * w * s,
                 static_cast<double>(k) * (rows - 1), rows, c);
    } else {
      e.bcast(out.cost, remote_rows * w * s, rows - 1, rows, c);
    }
    // Grid-row partial-sum all-reduce across the c replicas.
    if (c > 1) e.allreduce(out.cost, (n * c / in.p) * w * s, c, 1);
  }
  out.valid = true;
  // Modeled pipeline depth: K stages per propagate, or, across layers, K
  // per propagate plus the final drain (the trainer records n_prop * K
  // stages for K >= 2, n_prop + 1 at K = 1).
  const int n_prop = static_cast<int>(widths.size());
  if (schedule_ == Schedule::kChunked) out.depth = k;
  if (schedule_ == Schedule::kCrossLayer) {
    out.depth = std::max(n_prop * k, n_prop + 1);
  }
  return out;
}

/// Tiles on d stacked q x q grids: rank (l, i, j) holds tile Â_{ij}, H
/// block j and the 1/d feature slice l. Aggregations return to H
/// residency so layers chain. The ranks of a layer's grid row hold
/// pairwise-distinct H blocks, so that row is the reduction scope; the d
/// parallel rings see identical data in identical order, keeping the
/// weights bitwise-replicated across layers. The family has no mode: a
/// tile reads H in place, so "2d-oblivious" and "2d-sparse" bind the same
/// grid.
class Grid final : public DistributionStrategy {
 public:
  Grid(std::string name, Dim depth) : name_(std::move(name)), depth_(depth) {}

  std::string name() const override { return name_; }

  int n_blocks(int p, int c) const override { return grid(p, c).q; }

  void setup(Comm& comm, const StrategyContext& ctx) override {
    spmm_ = std::make_unique<DistSpmm3d>(comm, *ctx.adjacency, ctx.ranges,
                                         depth(ctx.c));
  }

  Matrix propagate_forward(const Matrix& x_local, double* cpu_seconds) override {
    return spmm_->propagate(x_local, cpu_seconds);
  }
  Matrix propagate_backward(const Matrix& g_local, double* cpu_seconds) override {
    return spmm_->propagate(g_local, cpu_seconds);
  }

  Comm& reduce_comm() override { return spmm_->row_comm(); }
  /// Training state lives in H residency: the input range.
  const BlockRange& my_range() const override { return spmm_->input_range(); }

  std::vector<double> rank_work(const StrategyContext& ctx) const override {
    // Approximate tile Â_{ij}'s nnz-work against a 1/d slice as block row
    // i's nnz split q ways across the row and d ways across the depth.
    const CubeGrid g = grid(ctx.p, ctx.c);
    return block_row_work(
        ctx, [&](int r) { return g.grid_row(r); },
        static_cast<double>(g.q) * g.d);
  }

  PredictedCost predict_cost(const PredictInput& in) const override;

 private:
  int depth(int c) const { return depth_ == Dim::kContext ? c : 1; }

  CubeGrid grid(int p, int c) const {
    if (depth_ == Dim::kOne) {
      // The 2D names keep their own geometry message (Plan::skipped shows
      // it to users).
      SAGNN_REQUIRE(p >= 1, "need at least one rank");
      int q = 1;
      while (q * q < p) ++q;
      SAGNN_REQUIRE(q * q == p, "2D requires a perfect-square rank count");
    }
    return CubeGrid::make(p, depth(c));
  }

  std::string name_;
  Dim depth_;
  std::unique_ptr<DistSpmm3d> spmm_;
};

PredictedCost Grid::predict_cost(const PredictInput& in) const {
  PredictedCost out;
  if (in.census == nullptr) {
    out.note = name() + " prediction needs a census";
    return out;
  }
  CubeGrid g;
  try {
    g = grid(in.p, in.c);
  } catch (const Error& err) {
    out.note = err.what();
    return out;
  }
  const GraphCensus& cs = *in.census;
  if (static_cast<vid_t>(g.q) > cs.n) {
    out.note = "more grid rows than vertices";
    return out;
  }

  const CostEstimator e(in.model);
  const double n = static_cast<double>(cs.n);
  const double d = static_cast<double>(g.d);
  const double s = sizeof(real_t);
  // Reduce scope: a layer grid row (q members, stride 1 in world order).
  // The dense Z all-reduce and the residency transpose are oblivious to
  // sparsity.
  const std::vector<vid_t> widths = predict_base(out.cost, in, g.q, n / g.q, g.q, 1);
  for (vid_t width : widths) {
    const double w = static_cast<double>(width);
    // Layer-row partial-sum all-reduce and transpose on the 1/d slice.
    e.allreduce(out.cost, (n / g.q) * (w / d) * s, g.q, 1);
    e.exchange(out.cost, (n / g.q) * (w / d) * s, 1, in.p, g.q);
    // Depth all-gather ring reassembling the other layers' slices; fiber
    // members are spaced q^2 apart.
    if (g.d > 1) {
      e.exchange(out.cost, (n / g.q) * w * ((d - 1.0) / d) * s, g.d - 1, g.d,
                 g.q * g.q);
    }
  }
  out.valid = true;
  return out;
}

/// Registers `name` (plus aliases) as one parameter binding of `Family`.
template <typename Family, typename... Params>
StrategyRegistration bind(const char* name, std::vector<std::string> aliases,
                          Params... params) {
  return {name, std::move(aliases),
          [=] { return std::make_unique<Family>(name, params...); }};
}

constexpr SpmmMode kOblivious = SpmmMode::kOblivious;
constexpr SpmmMode kSparse = SpmmMode::kSparsityAware;

const StrategyRegistration kRegistrations[] = {
    bind<RowReplicated>("1d-oblivious", {"1d-oblivious(cagnet)", "cagnet"},
                        kOblivious, Dim::kOne, Schedule::kBulk),
    bind<RowReplicated>("1d-sparse", {"1d-sparsity-aware"}, kSparse,
                        Dim::kOne, Schedule::kBulk),
    bind<RowReplicated>("1d-overlap", {"1d-pipelined"}, kSparse, Dim::kOne,
                        Schedule::kChunked),
    bind<RowReplicated>("1.5d-oblivious", {}, kOblivious, Dim::kContext,
                        Schedule::kBulk),
    bind<RowReplicated>("1.5d-sparse", {"1.5d-sparsity-aware"}, kSparse,
                        Dim::kContext, Schedule::kBulk),
    bind<RowReplicated>("1.5d-overlap", {"15d-overlap", "1.5d-pipelined"},
                        kSparse, Dim::kContext, Schedule::kCrossLayer),
    bind<Grid>("2d-oblivious", {"2d-oblivious(summa)", "summa"}, Dim::kOne),
    bind<Grid>("2d-sparse", {"2d-sparsity-aware"}, Dim::kOne),
    bind<Grid>("3d", {"3d-comm-avoiding"}, Dim::kContext),
};

}  // namespace
}  // namespace sagnn
