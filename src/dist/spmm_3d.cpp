#include "dist/spmm_3d.hpp"

#include "common/timer.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {

namespace {
/// User tag for the within-layer transpose exchange (must stay below
/// kUserTagLimit).
constexpr long kTransposeTag = 2001;
}  // namespace

CubeGrid CubeGrid::make(int p, int d) {
  SAGNN_REQUIRE(p >= 1, "need at least one rank");
  SAGNN_REQUIRE(d >= 1, "3D depth (the c knob) must be >= 1");
  SAGNN_REQUIRE(p % d == 0, "3D requires the depth c to divide p");
  int q = 1;
  while (q * q < p / d) ++q;
  SAGNN_REQUIRE(q * q == p / d,
                "3D requires p = q^2 * c (stacked square grids)");
  return {p, q, d};
}

DistSpmm3d::DistSpmm3d(Comm& comm, const CsrMatrix& a,
                       std::span<const BlockRange> ranges, int depth, SpmmMode mode)
    : grid_(CubeGrid::make(comm.size(), depth)),
      layer_(grid_.layer(comm.rank())),
      grid_row_(grid_.grid_row(comm.rank())),
      grid_col_(grid_.grid_col(comm.rank())),
      mode_(mode),
      world_(comm),
      row_comm_(comm.split([this](int r) {
        return grid_.layer(r) * grid_.q + grid_.grid_row(r);
      })),
      fiber_comm_(comm.split([this](int r) {
        return grid_.grid_row(r) * grid_.q + grid_.grid_col(r);
      })) {
  SAGNN_REQUIRE(static_cast<int>(ranges.size()) == grid_.q,
                "3D needs one block per grid dimension");
  SAGNN_REQUIRE(a.n_rows() == a.n_cols(), "distributed matrix must be square");
  SAGNN_REQUIRE(ranges.front().begin == 0 && ranges.back().end == a.n_rows(),
                "block ranges must tile [0, n)");
  input_range_ = ranges[static_cast<std::size_t>(grid_col_)];
  output_range_ = ranges[static_cast<std::size_t>(grid_row_)];

  const CsrMatrix row_block = extract_row_block(a, output_range_);
  tile_ = std::move(
      split_block_cols(row_block, ranges)[static_cast<std::size_t>(grid_col_)]);
  compacted_ = compact_columns(tile_);
}

Matrix DistSpmm3d::propagate(const Matrix& h_local, double* cpu_seconds) {
  SAGNN_REQUIRE(h_local.n_rows() == input_range_.size(),
                "H block must match this rank's input residency");
  const vid_t f = h_local.n_cols();
  const vid_t begin = slice_begin(f, layer_);
  const vid_t end = slice_begin(f, layer_ + 1);
  const vid_t w = end - begin;

  // Local partial on this layer's feature slice. Every member of the
  // layer's grid row shares `w` (same layer), so skipping empty slices
  // below is symmetric across each collective's communicator.
  ThreadCpuTimer timer;
  Matrix z(output_range_.size(), w);
  if (w > 0) {
    // At d = 1 the slice is the whole input: read it in place.
    Matrix sliced;
    if (grid_.d > 1) sliced = h_local.slice_cols(begin, end);
    const Matrix& x = grid_.d > 1 ? sliced : h_local;
    if (mode_ == SpmmMode::kSparsityAware) {
      if (compacted_.matrix.nnz() > 0) {
        const Matrix packed = x.gather_rows(compacted_.cols);
        spmm_accumulate(compacted_.matrix, packed, z);
      }
    } else {
      spmm_accumulate(tile_, x, z);
    }
  }
  if (cpu_seconds != nullptr) *cpu_seconds += timer.seconds();

  // Partial-sum all-reduce across the layer's grid row (the dominant
  // phase; at d > 1 it moves only the 1/d slice).
  if (grid_.q > 1 && w > 0) {
    allreduce_sum<real_t>(row_comm_, {z.data(), z.size()}, "allreduce");
  }

  // Transpose remap within the layer: Z residency (grid row) back to H
  // residency (grid column).
  Matrix h_slice;
  const int partner = grid_.rank_of(layer_, grid_col_, grid_row_);
  if (partner == world_.rank()) {
    h_slice = std::move(z);
  } else if (w > 0) {
    world_.send<real_t>(partner, kTransposeTag, {z.data(), z.size()},
                        "transpose");
    h_slice = Matrix(input_range_.size(), w);
    world_.recv_into<real_t>(partner, kTransposeTag,
                             {h_slice.data(), h_slice.size()});
  } else {
    h_slice = Matrix(input_range_.size(), 0);
  }

  // Depth all-gather: reassemble the full feature width from the d layers'
  // slices. The fiber communicator's rank IS the layer (split() keeps
  // world-rank order and the layer is the high digit), so slices land at
  // their layer index.
  if (grid_.d == 1) return h_slice;
  auto slices = allgatherv<real_t>(
      fiber_comm_, {h_slice.data(), h_slice.size()}, "depth_allgather");
  Matrix out(input_range_.size(), f);
  for (int l = 0; l < grid_.d; ++l) {
    const vid_t b = slice_begin(f, l);
    const vid_t e = slice_begin(f, l + 1);
    if (e == b) continue;
    out.paste_cols(b, Matrix(input_range_.size(), e - b,
                             std::move(slices[static_cast<std::size_t>(l)])));
  }
  return out;
}

}  // namespace sagnn
