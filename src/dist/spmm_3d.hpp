#pragma once
// Distributed tile SpMM: d stacked q x q grids split the FEATURE dimension
// (P = q^2 * d). At d = 1 this is the 2D (SUMMA-style) scheme of CAGNET;
// at d > 1 the communication-avoiding 3D scheme.
//
// Layer l works on feature columns [f*l/d, f*(l+1)/d): rank (l, i, j) owns
// tile Â_{ij} (rows of block i, columns of block j) and the H block j (H
// residency follows the grid COLUMN). It multiplies its tile against its
// layer's column slice, all-reduces the partial across the layer's grid
// row (leaving Z_i on every rank of row i: Z residency follows the grid
// ROW), transposes back to H residency within the layer, and finally
// all-gathers the d slices across the depth fiber (the d ranks sharing
// (i, j)) so every rank again holds the full-width block — which is what
// the next GCN layer consumes.
//
// The Z all-reduce moves dense blocks whose size is independent of the
// graph's sparsity — the structural reason CAGNET (and the paper) prefer
// 1D/1.5D for GNN training. No rows of H arrive packed either (a rank owns
// its H block whole), so there is no sparsity-aware mode: every rank stores
// its plain tile and reads H in place. Against d = 1 at the same q, the
// all-reduce and the transpose shrink by d (they move a 1/d feature slice),
// at the price of a depth all-gather moving (d-1)/d of the full width —
// the classic CA trade (more memory/ranks for less reduced volume). For
// GNN-shaped f (narrow features) the latency of the extra fiber ring
// dominates quickly; the planner quantifies exactly where.

#include <span>

#include "dense/matrix.hpp"
#include "simcomm/collectives.hpp"
#include "sparse/blocks.hpp"

namespace sagnn {

/// q x q x d process grid, rank = layer * q^2 + grid_row * q + grid_col.
struct CubeGrid {
  int p = 1;
  int q = 1;
  int d = 1;

  /// Throws unless p == q^2 * d for integer q.
  static CubeGrid make(int p, int d);

  int layer(int rank) const { return rank / (q * q); }
  int grid_row(int rank) const { return (rank / q) % q; }
  int grid_col(int rank) const { return rank % q; }
  int rank_of(int layer, int row, int col) const {
    return layer * q * q + row * q + col;
  }
};

class DistSpmm3d {
 public:
  /// Collective over `comm`. `a` must be square and `ranges` must have
  /// exactly q entries that tile [0, n) in order (throws otherwise).
  DistSpmm3d(Comm& comm, const CsrMatrix& a, std::span<const BlockRange> ranges,
             int depth);

  /// Residency of this rank's H block (block id = grid column).
  const BlockRange& input_range() const { return input_range_; }
  /// Ranks of this layer's grid row: pairwise-distinct H blocks, the
  /// communicator for loss/weight-gradient reductions.
  Comm& row_comm() { return row_comm_; }

  /// First feature column of `layer`'s slice at width f (balanced
  /// contiguous split; layer d's boundary is f).
  vid_t slice_begin(vid_t f, int layer) const {
    return static_cast<vid_t>(static_cast<std::uint64_t>(f) *
                              static_cast<std::uint64_t>(layer) /
                              static_cast<std::uint64_t>(grid_.d));
  }

  /// One full aggregation Â·H, input and output in H residency at full
  /// feature width: partial tile SpMM on this layer's feature slice (read
  /// in place as a column window of H), layer-row all-reduce, transpose
  /// remap, depth all-gather (only when d > 1).
  Matrix propagate(const Matrix& h_local, double* cpu_seconds = nullptr);

 private:
  CubeGrid grid_;
  int layer_ = 0;
  int grid_row_ = 0;
  int grid_col_ = 0;
  BlockRange input_range_;
  BlockRange output_range_;
  /// Â_{ij}, columns localized to block j.
  CsrMatrix tile_;
  Comm world_;               ///< copy of the constructing communicator
  Comm row_comm_;            ///< same (layer, grid row); comm rank == grid col
  Comm fiber_comm_;          ///< same (grid row, grid col); comm rank == layer
};

}  // namespace sagnn
