#pragma once
// Distributed 1.5D SpMM (paper §4.2, Algorithm 2; CAGNET's 1.5D layout).
//
// P ranks form a (P/c) x c grid. Block row i of Â and H is replicated on
// the c ranks of grid row i; the c replicas split the column blocks of the
// row among themselves (replica col takes blocks j with j % c == col),
// compute partial products, and an all-reduce across the grid row restores
// the full Z_i on every replica. Row fetches happen inside each grid
// COLUMN (one replica of every block row), so the per-rank exchange volume
// shrinks with c while the (dense) partial-sum all-reduce grows — the 1.5D
// tradeoff the paper evaluates in Figure 7.
//
// At c = 1 this IS the 1D algorithm (§4.1, Algorithm 1): every rank owns
// one block row outright, exchanges on the constructing communicator
// itself, and never all-reduces.
//
//   kOblivious:      whole H blocks broadcast within the grid column
//                    (CAGNET), so the moved bytes depend only on the
//                    matrix SHAPE.
//   kSparsityAware:  only the H rows the remote blocks read (NnzCols) are
//                    exchanged, via one all-to-all per multiply. The
//                    needed-row index lists are exchanged ONCE at
//                    construction (phase "index_exchange", which the
//                    trainer excludes from per-epoch cost).

#include "dense/matrix.hpp"
#include "dist/dist_csr.hpp"
#include "simcomm/collectives.hpp"

namespace sagnn {

/// (P/c) x c process grid, rank = grid_row * c + grid_col (row major).
struct GridLayout {
  int p = 1;
  int rows = 1;  ///< number of distinct block rows (P/c)
  int s = 1;     ///< replication factor c (grid width)

  /// Throws unless c >= 1 and c^2 divides p (the 1.5D requirement).
  static GridLayout make(int p, int c);

  int grid_row(int rank) const { return rank / s; }
  int grid_col(int rank) const { return rank % s; }
  int rank_of(int row, int col) const { return row * s + col; }
};

class DistSpmm15d {
 public:
  /// Collective over `comm` (all ranks construct together). `ranges` must
  /// have exactly P/c entries. Communicators are split (or, at c = 1,
  /// copied) here and kept by value, so the object stays usable after the
  /// constructing call frame.
  DistSpmm15d(Comm& comm, const CsrMatrix& a, std::span<const BlockRange> ranges,
              int c, SpmmMode mode);

  const GridLayout& layout() const { return layout_; }
  const BlockRange& my_range() const { return local_.my_range(); }
  SpmmMode mode() const { return mode_; }
  /// One replica of every block row — the communicator for global
  /// reductions of losses and weight gradients.
  Comm& col_comm() { return col_comm_; }

  /// One collective multiply; every replica returns the full Z block,
  /// bitwise identical across each grid row.
  Matrix multiply(const Matrix& h_local, double* cpu_seconds = nullptr);

  /// Chunked-pipelining multiply (sparsity-aware mode only): H is split
  /// into `chunks` column chunks (clamped to the feature width); the
  /// grid-column exchange of chunk k+1 is POSTED (ialltoallv: eager isends
  /// + pending irecvs) before chunk k is waited for and computed — a
  /// genuine double-buffered (depth-2) pipeline whose wait() records the
  /// measured hidden/blocked wall-clock split (see
  /// EpochCost::measured_overlap_fraction()). Numerically identical to
  /// multiply(): each output element accumulates its neighbors in the
  /// same order, columns are independent. The grid-row partial-sum
  /// all-reduce stays one full-width collective AFTER the last chunk —
  /// splitting it per chunk would reorder each element's cross-replica
  /// additions (the ring schedule assigns chunks by buffer offset) and
  /// break bitwise parity with multiply().
  ///
  /// `stage_counter`, when non-null, is the pipeline-stage cursor: chunk
  /// k's traffic is recorded under stage *stage_counter + k ("alltoall#s"),
  /// the trailing all-reduce under the next stage, and the counter
  /// advances past them. A cursor shared across propagates is the
  /// cross-layer schedule — the first exchange of the NEXT propagate
  /// occupies the pipeline slot right after this one's last SpMM chunk; a
  /// fresh cursor per call is the per-propagate schedule. A null counter
  /// records untagged bulk-synchronous phases; with chunks == 1 that is
  /// exactly multiply(), which delegates here.
  Matrix multiply_pipelined(const Matrix& h_local, int chunks,
                            int* stage_counter, double* cpu_seconds = nullptr);

 private:
  bool assigned(int j) const { return j % layout_.s == grid_col_; }

  GridLayout layout_;
  int grid_row_ = 0;
  int grid_col_ = 0;
  SpmmMode mode_;
  DistCsr local_;
  /// Same grid column; comm rank == grid row. At c = 1 a copy of the
  /// constructing communicator itself: its id stamps the 1D algorithm's
  /// tags, which the seeded lossy-link drops hash (FaultPlan).
  Comm col_comm_;
  Comm row_comm_;  ///< same grid row (the c replicas); comm rank == grid col
  /// requests_[i]: local rows of MY block that grid row i's replica in my
  /// column reads (sparsity-aware only).
  std::vector<std::vector<vid_t>> requests_;
};

}  // namespace sagnn
