#pragma once
// Block decomposition of sparse matrices for the 1D / 1.5D distributions,
// plus the sparsity-aware column analysis:
//
//   * block-row extraction (each rank owns n/P contiguous rows of A^T)
//   * block-column splitting of a block row (A^T_{i1} ... A^T_{iP})
//   * NnzCols(i,j): the nonzero column indices of block A^T_{ij} — exactly
//     the rows of H_j that rank i must receive (paper §4.1, Fig. 1)
//   * column compaction: remap a block's columns onto 0..k-1 so the local
//     SpMM can run directly on the packed received buffer.

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace sagnn {

/// Half-open row/column range [begin, end).
struct BlockRange {
  vid_t begin = 0;
  vid_t end = 0;
  vid_t size() const { return end - begin; }
};

/// Split n items into p near-equal contiguous ranges (first n%p ranges get
/// one extra item) — the plain block distribution.
std::vector<BlockRange> uniform_block_ranges(vid_t n, int p);

/// Ranges from explicit part sizes (partitioner output; variable widths).
std::vector<BlockRange> ranges_from_sizes(std::span<const vid_t> sizes);

/// Extract rows [range.begin, range.end) as a standalone CSR with the same
/// column space.
CsrMatrix extract_row_block(const CsrMatrix& a, BlockRange range);

/// Split `a` by column into one CSR per range; column indices are localized
/// to each block (global col c -> c - range.begin). The ranges must tile
/// [0, a.n_cols()) in order (throws otherwise).
std::vector<CsrMatrix> split_block_cols(const CsrMatrix& a,
                                        std::span<const BlockRange> ranges);

/// Sorted unique column indices that contain at least one nonzero.
/// For block A^T_{ij} this is NnzCols(i,j).
std::vector<vid_t> nnz_cols(const CsrMatrix& a);

/// A block whose column indices were compacted onto the nonzero columns:
/// `matrix.col_idx[k]` indexes into `cols` (i.e. into the packed buffer of
/// received H rows).
struct CompactedBlock {
  CsrMatrix matrix;        // n_rows x |cols|
  std::vector<vid_t> cols; // original column ids, sorted ascending
};

/// Compact the columns of `a` (drop empty columns, remap indices). The
/// block's columns are renumbered in place, so passing an rvalue moves its
/// arrays into the result instead of copying them.
CompactedBlock compact_columns(CsrMatrix a);

}  // namespace sagnn
