// Block decomposition and sparsity-aware column analysis (NnzCols,
// compaction) — the structural machinery of Algorithms 1 and 2 — and the
// per-rank distributed CSR state the 1D SpMM builds from it.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sparse/blocks.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

TEST(Blocks, UniformRangesCoverExactly) {
  for (vid_t n : {1, 7, 16, 100, 101}) {
    for (int p : {1, 2, 3, 7, 16}) {
      if (p > n) continue;
      const auto ranges = uniform_block_ranges(n, p);
      ASSERT_EQ(static_cast<int>(ranges.size()), p);
      EXPECT_EQ(ranges.front().begin, 0);
      EXPECT_EQ(ranges.back().end, n);
      for (std::size_t i = 1; i < ranges.size(); ++i) {
        EXPECT_EQ(ranges[i].begin, ranges[i - 1].end);
      }
      // Sizes differ by at most one.
      vid_t mn = n, mx = 0;
      for (const auto& r : ranges) {
        mn = std::min(mn, r.size());
        mx = std::max(mx, r.size());
      }
      EXPECT_LE(mx - mn, 1);
    }
  }
}

TEST(Blocks, RangesFromSizes) {
  std::vector<vid_t> sizes{3, 0, 5};
  const auto ranges = ranges_from_sizes(sizes);
  EXPECT_EQ(ranges[0].begin, 0);
  EXPECT_EQ(ranges[0].end, 3);
  EXPECT_EQ(ranges[1].size(), 0);
  EXPECT_EQ(ranges[2].end, 8);
}

TEST(Blocks, ExtractRowBlockPreservesRows) {
  Rng rng(1);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(40, 300, rng));
  const CsrMatrix block = extract_row_block(a, {10, 25});
  EXPECT_EQ(block.n_rows(), 15);
  EXPECT_EQ(block.n_cols(), 40);
  for (vid_t r = 0; r < 15; ++r) {
    for (vid_t c = 0; c < 40; ++c) {
      EXPECT_FLOAT_EQ(block.at(r, c), a.at(r + 10, c));
    }
  }
}

TEST(Blocks, SplitBlockColsPartitionNnz) {
  Rng rng(2);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(60, 500, rng));
  const auto ranges = uniform_block_ranges(60, 4);
  const auto blocks = split_block_cols(a, ranges);
  ASSERT_EQ(blocks.size(), 4u);
  eid_t total = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    total += blocks[b].nnz();
    EXPECT_EQ(blocks[b].n_cols(), ranges[b].size());
    blocks[b].validate();
  }
  EXPECT_EQ(total, a.nnz());
  // Elementwise: block b at (r, c) equals a at (r, c + offset).
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    for (vid_t r = 0; r < a.n_rows(); ++r) {
      for (vid_t c = 0; c < ranges[b].size(); ++c) {
        EXPECT_FLOAT_EQ(blocks[b].at(r, c), a.at(r, ranges[b].begin + c));
      }
    }
  }
}

TEST(Blocks, SplitBlockColsRejectsRangesThatDoNotTileFromZero) {
  // Column 0 of an 8 x 8 identity belongs to no range of {[1, 4), [4, 8)}.
  std::vector<eid_t> row_ptr{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<vid_t> col_idx{0, 1, 2, 3, 4, 5, 6, 7};
  const CsrMatrix eye(8, 8, std::move(row_ptr), std::move(col_idx),
                      std::vector<real_t>(8, real_t{1}));
  const auto split = [&](std::vector<BlockRange> ranges) {
    return split_block_cols(eye, ranges);
  };
  EXPECT_EQ(split({{0, 4}, {4, 8}}).size(), 2u);
  EXPECT_EQ(split({{0, 4}, {4, 4}, {4, 8}}).size(), 3u);  // empty range
  EXPECT_THROW(split({{1, 4}, {4, 8}}), Error);           // not from 0
  EXPECT_THROW(split({{0, 3}, {4, 8}}), Error);           // gap
  EXPECT_THROW(split({{0, 5}, {4, 8}}), Error);           // overlap
  EXPECT_THROW(split({{4, 8}, {0, 4}}), Error);           // out of order
  EXPECT_THROW(split({{0, 5}, {5, 4}, {4, 8}}), Error);   // negative size
  EXPECT_THROW(split({{0, 4}, {4, 7}}), Error);           // short of n
  EXPECT_THROW(split({}), Error);
}

TEST(Blocks, SplitThenSpmmEqualsFullSpmm) {
  Rng rng(3);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 400, rng));
  const Matrix h = Matrix::random_uniform(48, 6, rng);
  const auto ranges = uniform_block_ranges(48, 3);
  const auto blocks = split_block_cols(a, ranges);
  Matrix z(48, 6);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const Matrix h_b = h.slice_rows(ranges[b].begin, ranges[b].end);
    spmm_accumulate(blocks[b], h_b, z);
  }
  EXPECT_LT(z.max_abs_diff(spmm(a, h)), 1e-5);
}

TEST(Blocks, NnzColsFindsExactlyNonEmptyColumns) {
  CooMatrix coo(3, 6);
  coo.add(0, 1, 1.0f);
  coo.add(1, 4, 1.0f);
  coo.add(2, 1, 1.0f);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(nnz_cols(a), (std::vector<vid_t>{1, 4}));
}

TEST(Blocks, NnzColsEmptyMatrix) {
  EXPECT_TRUE(nnz_cols(CsrMatrix::zeros(3, 5)).empty());
}

TEST(Blocks, CompactColumnsRemapsDensely) {
  CooMatrix coo(2, 8);
  coo.add(0, 3, 1.5f);
  coo.add(0, 6, 2.5f);
  coo.add(1, 3, 3.5f);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const CompactedBlock cb = compact_columns(a);
  EXPECT_EQ(cb.cols, (std::vector<vid_t>{3, 6}));
  EXPECT_EQ(cb.matrix.n_cols(), 2);
  EXPECT_FLOAT_EQ(cb.matrix.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(cb.matrix.at(0, 1), 2.5f);
  EXPECT_FLOAT_EQ(cb.matrix.at(1, 0), 3.5f);
  cb.matrix.validate();
}

TEST(Blocks, CompactionSavesExactlyEmptyColumns) {
  Rng rng(4);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 128, rng));
  const auto blocks = split_block_cols(a, uniform_block_ranges(64, 8));
  for (const auto& b : blocks) {
    const CompactedBlock cb = compact_columns(b);
    EXPECT_EQ(static_cast<vid_t>(cb.cols.size()),
              static_cast<vid_t>(nnz_cols(b).size()));
    EXPECT_LE(cb.matrix.n_cols(), b.n_cols());
    EXPECT_EQ(cb.matrix.nnz(), b.nnz());
  }
}

TEST(Blocks, CompactColumnsOfMovedBlockEqualsCompactionOfCopy) {
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 400, rng));
  for (CsrMatrix& block : split_block_cols(a, uniform_block_ranges(64, 4))) {
    const CompactedBlock from_copy = compact_columns(block);
    const CompactedBlock from_move = compact_columns(std::move(block));
    EXPECT_TRUE(from_move.matrix == from_copy.matrix);
    EXPECT_EQ(from_move.cols, from_copy.cols);
    from_move.matrix.validate();
  }
}


// The distributed CSR state of rank r in the 1D SpMM (DistSpmm15d at c = 1):
// block row r of Â cut into the column blocks A^T_{rj}, each compacted onto
// NnzCols(r, j) in sparsity-aware mode — the rows of H_j rank r needs.
std::vector<CsrMatrix> rank_blocks(const CsrMatrix& a,
                                   const std::vector<BlockRange>& ranges, int r) {
  return split_block_cols(
      extract_row_block(a, ranges[static_cast<std::size_t>(r)]), ranges);
}

TEST(DistCsr, BlocksTileTheMatrix) {
  Rng rng(1);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(64, 512, rng));
  const auto ranges = uniform_block_ranges(64, 4);
  eid_t total = 0;
  for (int r = 0; r < 4; ++r) {
    const auto blocks = rank_blocks(a, ranges, r);
    ASSERT_EQ(blocks.size(), 4u);
    for (const CsrMatrix& block : blocks) {
      EXPECT_EQ(block.n_rows(), ranges[static_cast<std::size_t>(r)].size());
      total += block.nnz();
      EXPECT_EQ(block.nnz(), compact_columns(block).matrix.nnz());
    }
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(DistCsr, NeededRowsMatchNnzCols) {
  Rng rng(2);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(48, 300, rng));
  const auto ranges = uniform_block_ranges(48, 3);
  for (int r = 0; r < 3; ++r) {
    for (const CsrMatrix& block : rank_blocks(a, ranges, r)) {
      EXPECT_EQ(compact_columns(block).cols, nnz_cols(block));
    }
  }
}

TEST(DistCsr, NeededRowsAreLocalIndices) {
  Rng rng(3);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(40, 200, rng));
  const auto ranges = uniform_block_ranges(40, 4);
  const auto blocks = rank_blocks(a, ranges, 1);
  for (std::size_t j = 0; j < blocks.size(); ++j) {
    for (vid_t idx : compact_columns(blocks[j]).cols) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, ranges[j].size());
    }
  }
}

TEST(DistCsr, DiagonalDominantGraphNeedsFewRemoteRows) {
  // A graph with only intra-block edges needs zero remote rows.
  CooMatrix coo(8, 8);
  coo.add(0, 1, 1);
  coo.add(2, 3, 1);
  coo.add(4, 5, 1);
  coo.add(6, 7, 1);
  coo.symmetrize();
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  const auto ranges = uniform_block_ranges(8, 4);
  for (int r = 0; r < 4; ++r) {
    const auto blocks = rank_blocks(a, ranges, r);
    for (int j = 0; j < 4; ++j) {
      const std::size_t needed =
          compact_columns(blocks[static_cast<std::size_t>(j)]).cols.size();
      EXPECT_EQ(needed, j == r ? 2u : 0u) << "rank " << r << " block " << j;
    }
  }
}

TEST(DistCsr, RemoteRowCountMatchesVolumeIntuition) {
  // Rank 0's remote needed rows are exactly the distinct remote neighbours
  // of its vertices, counted here straight from the CSR arrays.
  Rng rng(4);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(60, 600, rng));
  const auto ranges = uniform_block_ranges(60, 4);
  const auto blocks = rank_blocks(a, ranges, 0);
  std::uint64_t needed = 0;
  for (std::size_t j = 1; j < 4; ++j) needed += compact_columns(blocks[j]).cols.size();
  std::vector<bool> seen(60, false);
  std::uint64_t manual = 0;
  for (eid_t k = a.row_ptr()[static_cast<std::size_t>(ranges[0].begin)];
       k < a.row_ptr()[static_cast<std::size_t>(ranges[0].end)]; ++k) {
    const vid_t c = a.col_idx()[static_cast<std::size_t>(k)];
    if (c >= ranges[0].end && !seen[static_cast<std::size_t>(c)]) {
      seen[static_cast<std::size_t>(c)] = true;
      ++manual;
    }
  }
  EXPECT_GT(manual, 0u);
  EXPECT_EQ(needed, manual);
  // Never more than the full remote row space.
  EXPECT_LE(manual, static_cast<std::uint64_t>(60 - ranges[0].size()));
}

TEST(DistCsr, LocalSpmmReconstructsGlobalProduct) {
  // Summing each rank's block multiplies reproduces A*H — the underlying
  // identity of the 1D algorithms, tested without communication: plain
  // blocks read H_j whole, compacted blocks read only its NnzCols rows.
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(52, 400, rng));
  const Matrix h = Matrix::random_uniform(52, 6, rng);
  const auto ranges = uniform_block_ranges(52, 4);
  const Matrix z_ref = spmm(a, h);
  for (int r = 0; r < 4; ++r) {
    const BlockRange mine = ranges[static_cast<std::size_t>(r)];
    const auto blocks = rank_blocks(a, ranges, r);
    Matrix z_plain(mine.size(), 6), z_sparse(mine.size(), 6);
    for (std::size_t j = 0; j < 4; ++j) {
      const Matrix h_j = h.slice_rows(ranges[j].begin, ranges[j].end);
      spmm_accumulate(blocks[j], h_j, z_plain);
      const CompactedBlock cb = compact_columns(blocks[j]);
      spmm_accumulate(cb.matrix, h_j.gather_rows(cb.cols), z_sparse);
    }
    const Matrix z_block = z_ref.slice_rows(mine.begin, mine.end);
    EXPECT_LT(z_plain.max_abs_diff(z_block), 1e-5);
    EXPECT_LT(z_sparse.max_abs_diff(z_block), 1e-5);
  }
}

}  // namespace
}  // namespace sagnn
