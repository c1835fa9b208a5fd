#include "sparse/blocks.hpp"

#include <algorithm>

namespace sagnn {

std::vector<BlockRange> uniform_block_ranges(vid_t n, int p) {
  SAGNN_REQUIRE(p > 0, "need at least one part");
  std::vector<BlockRange> ranges(static_cast<std::size_t>(p));
  const vid_t base = n / p;
  const vid_t extra = n % p;
  vid_t begin = 0;
  for (int i = 0; i < p; ++i) {
    const vid_t sz = base + (i < extra ? 1 : 0);
    ranges[static_cast<std::size_t>(i)] = {begin, begin + sz};
    begin += sz;
  }
  return ranges;
}

std::vector<BlockRange> ranges_from_sizes(std::span<const vid_t> sizes) {
  std::vector<BlockRange> ranges(sizes.size());
  vid_t begin = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    SAGNN_REQUIRE(sizes[i] >= 0, "negative part size");
    ranges[i] = {begin, begin + sizes[i]};
    begin += sizes[i];
  }
  return ranges;
}

CsrMatrix extract_row_block(const CsrMatrix& a, BlockRange range) {
  SAGNN_REQUIRE(range.begin >= 0 && range.begin <= range.end && range.end <= a.n_rows(),
                "row block range out of bounds");
  const vid_t rows = range.size();
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  const eid_t base = a.row_ptr()[range.begin];
  for (vid_t r = 0; r < rows; ++r) {
    row_ptr[r + 1] = a.row_ptr()[range.begin + r + 1] - base;
  }
  std::vector<vid_t> col_idx(a.col_idx().begin() + base,
                             a.col_idx().begin() + a.row_ptr()[range.end]);
  std::vector<real_t> vals(a.vals().begin() + base,
                           a.vals().begin() + a.row_ptr()[range.end]);
  return CsrMatrix(rows, a.n_cols(), std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

std::vector<CsrMatrix> split_block_cols(const CsrMatrix& a,
                                        std::span<const BlockRange> ranges) {
  SAGNN_REQUIRE(!ranges.empty(), "need at least one column range");
  // Every column must map to exactly one block below, so the ranges must
  // tile the column space from 0 without gaps or overlaps.
  vid_t covered = 0;
  for (const BlockRange& range : ranges) {
    SAGNN_REQUIRE(range.begin == covered && range.end >= range.begin,
                  "column ranges must tile [0, n_cols) in order");
    covered = range.end;
  }
  SAGNN_REQUIRE(covered == a.n_cols(),
                "column ranges must cover the full column space");
  const int p = static_cast<int>(ranges.size());

  // Map each global column to its block id (column ranges are contiguous, so
  // a linear scan per row with binary search is enough; use upper_bound).
  std::vector<vid_t> block_begin(ranges.size());
  for (std::size_t i = 0; i < ranges.size(); ++i) block_begin[i] = ranges[i].begin;

  // Count nnz per (row, block), then fill.
  std::vector<std::vector<eid_t>> ptr(static_cast<std::size_t>(p));
  for (auto& v : ptr) v.assign(static_cast<std::size_t>(a.n_rows()) + 1, 0);
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    for (vid_t c : a.row_cols(r)) {
      auto it = std::upper_bound(block_begin.begin(), block_begin.end(), c);
      const auto b = static_cast<std::size_t>(it - block_begin.begin() - 1);
      ++ptr[b][static_cast<std::size_t>(r) + 1];
    }
  }
  std::vector<std::vector<vid_t>> cols(static_cast<std::size_t>(p));
  std::vector<std::vector<real_t>> vals(static_cast<std::size_t>(p));
  for (int b = 0; b < p; ++b) {
    auto& pb = ptr[static_cast<std::size_t>(b)];
    for (vid_t r = 0; r < a.n_rows(); ++r) pb[r + 1] += pb[r];
    cols[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(pb.back()));
    vals[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(pb.back()));
  }
  std::vector<std::vector<eid_t>> cursor = ptr;
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    const auto rc = a.row_cols(r);
    const auto rv = a.row_vals(r);
    for (std::size_t k = 0; k < rc.size(); ++k) {
      auto it = std::upper_bound(block_begin.begin(), block_begin.end(), rc[k]);
      const auto b = static_cast<std::size_t>(it - block_begin.begin() - 1);
      const eid_t dst = cursor[b][static_cast<std::size_t>(r)]++;
      cols[b][static_cast<std::size_t>(dst)] = rc[k] - ranges[b].begin;
      vals[b][static_cast<std::size_t>(dst)] = rv[k];
    }
  }
  std::vector<CsrMatrix> out;
  out.reserve(static_cast<std::size_t>(p));
  for (int b = 0; b < p; ++b) {
    out.emplace_back(a.n_rows(), ranges[static_cast<std::size_t>(b)].size(),
                     std::move(ptr[static_cast<std::size_t>(b)]),
                     std::move(cols[static_cast<std::size_t>(b)]),
                     std::move(vals[static_cast<std::size_t>(b)]));
  }
  return out;
}

std::vector<vid_t> nnz_cols(const CsrMatrix& a) {
  std::vector<bool> present(static_cast<std::size_t>(a.n_cols()), false);
  for (vid_t c : a.col_idx()) present[static_cast<std::size_t>(c)] = true;
  std::vector<vid_t> out;
  for (vid_t c = 0; c < a.n_cols(); ++c) {
    if (present[static_cast<std::size_t>(c)]) out.push_back(c);
  }
  return out;
}

CompactedBlock compact_columns(CsrMatrix a) {
  CompactedBlock out;
  out.cols = nnz_cols(a);
  std::vector<vid_t> remap(static_cast<std::size_t>(a.n_cols()), -1);
  for (std::size_t i = 0; i < out.cols.size(); ++i) {
    remap[static_cast<std::size_t>(out.cols[i])] = static_cast<vid_t>(i);
  }
  a.renumber_cols(remap, static_cast<vid_t>(out.cols.size()));
  out.matrix = std::move(a);
  return out;
}

}  // namespace sagnn
