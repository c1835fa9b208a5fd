#include "dist/dist_csr.hpp"

namespace sagnn {

DistCsr::DistCsr(const CsrMatrix& a, std::span<const BlockRange> ranges, int rank)
    : rank_(rank), ranges_(ranges.begin(), ranges.end()) {
  SAGNN_REQUIRE(!ranges_.empty(), "need at least one block");
  SAGNN_REQUIRE(rank >= 0 && rank < static_cast<int>(ranges_.size()),
                "rank outside the block range list");
  SAGNN_REQUIRE(a.n_rows() == a.n_cols(), "distributed matrix must be square");
  SAGNN_REQUIRE(ranges_.front().begin == 0 && ranges_.back().end == a.n_rows(),
                "block ranges must tile [0, n)");
  my_range_ = ranges_[static_cast<std::size_t>(rank)];

  const CsrMatrix row_block = extract_row_block(a, my_range_);
  blocks_ = split_block_cols(row_block, ranges_);
  compacted_.reserve(blocks_.size());
  for (const CsrMatrix& b : blocks_) compacted_.push_back(compact_columns(b));
}

std::uint64_t DistCsr::total_needed_rows_remote() const {
  std::uint64_t total = 0;
  for (int j = 0; j < n_blocks(); ++j) {
    if (j == rank_) continue;
    total += needed_rows(j).size();
  }
  return total;
}

}  // namespace sagnn
