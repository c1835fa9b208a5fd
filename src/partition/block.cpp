#include <numeric>

#include "partition/partition.hpp"
#include "partition/partitioner_registry.hpp"
#include "sparse/blocks.hpp"

namespace sagnn {

Partition BlockPartitioner::partition(const CsrMatrix& adj, int k) const {
  SAGNN_REQUIRE(k >= 1 && k <= adj.n_rows(), "k must be in [1, n]");
  Partition part;
  part.k = k;
  part.part_of.resize(static_cast<std::size_t>(adj.n_rows()));
  const auto ranges = uniform_block_ranges(adj.n_rows(), k);
  for (int p = 0; p < k; ++p) {
    for (vid_t v = ranges[static_cast<std::size_t>(p)].begin;
         v < ranges[static_cast<std::size_t>(p)].end; ++v) {
      part.part_of[static_cast<std::size_t>(v)] = static_cast<vid_t>(p);
    }
  }
  return part;
}

Partition RandomPartitioner::partition(const CsrMatrix& adj, int k) const {
  SAGNN_REQUIRE(k >= 1 && k <= adj.n_rows(), "k must be in [1, n]");
  const vid_t n = adj.n_rows();
  // Random permutation, then equal-size contiguous blocks: good vertex-count
  // balance, no communication awareness (paper §5's strawman).
  std::vector<vid_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed_);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
  }
  Partition part;
  part.k = k;
  part.part_of.resize(static_cast<std::size_t>(n));
  const auto ranges = uniform_block_ranges(n, k);
  for (int p = 0; p < k; ++p) {
    for (vid_t i = ranges[static_cast<std::size_t>(p)].begin;
         i < ranges[static_cast<std::size_t>(p)].end; ++i) {
      part.part_of[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
          static_cast<vid_t>(p);
    }
  }
  return part;
}

namespace {
const PartitionerRegistration kRegisterBlock{
    "block", {}, [](const PartitionerOptions&) {
      return std::make_unique<BlockPartitioner>();
    }};
const PartitionerRegistration kRegisterRandom{
    "random", {}, [](const PartitionerOptions& opts) {
      return std::make_unique<RandomPartitioner>(opts.seed);
    }};
}  // namespace

}  // namespace sagnn
