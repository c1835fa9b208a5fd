#include "partition/partition.hpp"

#include <numeric>

#include "partition/partitioner_registry.hpp"

namespace sagnn {

std::vector<vid_t> Partition::part_sizes() const {
  std::vector<vid_t> sizes(static_cast<std::size_t>(k), 0);
  for (vid_t p : part_of) ++sizes[static_cast<std::size_t>(p)];
  return sizes;
}

std::vector<vid_t> Partition::relabel_permutation() const {
  const auto sizes = part_sizes();
  std::vector<vid_t> offset(static_cast<std::size_t>(k), 0);
  for (int p = 1; p < k; ++p) {
    const auto prev = static_cast<std::size_t>(p - 1);
    offset[static_cast<std::size_t>(p)] = offset[prev] + sizes[prev];
  }
  std::vector<vid_t> perm(part_of.size());
  for (std::size_t v = 0; v < part_of.size(); ++v) {
    perm[v] = offset[static_cast<std::size_t>(part_of[v])]++;
  }
  return perm;
}

void Partition::validate() const {
  SAGNN_REQUIRE(k >= 1, "partition must have at least one part");
  std::vector<bool> seen(static_cast<std::size_t>(k), false);
  for (vid_t p : part_of) {
    SAGNN_REQUIRE(p >= 0 && p < k, "part id out of range");
    seen[static_cast<std::size_t>(p)] = true;
  }
  if (static_cast<vid_t>(part_of.size()) >= k) {
    for (int p = 0; p < k; ++p) {
      SAGNN_REQUIRE(seen[static_cast<std::size_t>(p)],
                    "partition has an empty part");
    }
  }
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name,
                                              PartitionerOptions opts) {
  // Throws std::invalid_argument listing the registered names when `name`
  // matches neither a canonical name nor an alias.
  return partitioner_registry().create(name, opts);
}

}  // namespace sagnn
