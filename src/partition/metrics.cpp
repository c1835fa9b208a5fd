#include "partition/metrics.hpp"

#include <algorithm>

#include "common/parallel.hpp"

namespace sagnn {

std::uint64_t VolumeStats::send_rows(int j) const {
  std::uint64_t acc = 0;
  for (int i = 0; i < k; ++i) acc += pair_rows[static_cast<std::size_t>(j) * k + i];
  return acc;
}

std::uint64_t VolumeStats::total_rows() const {
  std::uint64_t acc = 0;
  for (auto v : pair_rows) acc += v;
  return acc;
}

std::uint64_t VolumeStats::max_send_rows() const {
  std::uint64_t m = 0;
  for (int j = 0; j < k; ++j) m = std::max(m, send_rows(j));
  return m;
}

double VolumeStats::avg_send_rows() const {
  return k > 0 ? static_cast<double>(total_rows()) / k : 0.0;
}

double VolumeStats::send_imbalance_percent() const {
  const double avg = avg_send_rows();
  if (avg <= 0) return 0.0;
  return (static_cast<double>(max_send_rows()) / avg - 1.0) * 100.0;
}

double VolumeStats::total_megabytes(vid_t f) const {
  return static_cast<double>(total_rows()) * f * sizeof(real_t) / 1.0e6;
}
double VolumeStats::avg_send_megabytes(vid_t f) const {
  return avg_send_rows() * f * sizeof(real_t) / 1.0e6;
}
double VolumeStats::max_send_megabytes(vid_t f) const {
  return static_cast<double>(max_send_rows()) * f * sizeof(real_t) / 1.0e6;
}

VolumeStats compute_volume_stats(const CsrMatrix& adj, const Partition& partition) {
  SAGNN_REQUIRE(adj.n_rows() == adj.n_cols(), "adjacency must be square");
  SAGNN_REQUIRE(partition.n() == adj.n_rows(), "partition size mismatch");
  const int k = partition.k;
  const vid_t n = adj.n_rows();

  // For each vertex v: find the distinct parts among its neighbors; v's row
  // of H is sent from part(v) to each such part != part(v). The per-vertex
  // scans are independent, so chunks accumulate private counters that are
  // merged by a fixed tree (exact integer sums: thread-count invariant).
  struct Partial {
    std::vector<std::uint64_t> pair_rows;
    std::uint64_t edgecut = 0;
  };
  Partial stats_acc = parallel_reduce(
      0, n, parallel_grain(n),
      Partial{std::vector<std::uint64_t>(static_cast<std::size_t>(k) * k, 0), 0},
      [&](std::int64_t lo, std::int64_t hi) {
        Partial acc{std::vector<std::uint64_t>(static_cast<std::size_t>(k) * k, 0), 0};
        std::vector<bool> touched(static_cast<std::size_t>(k), false);
        std::vector<int> touch_list;
        for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
          const int pv = partition.part_of[static_cast<std::size_t>(v)];
          touch_list.clear();
          for (vid_t u : adj.row_cols(v)) {
            const int pu = partition.part_of[static_cast<std::size_t>(u)];
            if (!touched[static_cast<std::size_t>(pu)]) {
              touched[static_cast<std::size_t>(pu)] = true;
              touch_list.push_back(pu);
            }
            if (pu != pv && u > v) ++acc.edgecut;
          }
          for (int pu : touch_list) {
            touched[static_cast<std::size_t>(pu)] = false;
            if (pu != pv) {
              ++acc.pair_rows[static_cast<std::size_t>(pv) * k + pu];
            }
          }
        }
        return acc;
      },
      [](Partial x, const Partial& y) {
        for (std::size_t i = 0; i < x.pair_rows.size(); ++i) {
          x.pair_rows[i] += y.pair_rows[i];
        }
        x.edgecut += y.edgecut;
        return x;
      });
  VolumeStats stats;
  stats.k = k;
  stats.pair_rows = std::move(stats_acc.pair_rows);
  stats.edgecut = static_cast<eid_t>(stats_acc.edgecut);
  return stats;
}

double compute_load_imbalance(const CsrMatrix& adj, const Partition& partition) {
  const int k = partition.k;
  const vid_t n = adj.n_rows();
  std::vector<std::uint64_t> nnz = parallel_reduce(
      0, n, parallel_grain(n),
      std::vector<std::uint64_t>(static_cast<std::size_t>(k), 0),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::uint64_t> acc(static_cast<std::size_t>(k), 0);
        for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
          acc[static_cast<std::size_t>(
              partition.part_of[static_cast<std::size_t>(v)])] +=
              static_cast<std::uint64_t>(adj.row_nnz(v));
        }
        return acc;
      },
      [](std::vector<std::uint64_t> x, const std::vector<std::uint64_t>& y) {
        for (std::size_t i = 0; i < x.size(); ++i) x[i] += y[i];
        return x;
      });
  const double avg = static_cast<double>(adj.nnz()) / k;
  std::uint64_t mx = 0;
  for (auto x : nnz) mx = std::max(mx, x);
  return avg > 0 ? static_cast<double>(mx) / avg : 1.0;
}

}  // namespace sagnn
