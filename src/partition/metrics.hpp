#pragma once
// Communication-volume model of a partitioned SpMM (paper §5, Table 2).
//
// For the sparsity-aware 1D algorithm, part j must send the H-row of vertex
// v ∈ j to part i exactly when v has a neighbor in i (the column segment of
// v in block A^T_{i·} is nonzero). These metrics are *predictions* from the
// matrix and partition alone; tests cross-check them against the traffic the
// simulated cluster actually records.

#include <vector>

#include "partition/partition.hpp"
#include "sparse/csr.hpp"

namespace sagnn {

struct VolumeStats {
  int k = 1;
  /// vol[j*k + i]: number of H rows part j sends to part i (i != j; the
  /// diagonal is zero by construction).
  std::vector<std::uint64_t> pair_rows;
  eid_t edgecut = 0;  ///< number of undirected edges crossing parts

  std::uint64_t send_rows(int j) const;
  std::uint64_t total_rows() const;
  std::uint64_t max_send_rows() const;
  double avg_send_rows() const;
  /// (max_send / avg_send - 1) * 100, the paper's "load imbalance %".
  double send_imbalance_percent() const;

  /// Volumes in bytes for feature width f (H rows are f real_t values).
  double total_megabytes(vid_t f) const;
  double avg_send_megabytes(vid_t f) const;
  double max_send_megabytes(vid_t f) const;
};

/// Compute the sparsity-aware volume model for `partition` of symmetric
/// adjacency `adj`.
VolumeStats compute_volume_stats(const CsrMatrix& adj, const Partition& partition);

/// Computational balance: max over parts of (nnz in part) / (avg nnz).
double compute_load_imbalance(const CsrMatrix& adj, const Partition& partition);

}  // namespace sagnn
