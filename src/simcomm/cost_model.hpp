#pragma once
// Alpha-beta communication cost model, applied to recorded traffic.
//
// The simulated ranks exchange real bytes, so volumes are exact; what the
// single-node host cannot reproduce is the *time* those bytes would take on
// the paper's machine (Perlmutter: 4xA100 per node, NVLink 25 GB/s within a
// node, Slingshot-11 NICs at 25 GB/s across nodes). This model converts a
// PhaseTraffic into seconds:
//
//   per-rank cost  t(r) = max( sum_d  a(r,d) * msgs(r,d) + b(r,d) * bytes(r,d),
//                              sum_s  a(s,r) * msgs(s,r) + b(s,r) * bytes(s,r) )
//   phase cost     T    = max_r t(r)
//
// i.e. each rank serializes its own sends (and receives), and the phase
// completes when the bottleneck rank does — which is exactly the
// "maximum communication volume between a pair of processes" effect the
// paper's partitioner targets. Self-messages are free.
//
// Compute time is handled separately: measured per-rank CPU seconds are
// scaled by `compute_scale` (CPU SpMM throughput -> A100 throughput) and the
// maximum over ranks is taken.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "simcomm/traffic.hpp"

namespace sagnn {

struct CostModel {
  double alpha_intra = 2.0e-6;   ///< latency, ranks on the same node (NVLink)
  double alpha_inter = 10.0e-6;  ///< latency, ranks on different nodes (NIC)
  double beta_intra = 1.0 / 25.0e9;  ///< s/byte within a node (25 GB/s)
  double beta_inter = 1.0 / 25.0e9;  ///< s/byte across nodes (25 GB/s)
  int gpus_per_node = 4;

  /// Measured CPU compute seconds -> modeled GPU seconds. Default assumes
  /// the A100 runs the local SpMM/GEMM mix ~50x faster than one host core;
  /// only *relative* scheme comparisons matter for the reproduction.
  double compute_scale = 1.0 / 50.0;

  /// Dataset scale factor: each simulated vertex stands for `volume_scale`
  /// worth of real (paper-sized) data. Applied to BYTES (the beta term)
  /// and to compute seconds — both are linear in n*f — but NOT to message
  /// counts or latency, because the simulated run already issues the real
  /// number of messages for the chosen P. This is what keeps the
  /// latency/bandwidth balance of the full-size system intact when the
  /// graph is scaled down (see Dataset::sim_scale).
  double volume_scale = 1.0;

  bool same_node(int a, int b) const {
    return a / gpus_per_node == b / gpus_per_node;
  }
  double alpha(int a, int b) const {
    return same_node(a, b) ? alpha_intra : alpha_inter;
  }
  double beta(int a, int b) const {
    return same_node(a, b) ? beta_intra : beta_inter;
  }

  /// One phase's bottleneck cost: the max over ranks of the send-side and
  /// receive-side serialization times, decomposed at the bottleneck itself.
  /// The (rank, side) that sets `seconds` also contributes its alpha share,
  /// message count, and volume-scaled bytes, so
  /// seconds == latency + beta-terms exactly at that bottleneck.
  struct PhaseCostDetail {
    double seconds = 0;   ///< max over ranks of max(send, recv)
    double latency = 0;   ///< alpha (per-message) share at that bottleneck
    double messages = 0;  ///< messages serialized at that bottleneck
    double bytes = 0;     ///< volume-scaled bytes at that bottleneck
  };
  PhaseCostDetail phase_cost_detail(const PhaseTraffic& t) const;

  /// max over ranks of scaled compute seconds.
  double compute_seconds(const std::vector<double>& per_rank_cpu_seconds) const;
};

/// One row of an epoch-time report: modeled seconds per phase + compute,
/// plus the explicit alpha-beta decomposition of each phase bucket (the
/// latency share and, for the chunkable alltoall, the bottleneck message
/// and byte counts) that the pipelined-schedule models below consume.
struct EpochCost {
  double compute = 0;
  double alltoall = 0;
  double bcast = 0;
  double allreduce = 0;
  double other = 0;

  /// Alpha (per-message latency) share of each bucket, measured at the
  /// same bottleneck (rank, side) that sets the bucket's seconds — so
  /// e.g. alltoall == alltoall_latency + beta-terms exactly. For a
  /// stage-tagged phase the stages' bottleneck shares accumulate.
  double alltoall_latency = 0;
  double bcast_latency = 0;
  double allreduce_latency = 0;
  double other_latency = 0;

  /// Bottleneck-rank per-epoch message count and volume-scaled bytes of
  /// the alltoall bucket — the phase pipelined strategies chunk. On a
  /// bulk-synchronous (depth-1) recording these are the K=1 counts the
  /// message-count-aware total_pipelined(K, alpha, beta) reprices.
  double alltoall_messages = 0;
  double alltoall_bytes = 0;

  double comm() const { return alltoall + bcast + allreduce + other; }
  double comm_latency() const {
    return alltoall_latency + bcast_latency + allreduce_latency + other_latency;
  }
  double comm_bandwidth() const { return comm() - comm_latency(); }

  /// Bulk-synchronous epoch time (the paper's execution model):
  /// communication and computation serialize.
  double total() const { return compute + comm(); }

  /// Idealized full communication/computation overlap (the asynchronous
  /// scenario of Selvitopi et al. [21]): the epoch costs whichever side is
  /// longer. A lower bound for any real pipelining scheme; the gap
  /// total() - total_overlapped() is the most overlap could ever recover.
  double total_overlapped() const { return std::max(compute, comm()); }

  /// Critical path of a chunked-pipelining schedule with `stages` stages
  /// (the "1d-overlap" strategy): communication of chunk k+1 proceeds
  /// while chunk k computes, so a two-stage software pipeline over
  /// `stages` equal chunks has makespan
  ///
  ///   max(comm, compute) + min(comm, compute) / stages
  ///
  /// which interpolates exactly between the bulk-synchronous total()
  /// (stages = 1) and the ideal total_overlapped() bound (stages -> inf):
  /// total_overlapped() <= total_pipelined(s) <= total(), monotonically
  /// non-increasing in s. Note this is the schedule bound for the traffic
  /// ALREADY recorded — a chunked run pays extra per-message latency in
  /// comm() itself, which is how the chunk-count sweet spot arises.
  ///
  /// Like total_overlapped(), this treats ALL of comm() as overlappable.
  /// For a schedule that only chunks the alltoall (e.g. "1d-overlap" with
  /// serialized gradient all-reduces), it is an optimistic bound whenever
  /// non-alltoall communication is a significant share of comm().
  double total_pipelined(int stages) const {
    const double s = static_cast<double>(std::max(1, stages));
    return std::max(compute, comm()) + std::min(compute, comm()) / s;
  }

  /// Predicted per-epoch communication when the alltoall runs in `chunks`
  /// column chunks instead of the one this cost recorded: chunking re-pays
  /// the per-message latency once per chunk over the same payload,
  ///
  ///   alltoall(K) = K * alpha * m + beta * V,
  ///
  /// with m = alltoall_messages and V = alltoall_bytes (the bottleneck
  /// counts of a bulk-synchronous K=1 recording); every other bucket is
  /// invariant (its message count does not scale with K). Passing
  /// alpha = alltoall_latency / m and beta = (alltoall - alltoall_latency)
  /// / V reproduces comm() exactly at K = 1 — see effective_alpha_beta().
  double comm_repriced(int chunks, double alpha, double beta) const {
    return static_cast<double>(std::max(1, chunks)) * alpha * alltoall_messages +
           beta * alltoall_bytes + bcast + allreduce + other;
  }

  /// Message-count-aware alpha-beta pipelined model (docs/cost_model.md):
  /// the K-chunk schedule moves comm_repriced(K) worth of communication
  /// through a pipeline `depth` stages deep (depth = K for a within-layer
  /// schedule like "1d-overlap"; cross-layer schedules like "1.5d-overlap"
  /// pass their deeper recorded stage count), so
  ///
  ///   bulk(K)  = compute + comm(K)
  ///   pipe(K)  = max(compute, comm(K)) + min(compute, comm(K)) / depth
  ///   ideal(K) = max(compute, comm(K))
  ///
  /// and bulk(K) >= pipe(K) >= ideal(K) holds for EVERY K — the latency
  /// cap on the useful chunk depth arises because comm(K) itself grows
  /// with K, not because the ordering ever inverts. Predict from a
  /// bulk-synchronous (depth-1) recording; a chunked recording's message
  /// count is already inflated.
  double total_pipelined(int chunks, double alpha, double beta,
                         int depth = 0) const {
    const double comm_k = comm_repriced(chunks, alpha, beta);
    const double d = static_cast<double>(std::max(1, depth == 0 ? chunks : depth));
    return std::max(compute, comm_k) + std::min(compute, comm_k) / d;
  }

  /// The (alpha, beta) pair that makes comm_repriced(1, alpha, beta) ==
  /// comm() exactly: the recorded bottleneck latency per message and
  /// bandwidth-seconds per byte of the alltoall bucket. This is how a
  /// measured baseline row calibrates the predictive model above (zero if
  /// the respective count is zero).
  std::pair<double, double> effective_alpha_beta() const {
    return {alltoall_messages > 0 ? alltoall_latency / alltoall_messages : 0.0,
            alltoall_bytes > 0 ? (alltoall - alltoall_latency) / alltoall_bytes
                               : 0.0};
  }

  /// Multiply every field (compute, buckets, latency shares, counts) by
  /// `factor` — per-epoch averaging of a whole-run assembly.
  void scale(double factor);
};

/// Assemble an EpochCost from a recorder: phases map onto the breakdown
/// buckets by their base name, so the stages of a chunk-tagged phase
/// ("alltoall#k") accumulate into their base bucket, each stage charged at
/// its own bottleneck rank (stages are synchronization points of the
/// pipelined schedule). "sync" is excluded (barriers are free in the
/// paper's model), as is any phase whose base name appears in
/// `exclude_bases`; remaining phases land in `other`.
EpochCost epoch_cost(const CostModel& model, const TrafficRecorder& traffic,
                     const std::vector<double>& per_rank_cpu_seconds,
                     const std::vector<std::string>& exclude_bases = {});

}  // namespace sagnn
