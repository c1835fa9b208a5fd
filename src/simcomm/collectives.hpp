#pragma once
// Collective operations over a Comm, built from point-to-point messages the
// same way NCCL composes them from ncclSend/ncclRecv (paper §6.2):
//
//   bcast          binomial tree
//   allreduce_sum  ring reduce-scatter + ring all-gather (bandwidth optimal)
//   allgatherv     ring with variable-size blocks
//   alltoallv      grouped pairwise exchange, exactly the
//                  ncclGroupStart/ncclSend/ncclRecv/ncclGroupEnd pattern
//   ialltoallv     the same exchange posted nonblocking: returns a
//                  PendingAlltoall handle; wait() at the chunk boundary
//                  (the MPI_Request idiom the pipelined SpMMs use)
//
// Every operation takes a `phase` label under which its traffic is recorded,
// so bench harnesses can attribute bytes to "bcast" vs "alltoall" vs
// "allreduce" like the paper's Figure 4 breakdown.
//
// Collective calls must be made by ALL members of the communicator in the
// same order (standard SPMD contract). Tags are derived from a per-call
// user-supplied `tag` (default per-op bases) so back-to-back collectives of
// the same kind do not cross-match; all ops fully synchronize matching
// sends/recvs, so reusing a base tag across calls is safe.

#include <numeric>
#include <vector>

#include "simcomm/comm.hpp"

namespace sagnn {

namespace coll_detail {
// The bases are not renumbered when an op goes: seeded lossy-link drops
// hash the stamped tag, so a new base would change which messages drop.
inline constexpr long kBcastTag = 1L << 20;
inline constexpr long kAllreduceTag = 3L << 20;
inline constexpr long kAllgatherTag = 4L << 20;
inline constexpr long kAlltoallTag = 5L << 20;

/// Tag base for pipeline stage `stage` of a chunked alltoallv chain
/// (DistSpmm15d::multiply_pipelined, at every c): distinct windows
/// for up to 127 in-flight stages, each leaving room for p step offsets
/// inside the 1<<20 window between collective tag bases
/// (127 * 8192 + p < 1<<20). Stages beyond 127 reuse a base, which stays
/// safe because recv matches FIFO per (src, tag).
inline constexpr long alltoall_stage_tag(int stage) {
  return kAlltoallTag + (1 + stage % 127) * 8192L;
}
}  // namespace coll_detail

/// Binomial-tree broadcast. All ranks must pass a `data` buffer of the same
/// element count; on return every rank holds root's contents.
template <typename T>
void bcast(Comm& comm, int root, std::vector<T>& data,
           const std::string& phase = "bcast") {
  const int p = comm.size();
  if (p == 1) return;
  const int relative = (comm.rank() - root + p) % p;
  int mask = 1;
  while (mask < p) {
    if (relative & mask) {
      const int src = (relative - mask + root) % p;
      data = comm.recv<T>(src, coll_detail::kBcastTag);
      break;
    }
    mask <<= 1;
  }
  // `mask` is now the bit on which this rank received (or >= p for the
  // root); forward to children at strictly smaller offsets.
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < p) {
      const int dst = (relative + mask + root) % p;
      comm.send<T>(dst, coll_detail::kBcastTag, std::span<const T>(data), phase);
    }
    mask >>= 1;
  }
}

/// Ring all-reduce (reduce-scatter then all-gather). Bandwidth-optimal:
/// each rank sends ~2 * data_size bytes total regardless of p.
template <typename T>
void allreduce_sum(Comm& comm, std::span<T> data,
                   const std::string& phase = "allreduce") {
  const int p = comm.size();
  if (p == 1) return;
  const int me = comm.rank();
  const int next = (me + 1) % p;
  const int prev = (me - 1 + p) % p;

  // Chunk boundaries: p near-equal contiguous slices of `data`.
  const std::size_t n = data.size();
  auto chunk_begin = [&](int c) {
    return n * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
  };
  auto chunk = [&](int c) {
    return data.subspan(chunk_begin(c), chunk_begin(c + 1) - chunk_begin(c));
  };

  // Reduce-scatter: after p-1 steps, rank r owns the fully reduced chunk
  // (r + 1) % p.
  for (int s = 0; s < p - 1; ++s) {
    const int send_c = (me - s + p) % p;
    const int recv_c = (me - s - 1 + p) % p;
    comm.send<T>(next, coll_detail::kAllreduceTag + s,
                 std::span<const T>(chunk(send_c)), phase);
    auto incoming = comm.recv<T>(prev, coll_detail::kAllreduceTag + s);
    auto dst = chunk(recv_c);
    SAGNN_CHECK(incoming.size() == dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += incoming[i];
  }
  // All-gather the reduced chunks around the ring.
  for (int s = 0; s < p - 1; ++s) {
    const int send_c = (me - s + 1 + p) % p;
    const int recv_c = (me - s + p) % p;
    // Tag offset 4096 keeps all-gather steps disjoint from reduce-scatter
    // steps even when a fast neighbor races ahead into the second phase.
    comm.send<T>(next, coll_detail::kAllreduceTag + 4096 + s,
                 std::span<const T>(chunk(send_c)), phase);
    auto incoming = comm.recv<T>(prev, coll_detail::kAllreduceTag + 4096 + s);
    auto dst = chunk(recv_c);
    SAGNN_CHECK(incoming.size() == dst.size());
    std::copy(incoming.begin(), incoming.end(), dst.begin());
  }
}

/// Variable-size all-gather: returns all ranks' contributions, indexed by
/// rank. Ring algorithm; p-1 steps, each forwarding the block received in
/// the previous step.
template <typename T>
std::vector<std::vector<T>> allgatherv(Comm& comm, std::span<const T> mine,
                                       const std::string& phase = "allgather") {
  const int p = comm.size();
  std::vector<std::vector<T>> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(comm.rank())].assign(mine.begin(), mine.end());
  if (p == 1) return out;
  const int next = (comm.rank() + 1) % p;
  const int prev = (comm.rank() - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (comm.rank() - s + p) % p;
    const int recv_block = (comm.rank() - s - 1 + p) % p;
    comm.send<T>(next, coll_detail::kAllgatherTag + s,
                 std::span<const T>(out[static_cast<std::size_t>(send_block)]), phase);
    out[static_cast<std::size_t>(recv_block)] =
        comm.recv<T>(prev, coll_detail::kAllgatherTag + s);
  }
  return out;
}

template <typename T>
class PendingAlltoall;

template <typename T>
PendingAlltoall<T> ialltoallv(Comm& comm,
                              const std::vector<std::vector<T>>& send_bufs,
                              const std::string& phase = "alltoall",
                              long tag_base = coll_detail::kAlltoallTag);

/// One in-flight nonblocking alltoallv: sends are already deposited (the
/// runtime is eager), the per-source receives stay posted until wait().
/// wait() returns the same recv_bufs the blocking alltoallv would have —
/// the message pattern, tags, and traffic accounting are identical — and
/// records the measured overlap under the exchange's phase in the world's
/// TrafficRecorder: hidden is the time from the end of the post to the
/// entry of wait() (the caller's own work in between), blocked is the
/// time parked inside wait(). The exchange's own sends, claims and copies
/// count as neither. Move-only; exactly one wait() per handle.
template <typename T>
class PendingAlltoall {
 public:
  PendingAlltoall() = default;
  PendingAlltoall(PendingAlltoall&&) noexcept = default;
  PendingAlltoall& operator=(PendingAlltoall&&) noexcept = default;

  bool valid() const { return comm_ != nullptr; }

  /// Complete the exchange: claim every receive (blocking as needed),
  /// record the measured overlap, and return the per-source buffers.
  std::vector<std::vector<T>> wait() {
    SAGNN_REQUIRE(valid(), "wait() on an empty alltoall handle");
    const double hidden = CommWorld::now_seconds() - posted_at_;
    Comm* comm = comm_;
    comm_ = nullptr;
    std::vector<std::vector<T>> recv_bufs(recvs_.size());
    double blocked = 0;
    double max_blocked = 0;
    for (std::size_t s = 0; s < recvs_.size(); ++s) {
      WaitStats stats;
      recv_bufs[s] = Comm::payload_as<T>(recvs_[s].wait(&stats));
      blocked += stats.blocked;
      max_blocked = std::max(max_blocked, stats.blocked);
    }
    comm->world().traffic().record_overlap(phase_, hidden, blocked, max_blocked);
    return recv_bufs;
  }

 private:
  template <typename U>
  friend PendingAlltoall<U> ialltoallv(Comm&, const std::vector<std::vector<U>>&,
                                       const std::string&, long);

  Comm* comm_ = nullptr;
  std::string phase_;
  double posted_at_ = 0;  ///< clock at the end of the post
  std::vector<Request> recvs_;  ///< indexed by source communicator rank
};

/// Nonblocking all-to-all with per-destination buffers: send_bufs[d] goes
/// to rank d; the returned handle's wait() yields recv_bufs where
/// recv_bufs[s] came from rank s. Same grouped pairwise pattern — step k
/// pairs rank r with (r +/- k) mod p, the NCCL ncclGroupStart/ncclSend/
/// ncclRecv/ncclGroupEnd idiom — and the same tags as the blocking
/// alltoallv, so the two compose freely. Pipelined callers that keep
/// several exchanges in flight pass distinct `tag_base`s (one per chunk)
/// to keep the stages disjoint in the tag space; bases must leave room for
/// p step offsets and stay inside the 1<<20 window between collective tag
/// bases. Reusing a base across back-to-back exchanges is still correct —
/// the k-th posted receive per (src, tag) matches the k-th send.
template <typename T>
PendingAlltoall<T> ialltoallv(Comm& comm,
                              const std::vector<std::vector<T>>& send_bufs,
                              const std::string& phase, long tag_base) {
  const int p = comm.size();
  SAGNN_REQUIRE(send_bufs.size() == static_cast<std::size_t>(p),
                "alltoallv needs one send buffer per rank");
  PendingAlltoall<T> pending;
  pending.comm_ = &comm;
  pending.phase_ = phase;
  pending.recvs_.resize(static_cast<std::size_t>(p));
  // Local block: a self-copy, recorded so volume accounting can decide how
  // to treat it (CostModel ignores src==dst traffic).
  comm.send<T>(comm.rank(), tag_base,
               std::span<const T>(send_bufs[static_cast<std::size_t>(comm.rank())]),
               phase);
  pending.recvs_[static_cast<std::size_t>(comm.rank())] =
      comm.irecv(comm.rank(), tag_base);
  for (int step = 1; step < p; ++step) {
    const int dst = (comm.rank() + step) % p;
    const int src = (comm.rank() - step + p) % p;
    comm.send<T>(dst, tag_base + step,
                 std::span<const T>(send_bufs[static_cast<std::size_t>(dst)]), phase);
    pending.recvs_[static_cast<std::size_t>(src)] =
        comm.irecv(src, tag_base + step);
  }
  pending.posted_at_ = CommWorld::now_seconds();
  return pending;
}

/// Blocking all-to-all: ialltoallv posted and waited in one call. A bulk-
/// synchronous caller therefore still contributes an OverlapSample — with
/// a hidden share of two back-to-back clock reads, which is exactly what
/// distinguishes it from a pipelined schedule in the measured columns.
template <typename T>
std::vector<std::vector<T>> alltoallv(Comm& comm,
                                      const std::vector<std::vector<T>>& send_bufs,
                                      const std::string& phase = "alltoall",
                                      long tag_base = coll_detail::kAlltoallTag) {
  return ialltoallv<T>(comm, send_bufs, phase, tag_base).wait();
}

}  // namespace sagnn
