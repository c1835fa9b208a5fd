#include "dist/spmm_15d.hpp"

#include <algorithm>

#include "common/timer.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {

GridLayout GridLayout::make(int p, int c) {
  SAGNN_REQUIRE(p >= 1, "need at least one rank");
  SAGNN_REQUIRE(c >= 1, "replication factor must be positive");
  SAGNN_REQUIRE(p % (c * c) == 0, "1.5D requires c^2 | P");
  return {p, p / c, c};
}

DistSpmm15d::DistSpmm15d(Comm& comm, const CsrMatrix& a,
                         std::span<const BlockRange> ranges, int c, SpmmMode mode)
    : layout_(GridLayout::make(comm.size(), c)),
      grid_row_(layout_.grid_row(comm.rank())),
      grid_col_(layout_.grid_col(comm.rank())),
      mode_(mode),
      ranges_(ranges.begin(), ranges.end()),
      col_comm_(layout_.s == 1
                    ? comm
                    : comm.split([this](int r) { return layout_.grid_col(r); })),
      row_comm_(comm.split([this](int r) { return layout_.grid_row(r); })) {
  SAGNN_REQUIRE(static_cast<int>(ranges_.size()) == layout_.rows,
                "1.5D needs one block row per grid row");
  SAGNN_REQUIRE(a.n_rows() == a.n_cols(), "distributed matrix must be square");
  {
    // split_block_cols rejects ranges that do not tile [0, n). The split
    // is scoped so the unassigned blocks are freed before the index
    // exchange below, which every rank reaches while still constructing.
    std::vector<CsrMatrix> split =
        split_block_cols(extract_row_block(a, my_range()), ranges_);
    blocks_.resize(ranges_.size());
    for (int j = 0; j < layout_.rows; ++j) {
      if (!assigned(j)) continue;
      auto& block = split[static_cast<std::size_t>(j)];
      // Only a remote block reads packed rows; the own block reads H in
      // place.
      if (mode_ == SpmmMode::kSparsityAware && j != grid_row_) {
        blocks_[static_cast<std::size_t>(j)] = compact_columns(std::move(block));
      } else {
        blocks_[static_cast<std::size_t>(j)].matrix = std::move(block);
      }
    }
  }
  if (mode_ != SpmmMode::kSparsityAware) return;

  // Index exchange within the grid column: request the needed rows of every
  // ASSIGNED remote block from its replica in our column.
  std::vector<std::vector<vid_t>> wants(static_cast<std::size_t>(layout_.rows));
  for (int j = 0; j < layout_.rows; ++j) {
    if (j == grid_row_ || !assigned(j)) continue;
    wants[static_cast<std::size_t>(j)] = blocks_[static_cast<std::size_t>(j)].cols;
  }
  requests_ = alltoallv<vid_t>(col_comm_, wants, "index_exchange");
  requests_[static_cast<std::size_t>(grid_row_)].clear();
}

Matrix DistSpmm15d::multiply(const Matrix& h_local, double* cpu_seconds) {
  SAGNN_REQUIRE(h_local.n_rows() == my_range().size(),
                "H block must match this rank's row range");
  if (mode_ == SpmmMode::kSparsityAware) {
    // The bulk-synchronous sparsity-aware multiply IS the single-chunk
    // pipelined schedule (untagged phases, no extra column copies) — one
    // implementation, so the exchange/consume protocol cannot drift.
    return multiply_pipelined(h_local, 1, nullptr, cpu_seconds);
  }

  const vid_t f = h_local.n_cols();
  Matrix z(my_range().size(), f);
  // Oblivious: broadcast whole blocks within the grid column; each block
  // is broadcast only inside the columns assigned to it, so the per-rank
  // broadcast volume shrinks ~c-fold versus 1D.
  for (int j = 0; j < layout_.rows; ++j) {
    if (!assigned(j)) continue;
    const vid_t rows = ranges_[static_cast<std::size_t>(j)].size();
    std::vector<real_t> buf;
    if (j == grid_row_) {
      buf.assign(h_local.data(), h_local.data() + h_local.size());
    } else {
      buf.resize(static_cast<std::size_t>(rows) * f);
    }
    bcast<real_t>(col_comm_, j, buf, "bcast");
    ThreadCpuTimer timer;
    const Matrix h_j(rows, f, std::move(buf));
    spmm_accumulate(blocks_[static_cast<std::size_t>(j)].matrix, h_j, z);
    if (cpu_seconds != nullptr) *cpu_seconds += timer.seconds();
  }

  // Combine the replicas' partial sums; afterwards every rank of the grid
  // row holds the identical full Z block.
  if (layout_.s > 1) {
    allreduce_sum<real_t>(row_comm_, {z.data(), z.size()}, "allreduce");
  }
  return z;
}

Matrix DistSpmm15d::multiply_pipelined(const Matrix& h_local, int chunks,
                                       int* stage_counter, double* cpu) {
  SAGNN_REQUIRE(mode_ == SpmmMode::kSparsityAware,
                "pipelined multiply needs the sparsity-aware index exchange");
  SAGNN_REQUIRE(h_local.n_rows() == my_range().size(),
                "H block must match this rank's row range");
  const vid_t f = h_local.n_cols();
  const int k_chunks =
      std::max(1, std::min(chunks, static_cast<int>(std::max<vid_t>(1, f))));
  const bool tagged = stage_counter != nullptr;
  const int stage_base = tagged ? *stage_counter : 0;
  const auto col_begin = [&](int k) {
    return static_cast<vid_t>(static_cast<std::int64_t>(f) * k / k_chunks);
  };

  // Pack one column chunk of the requested rows and POST its exchange
  // within the grid column (sends deposit immediately, the irecvs stay
  // pending until the chunk boundary's wait()). Under a cross-layer
  // schedule every chunk gets its epoch-wide stage id and a disjoint tag
  // window, so stages neither blur in the cost accounting nor cross-match
  // while in flight.
  const auto exchange = [&](int k) {
    const vid_t c0 = col_begin(k);
    const vid_t fc = col_begin(k + 1) - c0;
    ThreadCpuTimer pack_timer;
    std::vector<std::vector<real_t>> send(static_cast<std::size_t>(layout_.rows));
    for (int i = 0; i < layout_.rows; ++i) {
      if (i == grid_row_) continue;
      const auto& rows = requests_[static_cast<std::size_t>(i)];
      auto& buf = send[static_cast<std::size_t>(i)];
      buf.reserve(rows.size() * static_cast<std::size_t>(fc));
      for (vid_t row : rows) {
        buf.insert(buf.end(), h_local.row(row) + c0, h_local.row(row) + c0 + fc);
      }
    }
    if (cpu != nullptr) *cpu += pack_timer.seconds();
    const int stage = stage_base + k;
    return ialltoallv<real_t>(
        col_comm_, send,
        tagged ? TrafficRecorder::stage_phase("alltoall", stage) : "alltoall",
        tagged ? coll_detail::alltoall_stage_tag(stage)
               : coll_detail::kAlltoallTag);
  };

  // Double-buffered (depth-2) software pipeline: chunk k+1's exchange is
  // posted before chunk k is even waited for, so its irecvs stay pending,
  // and the peers' sends land in them, through both the wait and the
  // local SpMM of chunk k. wait() at the chunk boundary records the
  // measured hidden/blocked split of that window.
  Matrix z(my_range().size(), f);
  auto in_flight = exchange(0);
  for (int k = 0; k < k_chunks; ++k) {
    PendingAlltoall<real_t> next;
    if (k + 1 < k_chunks) next = exchange(k + 1);
    auto received = in_flight.wait();
    in_flight = std::move(next);
    const vid_t c0 = col_begin(k);
    const vid_t fc = col_begin(k + 1) - c0;
    ThreadCpuTimer timer;
    // Every chunk accumulates straight into its column window of z. Remote
    // chunks arrive packed to the chunk's width; the plain own block reads
    // the same window of H in place.
    for (int j = 0; j < layout_.rows; ++j) {
      if (!assigned(j)) continue;
      const CompactedBlock& block = blocks_[static_cast<std::size_t>(j)];
      if (block.matrix.nnz() == 0) continue;
      if (j == grid_row_) {
        spmm_accumulate(block.matrix, h_local, c0, z, c0, fc);
      } else {
        // The Matrix ctor validates the flat buffer's size against
        // (rows, cols).
        const Matrix packed(static_cast<vid_t>(block.cols.size()), fc,
                            std::move(received[static_cast<std::size_t>(j)]));
        spmm_accumulate(block.matrix, packed, 0, z, c0, fc);
      }
    }
    if (cpu != nullptr) *cpu += timer.seconds();
  }

  // Combine the replicas' partial sums over the FULL width in one
  // collective — element-for-element the same ring schedule as multiply(),
  // which is what keeps the math bitwise identical to "1.5d-sparse". Under
  // a cross-layer schedule it occupies its own pipeline stage.
  if (layout_.s > 1) {
    allreduce_sum<real_t>(
        row_comm_, {z.data(), z.size()},
        tagged ? TrafficRecorder::stage_phase("allreduce", stage_base + k_chunks)
               : "allreduce");
  }
  if (tagged) *stage_counter = stage_base + k_chunks + (layout_.s > 1 ? 1 : 0);
  return z;
}

}  // namespace sagnn
