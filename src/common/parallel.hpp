#pragma once
// Shared thread-pool parallel runtime for host compute (partitioning and
// the blocked SpMM/GEMM kernels).
//
// Design rules that every user of this header relies on:
//
//   * One lazily-started fixed pool per process. Size resolution order:
//     set_parallel_threads() override (the TrainConfig::threads knob) >
//     SAGNN_THREADS environment variable > std::thread::hardware_concurrency.
//   * Determinism: parallel_for splits [begin, end) into fixed chunks of
//     `grain` iterations. Chunk boundaries depend only on (range, grain),
//     never on the worker count, so a kernel whose chunks own disjoint
//     outputs is bit-identical at every thread count. parallel_reduce
//     combines the per-chunk partials with a fixed binary tree over the
//     chunk index — also independent of scheduling.
//   * Nesting guard: a thread inside a SerialRegion or inside a pool
//     worker runs parallel_for inline and serially. Every worker thread of
//     a Cluster holds a SerialRegion for its whole life (simcomm/fiber.hpp),
//     so the rank fibers it runs compute serially. Per-rank ThreadCpuTimer
//     compute measurement and the bit-identical serial-parity sweep are
//     therefore unaffected by the pool's existence.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace sagnn {

/// Worker count the next parallel_for will use (>= 1). Resolves the pool
/// size on first call; 1 means all work runs inline on the caller.
int parallel_threads();

/// Override the pool size. n >= 1 pins it; n <= 0 resets to the
/// environment default (SAGNN_THREADS, else hardware concurrency). An
/// already-started pool is shut down and relaunched at the new size on its
/// next use. Must not be called from inside parallel work.
void set_parallel_threads(int n);

/// True when the calling thread must not fan out: it is a pool worker or
/// sits inside a SerialRegion.
bool in_serial_region();

/// RAII marker forcing parallel_for on this thread (and the code it calls)
/// to run inline and serially. Nests. Every Cluster worker thread holds
/// one, so distributed-trainer compute stays single-threaded and per-rank
/// CPU timing stays meaningful.
class SerialRegion {
 public:
  SerialRegion();
  ~SerialRegion();
  SerialRegion(const SerialRegion&) = delete;
  SerialRegion& operator=(const SerialRegion&) = delete;
};

/// Invoke fn(chunk_begin, chunk_end) for every grain-sized chunk of
/// [begin, end), possibly concurrently. Chunks are exactly
/// [begin + i*grain, min(end, begin + (i+1)*grain)) regardless of the
/// worker count; the serial path visits them in index order. fn must not
/// throw (kernels and scans here never do).
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);

/// Deterministic reduction: partials[i] = map(chunk_i begin, chunk_i end),
/// folded by a fixed binary tree over the chunk index. The result is a
/// pure function of (range, grain, map, combine) — thread count and
/// scheduling cannot change it. `identity` is returned for an empty range.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  T identity, const MapFn& map, const CombineFn& combine) {
  if (end <= begin) return identity;
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t n_chunks = ceil_div(end - begin, g);
  std::vector<T> partials(static_cast<std::size_t>(n_chunks), identity);
  parallel_for(begin, end, g, [&](std::int64_t b, std::int64_t e) {
    partials[static_cast<std::size_t>((b - begin) / g)] = map(b, e);
  });
  for (std::int64_t stride = 1; stride < n_chunks; stride *= 2) {
    for (std::int64_t i = 0; i + stride < n_chunks; i += 2 * stride) {
      partials[static_cast<std::size_t>(i)] =
          combine(std::move(partials[static_cast<std::size_t>(i)]),
                  std::move(partials[static_cast<std::size_t>(i + stride)]));
    }
  }
  return std::move(partials.front());
}

/// Grain that yields roughly `per_thread` chunks per worker — the default
/// sizing for scan loops where per-iteration cost is uniform.
inline std::int64_t parallel_grain(std::int64_t n, std::int64_t per_thread = 4) {
  const std::int64_t tasks = static_cast<std::int64_t>(parallel_threads()) * per_thread;
  return n <= tasks ? 1 : ceil_div(n, tasks);
}

}  // namespace sagnn
