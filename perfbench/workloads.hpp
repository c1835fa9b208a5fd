#pragma once
// The benchmark's workloads. Each drives the program through its public
// API from one process; the workload seed feeds the GCN seed and the
// serving phase's query stream.

#include <cstdint>
#include <string>

#include "common.hpp"
#include "graph/datasets.hpp"

namespace perfbench {

/// Training workloads: "train-compute", "train-msgs", "train-1.5d".
/// Returns false if `workload` is not one of them.
bool run_training(const Options& opt, Report& report);

/// The serving and checkpoint layers on `ds`, run after train-compute's
/// timed window: per-layer metrics and correctness checks only.
void run_serving_phase(const sagnn::Dataset& ds, const Options& opt, Report& report,
                       CountGuard& guard);

/// Independent 64-bit stream `stream` derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Host threads the program's thread pool is pinned to (nproc).
int host_threads();

}  // namespace perfbench
