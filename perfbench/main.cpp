// The repository benchmark (see perfbench/METRICS.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--counts-file <path>] [--trace-file <path>]
//
// Workloads: train-compute, train-msgs, train-1.5d. With
// --trace 0 the last stdout line is a JSON object holding the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced run,
// and the spans are written to --trace-file as Chrome trace-event JSON.
// Exit status is 0 only if every correctness check passed.

#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What a user of the system sees. An "op" is one training epoch.
const MetricDef kEndToEnd[] = {
    {"op_ms", "ms"}, {"ops_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. A workload that does not exercise
/// a layer reports 0 for it; serve.* and ckpt.* come from train-compute's
/// serving phase.
const MetricDef kPerLayer[] = {
    {"host.calib_ms", "ms"},
    {"partition.partition_s", "s"},
    {"sparse.permute_s", "s"},
    {"partition.edgecut", "count"},
    {"partition.send_imbalance_pct", "%"},
    {"dist.setup_s", "s"},
    {"dist.index_exchange_mb", "MB"},
    {"dist.index_exchange_msgs", "count"},
    {"dist.propagate_ms", "ms"},
    {"dist.local_compute_ms", "ms"},
    {"dist.local_madds_per_s", "1/s"},
    {"dist.propagate_other_ms", "ms"},
    {"dense.layer_ms", "ms"},
    {"dense.layer_cpu_ms", "ms"},
    {"gnn.loss_ms", "ms"},
    {"gnn.loss_cpu_ms", "ms"},
    {"gnn.optimizer_ms", "ms"},
    {"gnn.optimizer_cpu_ms", "ms"},
    {"gnn.rank_cpu_ms_max", "ms"},
    {"gnn.rank_cpu_ms_mean", "ms"},
    {"gnn.warmup_epoch_ms", "ms"},
    {"simcomm.alltoall_msgs", "count"},
    {"simcomm.alltoall_mb", "MB"},
    {"simcomm.allreduce_msgs", "count"},
    {"simcomm.allreduce_mb", "MB"},
    {"simcomm.other_msgs", "count"},
    {"simcomm.other_mb", "MB"},
    {"simcomm.msgs_per_epoch", "count"},
    {"simcomm.allreduce_ms", "ms"},
    {"simcomm.round_ms", "ms"},
    {"simcomm.us_per_msg", "us"},
    {"simcomm.overlap_hidden_frac", "ratio"},
    {"simcomm.wait_blocked_ms", "ms"},
    {"simcomm.rank_skew", "ratio"},
    {"model.comm_ms", "ms"},
    {"model.compute_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions_per_1k", "count"},
    {"serve.cache_invalidations_per_1k", "count"},
    {"serve.compactions_per_1k", "count"},
    {"serve.bypass_us_p50", "us"},
    {"serve.update_us_p50", "us"},
    {"serve.update_us_p99", "us"},
    {"ckpt.save_ms", "ms"},
    {"ckpt.snapshot_bytes", "bytes"},
    {"ckpt.load_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--counts-file") {
      opt.counts_file = value;
    } else if (key == "--trace-file") {
      opt.trace_file = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (opt.workload.empty() || opt.seconds <= 0) {
    throw std::invalid_argument("need --workload and --seconds > 0");
  }
  return opt;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): distinct, well-mixed streams per use.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    Report rep;
    const double calib = calibrate_host_ms();
    std::cout << "host.calib_ms " << calib
              << " (host wall, fixed single-thread loop)\n";
    std::vector<std::string> names;
    if (opt.trace) {
      for (const MetricDef& m : kPerLayer) {
        rep.set(m.name, 0.0, m.unit);
        names.emplace_back(m.name);
      }
      rep.set("host.calib_ms", calib, "ms");
    } else {
      for (const MetricDef& m : kEndToEnd) names.emplace_back(m.name);
    }
    if (!run_training(opt, rep)) {
      std::cerr << "unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    std::cout << rep.json(names) << std::endl;
    return rep.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
