#pragma once
// Shared pieces of the repository benchmark (see perfbench/METRICS.md):
// the metric report a run prints, order statistics over timing samples,
// the host probe, peak RSS, and the exact-count guard.
//
// Three clocks appear in this benchmark and are never mixed within one
// metric: host wall-clock (std::chrono::steady_clock), per-thread CPU time
// (sagnn::ThreadCpuTimer) and alpha-beta modeled time (sagnn::CostModel).
// Counts come from the program's own recorders and must repeat exactly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Exact-count record of earlier runs of this (workload, seed, code).
  std::string counts_file;
  /// Chrome trace-event JSON written by a traced run.
  std::string trace_file;
};

/// What one run reports: named metrics plus the attempted and failed
/// operation counts. A failed correctness check counts as a
/// failed operation.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// One more operation (epoch, query, update or correctness check).
  void attempt() { ++attempted_; }
  /// Record a failed operation or check; `why` goes to stderr.
  void fail(const std::string& why);
  /// A check that is itself one attempted operation.
  void check(bool ok, const std::string& why) {
    attempt();
    if (!ok) fail(why);
  }

  std::int64_t failed() const { return failed_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// the metrics `names`, in that order. A name never set is a failure.
  std::string json(const std::vector<std::string>& names);

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

double median(std::vector<double> v);

/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The tail statistic of a timing sample: the highest whole percentile
/// that still has at least ten samples beyond it, capped at 99.
struct Tail {
  double value = 0;
  int percentile = 50;
};
Tail tail(const std::vector<double>& v);

/// Host probe: median wall ms of a fixed single-thread integer loop. A
/// throttled or busy host shows here when two sets of runs disagree.
double calibrate_host_ms();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Exact bit pattern of a double, for the count guard.
std::string hex(double v);

/// Exact-count guard: deterministic values (traffic, edgecut, modeled
/// communication, loss trajectory) keyed by name. The first run of a
/// (workload, seed, code) writes them; every later run compares, and a
/// difference means the program stopped being deterministic.
class CountGuard {
 public:
  void put(const std::string& key, const std::string& value);
  void put(const std::string& key, double value) { put(key, hex(value)); }
  /// Compare against (or create) `path`; mismatches are failed checks.
  void settle(const std::string& path, Report& report) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Wall seconds since the first call (the benchmark's own origin).
double wall_now();

}  // namespace perfbench
