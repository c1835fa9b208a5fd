#pragma once
// In-memory span recorder for the traced runs. Spans are recorded by the
// benchmark's own code around its calls into the program's modules; each
// stamps host wall-clock and per-thread CPU time and carries its track (a
// simulated rank, or the host thread). Nothing is written until the run
// ends; then the spans become Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.

#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< operation, e.g. "propagate_fwd"
  const char* cat = "";   ///< module: partition, sparse, dense, dist, ...
  int track = 0;
  int step = -1;       ///< epoch or query index; -1 = set-up
  double begin = 0;    ///< wall seconds since the benchmark's origin
  double wall = 0;     ///< wall seconds
  double cpu = 0;      ///< thread-CPU seconds
  double value = 0;    ///< span-specific payload (see the recording site)
};

/// One span vector per track. A track is written by one thread at a time,
/// so recording takes no lock.
class SpanLog {
 public:
  /// Tracks 0..n_ranks-1 are ranks; track n_ranks is the host thread.
  explicit SpanLog(int n_ranks) : tracks_(static_cast<std::size_t>(n_ranks) + 1) {}

  int host() const { return static_cast<int>(tracks_.size()) - 1; }
  std::vector<Span>& track(int t) { return tracks_[static_cast<std::size_t>(t)]; }
  const std::vector<std::vector<Span>>& tracks() const { return tracks_; }

  /// Write spans with step < max_step as Chrome trace-event JSON.
  void write_chrome_trace(const std::string& path, int max_step) const;

 private:
  std::vector<std::vector<Span>> tracks_;
};

/// RAII span: stamps wall and thread-CPU time at construction and appends
/// the finished span to its track at destruction.
class Scope {
 public:
  Scope(SpanLog& log, int track, int step, const char* name, const char* cat);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Payload slot of this span (e.g. the local-compute CPU seconds a
  /// propagate reports through its out-parameter).
  double& value() { return span_.value; }

 private:
  std::vector<Span>& out_;
  Span span_;
  double cpu0_ = 0;
};

}  // namespace perfbench
