#pragma once
// Traffic accounting for the simulated cluster.
//
// Every point-to-point message is attributed to a *phase* (e.g. "alltoall",
// "bcast", "allreduce") and recorded as (src, dst, bytes). Because the
// collectives are built from point-to-point sends exactly like NCCL builds
// them, the recorded per-pair traffic is the real communication volume of
// the algorithm — the quantity the paper's evaluation is about.
//
// Pipelined schedules tag a phase with the stage (chunk) index it belongs
// to: stage k of base phase "alltoall" is recorded under "alltoall#k"
// (see stage_phase()). Consumers that care about the schedule read the
// stages individually; consumers that only care about volume aggregate by
// base_name() (phase_total(), stage_count()).
//
// Recording is sharded by source rank: each rank thread records into its
// own shard (own lock, row `src` of every phase), so concurrent senders
// never contend. Every reader folds the shards back into whole p x p
// phases under the recorder lock; the API sees one recorder.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sagnn {

/// Per-phase (src, dst) byte/message counters for a P-rank run.
struct PhaseTraffic {
  int p = 0;
  std::vector<std::uint64_t> bytes;  ///< p*p, [src*p + dst]
  std::vector<std::uint64_t> msgs;   ///< p*p, [src*p + dst]

  explicit PhaseTraffic(int p_ = 0)
      : p(p_),
        bytes(static_cast<std::size_t>(p_) * p_, 0),
        msgs(static_cast<std::size_t>(p_) * p_, 0) {}

  std::uint64_t bytes_between(int src, int dst) const {
    return bytes[static_cast<std::size_t>(src) * p + dst];
  }
  std::uint64_t total_bytes() const;
  std::uint64_t total_msgs() const;
  /// Total bytes sent by a rank (row sum, excluding self messages).
  std::uint64_t send_bytes(int src) const;
  /// Total bytes received by a rank (column sum, excluding self messages).
  std::uint64_t recv_bytes(int dst) const;
  std::uint64_t max_send_bytes() const;
  double avg_send_bytes() const;
  /// Paper's communication load imbalance: (max_send / avg_send - 1) * 100.
  double send_imbalance_percent() const;
};

/// Measured wall-clock decomposition of a phase's nonblocking exchanges,
/// summed over ranks and calls: `hidden` seconds of the post→wait windows
/// were covered by other work (the overlap a pipelined schedule earned),
/// `blocked` seconds were spent stalled inside wait(). Host wall-clock —
/// compare fractions, not absolute seconds, against the alpha-beta model.
struct OverlapSample {
  double hidden = 0;
  double blocked = 0;
  std::uint64_t waits = 0;  ///< completed exchange waits aggregated here
  /// Longest single stalled wait (seconds) among the aggregated exchanges —
  /// the host's straggler bound: one slow rank's deposit caps how much of
  /// the window any schedule could ever hide.
  double max_blocked = 0;

  /// hidden / (hidden + blocked); 0 when nothing was recorded.
  double fraction() const {
    const double window = hidden + blocked;
    return window > 0 ? hidden / window : 0.0;
  }
};

/// Injected-fault event counters (whole-run totals over all ranks). Like
/// the overlap ledger these are deliberately NOT checkpointed — they count
/// what this process's runtime actually injected.
struct FaultCounters {
  std::uint64_t drops = 0;       ///< send attempts a lossy link swallowed
  std::uint64_t retries = 0;     ///< retransmissions posted after timeouts
  std::uint64_t timeouts = 0;    ///< receive-side timeout expiries
  std::uint64_t duplicates = 0;  ///< redundant deliveries suppressed by seq
  double straggler_seconds = 0;  ///< injected send-side straggler delay

  bool any() const {
    return drops > 0 || retries > 0 || timeouts > 0 || duplicates > 0 ||
           straggler_seconds > 0;
  }
  FaultCounters& operator+=(const FaultCounters& o) {
    drops += o.drops;
    retries += o.retries;
    timeouts += o.timeouts;
    duplicates += o.duplicates;
    straggler_seconds += o.straggler_seconds;
    return *this;
  }
};

class TrafficRecorder {
 public:
  explicit TrafficRecorder(int p);

  /// Copyable (snapshot semantics): takes the source's lock, not its mutex.
  TrafficRecorder(const TrafficRecorder& other);
  TrafficRecorder& operator=(const TrafficRecorder& other);

  /// Record one message. Self-sends (src == dst) are recorded but excluded
  /// from the send/recv summaries above (local copies are free). Takes only
  /// the lock of src's shard.
  void record(const std::string& phase, int src, int dst, std::uint64_t bytes);

  /// Snapshot of one phase (zeroed counters if the phase never occurred).
  PhaseTraffic phase(const std::string& name) const;
  /// Sum over all phases except those listed in `exclude`.
  PhaseTraffic total(const std::vector<std::string>& exclude = {}) const;
  std::vector<std::string> phase_names() const;

  /// Phase name of pipeline stage `stage` of `base` ("alltoall" + 2 ->
  /// "alltoall#2"). Stage tags compose with every accessor above: record()
  /// under the tagged name, read stages individually via phase().
  static std::string stage_phase(const std::string& base, int stage);
  /// The base phase of a possibly stage-tagged name ("alltoall#2" ->
  /// "alltoall"; untagged names pass through).
  static std::string base_name(const std::string& phase);
  /// Number of distinct recorded stages of `base` (an untagged recording
  /// counts as one stage; 0 if the base phase never occurred).
  int stage_count(const std::string& base) const;
  /// Sum of all recorded stages of `base` (equals phase(base) for untagged
  /// phases).
  PhaseTraffic phase_total(const std::string& base) const;

  /// Record the measured outcome of one completed nonblocking exchange
  /// under `phase` (stage-tagged names compose exactly like record()).
  /// `max_blocked` is the longest single stalled wait within the exchange.
  void record_overlap(const std::string& phase, double hidden, double blocked,
                      double max_blocked = 0);

  /// Fault-injection event counters (see fault.hpp). All zero unless a
  /// FaultPlan is installed and actually injecting.
  void record_fault_drop();
  void record_fault_retry();
  void record_fault_timeout();
  void record_fault_duplicate();
  void record_straggler(double seconds);
  FaultCounters fault_counters() const;

  /// Measured overlap of one phase (zeroed if never recorded).
  OverlapSample overlap(const std::string& name) const;
  /// Sum of all recorded stages of `base` (mirrors phase_total()).
  OverlapSample overlap_total(const std::string& base) const;
  /// Phases with recorded overlap samples.
  std::vector<std::string> overlap_names() const;

  /// Overwrite one phase's counters wholesale (checkpoint restore). The
  /// PhaseTraffic geometry must match this recorder's p.
  void set_phase(const std::string& name, PhaseTraffic traffic);

  void reset();
  int p() const { return p_; }

 private:
  /// Row `src` of every phase, written only by record(phase, src, ...).
  /// Cache-line aligned so neighbouring ranks' locks do not false-share.
  struct alignas(64) Shard {
    struct Row {
      explicit Row(int p)
          : bytes(static_cast<std::size_t>(p), 0),
            msgs(static_cast<std::size_t>(p), 0) {}
      std::vector<std::uint64_t> bytes;  ///< [dst]
      std::vector<std::uint64_t> msgs;   ///< [dst]
    };
    std::mutex mutex;
    std::map<std::string, Row> rows;  ///< phase -> this source's row
    /// Last phase recorded: consecutive messages almost always share it.
    std::pair<const std::string, Row>* last = nullptr;
  };

  /// Sum over every phase whose name passes `keep`, folded from all
  /// shards. Caller holds mutex_.
  PhaseTraffic fold(const std::function<bool(const std::string&)>& keep) const;
  /// Sorted, unique names of every recorded phase. Caller holds mutex_.
  std::vector<std::string> names_locked() const;

  int p_;
  /// Serializes readers, set_phase/reset, and the overlap and fault
  /// ledgers. Lock order: mutex_ before any shard mutex.
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< [src]
  /// Measured post→wait ledger. Deliberately NOT checkpointed: wall-clock
  /// is a property of the host session, so restored runs restart it.
  std::map<std::string, OverlapSample> overlap_;
  /// Injected-fault counters; not checkpointed for the same reason.
  FaultCounters faults_;
};

}  // namespace sagnn
