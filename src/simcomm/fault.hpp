#pragma once
// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is built from a FaultSpec and installed on a Cluster (which
// forwards it to its CommWorld). It drives three failure modes through the
// message runtime — per-rank straggler delays, per-link message loss with
// bounded retransmission and exponential backoff, and scheduled rank
// kills — while preserving the two properties the rest of the system is
// built on:
//
//   * Parity by construction: every fault path is behind a null check and
//     an installed-but-EMPTY plan takes none of them, so a fault-free plan
//     is bitwise identical to no plan at all (the registry serial-parity
//     sweep is the gate).
//   * Determinism: each drop decision is a pure hash of
//     (seed, src, dst, tag, seq, attempt) — never a shared RNG stream — so
//     outcomes are independent of thread interleaving and identical across
//     replays. Because every outcome is known when a message is sent,
//     CommWorld::send settles it there: how many attempts the link
//     swallows, and when the retransmission that gets through lands (or
//     when the message is given up as lost).
//     Payload math is never perturbed: a survivable plan yields the same
//     loss trajectory as a fault-free run (modulo elastic restarts, which
//     legitimately re-partition).
//
// Kills are one-shot: a fired KillSpec never fires again, so the epochs a
// recovery loop replays after restoring a checkpoint run clean.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace sagnn {

/// An injected, unrecoverable communication fault: a lossy link swallowed
/// every attempt of a message's retry budget. Surfaced as a typed error
/// (never a hang) so harnesses can assert on it.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& msg) : Error("fault: " + msg) {}
};

/// A scheduled rank kill fired: the killed rank throws this on its own
/// thread, the Cluster aborts the world (peers resolve to AbortedError),
/// and Cluster::run() rethrows it as the root cause. A trainer running
/// with FaultRecovery::kCheckpointRestart catches it and restores from the
/// last auto-checkpoint.
class RankKilledError : public FaultError {
 public:
  RankKilledError(int rank, int epoch, bool permanent)
      : FaultError("rank " + std::to_string(rank) + " killed in epoch " +
                   std::to_string(epoch) +
                   (permanent ? " (permanent)" : " (transient)")),
        rank_(rank),
        epoch_(epoch),
        permanent_(permanent) {}

  int rank() const { return rank_; }
  int epoch() const { return epoch_; }
  /// Permanent kills take the rank away for good — recovery must restart
  /// elastically on p-1 ranks. Transient kills (preemption) restart on p.
  bool permanent() const { return permanent_; }

 private:
  int rank_;
  int epoch_;
  bool permanent_;
};

/// One scheduled rank kill. `after_sends` counts the victim's completed
/// cross-rank sends within the epoch: 0 kills at the epoch boundary
/// (before any work), a positive count kills mid-epoch — e.g. during an
/// in-flight alltoallv whose sends straddle the threshold. A kill whose
/// threshold is never reached within its epoch does not fire.
struct KillSpec {
  int epoch = 0;
  int rank = 0;
  std::uint64_t after_sends = 0;
  bool permanent = false;
};

/// Declarative description of the faults to inject. Every field defaults
/// to "no fault"; a default-constructed spec is an empty plan.
struct FaultSpec {
  /// Seed of the per-event decision hash (drops).
  std::uint64_t seed = 1;

  /// Per-rank slowdown factors (>= 1); absent ranks run at full speed. A
  /// rank with factor s sleeps (s - 1) * straggler_send_delay before each
  /// cross-rank send, so its peers' blocked time rises in the measured
  /// overlap ledger exactly as a real straggler's would.
  std::map<int, double> rank_slowdown;
  double straggler_send_delay = 100e-6;  ///< seconds per send per unit slowdown

  /// Probability that a cross-rank transmission is swallowed by the link
  /// (the sender then retransmits it). `link_drop` entries override the
  /// global probability for specific (src, dst) pairs.
  double drop_probability = 0;
  std::map<std::pair<int, int>, double> link_drop;

  /// Retransmission: attempt a + 1 goes out retry_timeout(a) =
  /// retry_timeout * backoff^(a-1) seconds (capped) after attempt a, from
  /// the send, like a sender's retransmission timer. A message whose
  /// max_attempts attempts are all swallowed is lost: its receive throws a
  /// typed FaultError when the last attempt is swallowed.
  int max_attempts = 5;
  double retry_timeout = 2e-3;
  double backoff = 2.0;
  double retry_timeout_cap = 0.25;

  std::vector<KillSpec> kills;
};

/// Validated, immutable fault plan plus the per-kill one-shot state.
/// Thread-safe: decisions are pure hashes, kill state is atomic.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);
  static std::shared_ptr<FaultPlan> make(FaultSpec spec) {
    return std::make_shared<FaultPlan>(std::move(spec));
  }

  const FaultSpec& spec() const { return spec_; }

  /// True when the plan injects nothing at all — the runtime must then be
  /// bitwise identical to having no plan installed.
  bool empty() const;

  bool has_kills() const { return !spec_.kills.empty(); }
  /// Kills that have fired so far (monotonic; fired kills never re-fire).
  int kills_fired() const;

  /// Drop probability of the (src, dst) link; 0 for self-messages.
  double drop_probability(int src, int dst) const;

  /// Deterministic per-event decisions, keyed by the message identity and
  /// the attempt number (attempt 1 = the original transmission).
  bool should_drop(int src, int dst, long tag, std::uint64_t seq,
                   std::uint64_t attempt) const;

  /// Injected delay before each cross-rank send of `rank` (0 = none).
  double send_delay(int rank) const;

  int max_attempts() const { return spec_.max_attempts; }
  /// Seconds from attempt `attempt` to attempt `attempt + 1` (exponential
  /// backoff, capped at retry_timeout_cap).
  double retry_timeout(std::uint64_t attempt) const;

  /// Throws RankKilledError if an unfired kill for (rank, epoch) has
  /// after_sends <= sends_done; the kill is marked fired BEFORE the throw
  /// so replayed epochs run clean.
  void maybe_kill(int rank, int epoch, std::uint64_t sends_done) const;

 private:
  FaultSpec spec_;
  /// One-shot flags, index-aligned with spec_.kills.
  mutable std::vector<std::unique_ptr<std::atomic<bool>>> fired_;
};

}  // namespace sagnn
