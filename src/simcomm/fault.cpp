#include "simcomm/fault.hpp"

#include <algorithm>
#include <cmath>

namespace sagnn {

namespace {

/// splitmix64 finalizer: the per-event decision hash. Pure function of its
/// inputs — fault outcomes are independent of thread interleaving.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Uniform [0, 1) draw for one event, keyed by every identifying field.
double event_uniform(std::uint64_t seed, std::uint64_t kind, int src, int dst,
                     long tag, std::uint64_t seq, std::uint64_t attempt) {
  std::uint64_t h = mix64(seed ^ (kind * 0x2545f4914f6cdd1dull));
  h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32 |
                 static_cast<std::uint32_t>(dst)));
  h = mix64(h ^ static_cast<std::uint64_t>(tag));
  h = mix64(h ^ seq);
  h = mix64(h ^ attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

FaultPlan::FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {
  SAGNN_REQUIRE(spec_.drop_probability >= 0 && spec_.drop_probability <= 1,
                "drop_probability must be in [0, 1]");
  for (const auto& [link, prob] : spec_.link_drop) {
    SAGNN_REQUIRE(prob >= 0 && prob <= 1,
                  "link_drop probability must be in [0, 1]");
    SAGNN_REQUIRE(link.first >= 0 && link.second >= 0,
                  "link_drop ranks must be non-negative");
  }
  for (const auto& [rank, factor] : spec_.rank_slowdown) {
    SAGNN_REQUIRE(rank >= 0, "rank_slowdown ranks must be non-negative");
    SAGNN_REQUIRE(factor >= 1.0, "slowdown factors must be >= 1");
  }
  SAGNN_REQUIRE(spec_.straggler_send_delay >= 0,
                "straggler_send_delay must be >= 0");
  SAGNN_REQUIRE(spec_.max_attempts >= 1, "max_attempts must be >= 1");
  SAGNN_REQUIRE(spec_.retry_timeout > 0, "retry_timeout must be positive");
  SAGNN_REQUIRE(spec_.backoff >= 1.0, "backoff must be >= 1");
  SAGNN_REQUIRE(spec_.retry_timeout_cap >= spec_.retry_timeout,
                "retry_timeout_cap must be >= retry_timeout");
  for (const KillSpec& k : spec_.kills) {
    SAGNN_REQUIRE(k.epoch >= 0 && k.rank >= 0,
                  "kill epoch and rank must be non-negative");
  }
  fired_.reserve(spec_.kills.size());
  for (std::size_t i = 0; i < spec_.kills.size(); ++i) {
    fired_.push_back(std::make_unique<std::atomic<bool>>(false));
  }
}

bool FaultPlan::empty() const {
  if (!spec_.kills.empty()) return false;
  if (spec_.drop_probability > 0) return false;
  for (const auto& [link, prob] : spec_.link_drop) {
    if (prob > 0) return false;
  }
  for (const auto& [rank, factor] : spec_.rank_slowdown) {
    if (factor > 1.0) return false;
  }
  return true;
}

int FaultPlan::kills_fired() const {
  int n = 0;
  for (const auto& f : fired_) {
    if (f->load(std::memory_order_acquire)) ++n;
  }
  return n;
}

double FaultPlan::drop_probability(int src, int dst) const {
  if (src == dst) return 0;  // local copies never traverse a link
  auto it = spec_.link_drop.find({src, dst});
  return it != spec_.link_drop.end() ? it->second : spec_.drop_probability;
}

bool FaultPlan::should_drop(int src, int dst, long tag, std::uint64_t seq,
                            std::uint64_t attempt) const {
  const double prob = drop_probability(src, dst);
  if (prob <= 0) return false;
  if (prob >= 1) return true;
  return event_uniform(spec_.seed, 0xD0, src, dst, tag, seq, attempt) < prob;
}

double FaultPlan::send_delay(int rank) const {
  auto it = spec_.rank_slowdown.find(rank);
  if (it == spec_.rank_slowdown.end()) return 0;
  return (it->second - 1.0) * spec_.straggler_send_delay;
}

double FaultPlan::retry_timeout(std::uint64_t attempt) const {
  const double exponent =
      attempt > 0 ? static_cast<double>(attempt - 1) : 0.0;
  return std::min(spec_.retry_timeout_cap,
                  spec_.retry_timeout * std::pow(spec_.backoff, exponent));
}

void FaultPlan::maybe_kill(int rank, int epoch, std::uint64_t sends_done) const {
  for (std::size_t i = 0; i < spec_.kills.size(); ++i) {
    const KillSpec& k = spec_.kills[i];
    if (k.rank != rank || k.epoch != epoch || k.after_sends > sends_done) {
      continue;
    }
    // One-shot: mark fired BEFORE throwing so the epochs a recovery loop
    // replays after restoring run clean.
    bool expected = false;
    if (fired_[i]->compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      throw RankKilledError(k.rank, k.epoch, k.permanent);
    }
  }
}

}  // namespace sagnn
