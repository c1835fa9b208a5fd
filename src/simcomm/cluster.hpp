#pragma once
// SPMD launcher: runs every simulated GPU rank as a fiber on the Cluster's
// own worker threads (simcomm/fiber.hpp) and hands each a world Comm. The
// workers start with the Cluster and are joined when it is destroyed;
// every run() reuses them and their pooled fiber stacks, so an epoch
// spawns no thread. Exceptions thrown by any rank are captured and
// rethrown on the caller thread after all ranks have finished, so a
// failing rank cannot deadlock the harness.

#include <functional>
#include <memory>
#include <utility>

#include "simcomm/comm.hpp"
#include "simcomm/fiber.hpp"

namespace sagnn {

class FaultPlan;

class Cluster {
 public:
  /// A cluster of p ranks on min(p, parallel_threads()) worker threads.
  explicit Cluster(int p);

  /// Cluster with a deterministic fault plan (fault.hpp) installed on the
  /// world. Null or empty plans are bitwise identical to Cluster(p).
  Cluster(int p, std::shared_ptr<const FaultPlan> plan);

  int p() const { return world_.size(); }
  CommWorld& world() { return world_; }
  TrafficRecorder& traffic() { return world_.traffic(); }

  /// Run `fn(comm)` on every rank; returns when all ranks finish. Rethrows
  /// the first rank exception (by rank order) if any occurred, preferring
  /// the root cause (e.g. a RankKilledError) over secondary AbortedErrors.
  void run(const std::function<void(Comm&)>& fn);

 private:
  CommWorld world_;
  FiberRuntime runtime_;
};

/// One-shot convenience: build a cluster of size p, run fn, return the
/// recorded traffic.
TrafficRecorder run_spmd(int p, const std::function<void(Comm&)>& fn);

/// run_spmd with a fault plan installed on the world.
TrafficRecorder run_spmd(int p, std::shared_ptr<const FaultPlan> plan,
                         const std::function<void(Comm&)>& fn);

}  // namespace sagnn
