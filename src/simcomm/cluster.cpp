#include "simcomm/cluster.hpp"

#include <algorithm>
#include <exception>
#include <vector>

#include "common/parallel.hpp"

namespace sagnn {

Cluster::Cluster(int p) : world_(p), runtime_(std::min(p, parallel_threads())) {}

Cluster::Cluster(int p, std::shared_ptr<const FaultPlan> plan) : Cluster(p) {
  if (plan != nullptr) world_.install_fault_plan(std::move(plan));
}

void Cluster::run(const std::function<void(Comm&)>& fn) {
  const int p = world_.size();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  runtime_.run(p, [this, &fn, &errors](int r) {
    try {
      Comm comm(world_, r);
      fn(comm);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      // Unblock every rank waiting on a message from us; they will fail
      // with AbortedError instead of deadlocking.
      world_.abort();
    }
  });
  // Prefer the root-cause error over secondary AbortedErrors.
  std::exception_ptr aborted;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortedError&) {
      aborted = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (aborted) std::rethrow_exception(aborted);
}

TrafficRecorder run_spmd(int p, const std::function<void(Comm&)>& fn) {
  Cluster cluster(p);
  cluster.run(fn);
  return cluster.traffic();
}

TrafficRecorder run_spmd(int p, std::shared_ptr<const FaultPlan> plan,
                         const std::function<void(Comm&)>& fn) {
  Cluster cluster(p, std::move(plan));
  cluster.run(fn);
  return cluster.traffic();
}

}  // namespace sagnn
