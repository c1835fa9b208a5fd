#include "simcomm/cost_model.hpp"

#include <algorithm>

namespace sagnn {

CostModel::PhaseCostDetail CostModel::phase_cost_detail(
    const PhaseTraffic& t) const {
  // Evaluate both sides of every rank and keep the decomposition of the
  // single (rank, side) with the largest serialization time, so
  // seconds == latency + beta * bytes holds exactly at the bottleneck.
  PhaseCostDetail worst;
  const auto consider = [&](int rank, bool sending) {
    PhaseCostDetail side;
    for (int peer = 0; peer < t.p; ++peer) {
      if (peer == rank) continue;
      const int src = sending ? rank : peer;
      const int dst = sending ? peer : rank;
      const std::size_t i = static_cast<std::size_t>(src) * t.p + dst;
      const double msgs = static_cast<double>(t.msgs[i]);
      const double bytes = static_cast<double>(t.bytes[i]);
      side.latency += alpha(src, dst) * msgs;
      side.messages += msgs;
      side.bytes += bytes * volume_scale;
      side.seconds += alpha(src, dst) * msgs + beta(src, dst) * bytes * volume_scale;
    }
    if (side.seconds > worst.seconds) worst = side;
  };
  for (int r = 0; r < t.p; ++r) {
    consider(r, /*sending=*/true);
    consider(r, /*sending=*/false);
  }
  return worst;
}

double CostModel::compute_seconds(
    const std::vector<double>& per_rank_cpu_seconds) const {
  double worst = 0;
  for (double s : per_rank_cpu_seconds) worst = std::max(worst, s);
  return worst * compute_scale * volume_scale;
}

void EpochCost::scale(double factor) {
  compute *= factor;
  alltoall *= factor;
  bcast *= factor;
  allreduce *= factor;
  other *= factor;
  alltoall_latency *= factor;
  bcast_latency *= factor;
  allreduce_latency *= factor;
  other_latency *= factor;
  alltoall_messages *= factor;
  alltoall_bytes *= factor;
}

EpochCost epoch_cost(const CostModel& model, const TrafficRecorder& traffic,
                     const std::vector<double>& per_rank_cpu_seconds,
                     const std::vector<std::string>& exclude_bases) {
  EpochCost cost;
  cost.compute = model.compute_seconds(per_rank_cpu_seconds);
  for (const auto& name : traffic.phase_names()) {
    const std::string base = TrafficRecorder::base_name(name);
    if (base == "sync") continue;
    if (std::find(exclude_bases.begin(), exclude_bases.end(), base) !=
        exclude_bases.end()) {
      continue;
    }
    const CostModel::PhaseCostDetail d =
        model.phase_cost_detail(traffic.phase(name));
    if (base == "alltoall") {
      cost.alltoall += d.seconds;
      cost.alltoall_latency += d.latency;
      cost.alltoall_messages += d.messages;
      cost.alltoall_bytes += d.bytes;
    } else if (base == "bcast") {
      cost.bcast += d.seconds;
      cost.bcast_latency += d.latency;
    } else if (base == "allreduce") {
      cost.allreduce += d.seconds;
      cost.allreduce_latency += d.latency;
    } else {
      cost.other += d.seconds;
      cost.other_latency += d.latency;
    }
  }
  return cost;
}

}  // namespace sagnn
