#include "plan/planner.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "partition/partitioner_registry.hpp"

namespace sagnn {

const PlanCandidate& Plan::best() const {
  SAGNN_REQUIRE(!ranked.empty(), "empty plan: no candidate was plannable");
  return ranked.front();
}

namespace {

/// The caller's list when given (validated fail-fast), else every
/// registered canonical name.
template <typename Registry>
std::vector<std::string> resolve_names(const Registry& registry,
                                       const std::vector<std::string>& wanted) {
  if (wanted.empty()) return registry.names();
  for (const std::string& name : wanted) registry.require(name);
  return wanted;
}

}  // namespace

Plan plan_strategies(const GraphCensus& census, const PlannerOptions& opts) {
  const std::vector<std::string> strategies =
      resolve_names(strategy_registry(), opts.strategies);
  const std::vector<std::string> partitioners =
      resolve_names(partitioner_registry(), opts.partitioners);

  CostModel model = opts.cost_model;
  if (model.volume_scale == 1.0) model.volume_scale = census.sim_scale;

  const std::vector<int> ps =
      opts.pinned_p > 0 ? std::vector<int>{opts.pinned_p} : opts.p_grid;
  const std::vector<int> cs =
      opts.pinned_c >= 1 ? std::vector<int>{opts.pinned_c} : opts.c_grid;
  const std::vector<int> ks = opts.pinned_chunks >= 1
                                  ? std::vector<int>{opts.pinned_chunks}
                                  : opts.chunk_grid;

  Plan plan;
  std::set<std::string> skipped;
  // A knob the strategy ignores (c for 1D, chunks for bulk-synchronous
  // schemes) yields byte-identical predictions; keep only the smallest
  // knob value so the ranking is free of phantom variants.
  std::set<std::tuple<std::string, std::string, int, double>> seen;

  for (const std::string& strategy_name : strategies) {
    const auto strategy = strategy_registry().create(strategy_name);
    for (const std::string& partitioner : partitioners) {
      for (int p : ps) {
        for (int c : cs) {
          for (int k : ks) {
            PredictInput in;
            in.census = &census;
            in.p = p;
            in.c = c;
            in.chunks = k;
            in.partitioner = partitioner;
            in.model = model;
            in.dims = opts.dims;
            const PredictedCost predicted = strategy->predict_cost(in);
            if (!predicted.valid) {
              skipped.insert(strategy_name + " p=" + std::to_string(p) +
                             " c=" + std::to_string(c) + ": " + predicted.note);
              continue;
            }
            const double seconds = predicted.seconds();
            if (!seen.emplace(strategy_name, partitioner, p, seconds).second) {
              continue;
            }
            PlanCandidate cand;
            cand.strategy = strategy_name;
            cand.partitioner = partitioner;
            cand.p = p;
            cand.c = c;
            cand.chunks = k;
            cand.depth = predicted.depth;
            cand.predicted = predicted.cost;
            cand.seconds = seconds;
            plan.ranked.push_back(std::move(cand));
          }
        }
      }
    }
  }

  std::sort(plan.ranked.begin(), plan.ranked.end(),
            [](const PlanCandidate& a, const PlanCandidate& b) {
              return std::tie(a.seconds, a.strategy, a.partitioner, a.p, a.c,
                              a.chunks) < std::tie(b.seconds, b.strategy,
                                                   b.partitioner, b.p, b.c,
                                                   b.chunks);
            });
  plan.skipped.assign(skipped.begin(), skipped.end());
  return plan;
}

}  // namespace sagnn
