#pragma once
// The strategy planner: census-driven autotuning over the strategy and
// partitioner registries (docs/planner.md). plan_strategies() enumerates a
// candidate grid — (strategy, partitioner, p, c, chunks) — prices every
// candidate through DistributionStrategy::predict_cost(), and returns the
// full ranking, cheapest first. No training runs, no measurement: a plan
// is pure arithmetic over a GraphCensus, so it is deterministic across
// machines and thread counts. TrainerBuilder::autotune() is the one-call
// surface (builder knobs pin dimensions and shrink the search);
// bench_planner quantifies the planner's regret against exhaustive truth
// sweeps and CI gates it at 10%.

#include <string>
#include <vector>

#include "gnn/strategy.hpp"
#include "plan/census.hpp"

namespace sagnn {

struct PlannerOptions {
  /// Probe configuration for take_census() when the caller lets
  /// autotune() take the census itself.
  CensusOptions census;
  /// Strategy names to consider; empty = every registered strategy.
  /// Unknown names raise UnknownNameError (fail fast, like the builder).
  std::vector<std::string> strategies;
  /// Partitioner names to consider; empty = every registered partitioner.
  std::vector<std::string> partitioners;

  /// Candidate rank counts, searched when pinned_p == 0.
  std::vector<int> p_grid = {8, 64, 256};
  int pinned_p = 0;  ///< > 0: plan exactly this p
  /// Candidate replication/depth factors, searched when pinned_c == 0.
  std::vector<int> c_grid = {1, 2, 4};
  int pinned_c = 0;  ///< >= 1: plan exactly this c
  /// Candidate pipeline-chunk counts, searched when pinned_chunks == 0.
  std::vector<int> chunk_grid = {1, 2, 4, 8, 16};
  int pinned_chunks = 0;  ///< >= 1: plan exactly this K

  /// Priced through this model; volume_scale == 1.0 is auto-calibrated to
  /// the census's sim_scale, mirroring run_experiment().
  CostModel cost_model;
  /// GCN layer dims; empty = the default architecture {f, 16, 16, classes}.
  std::vector<vid_t> dims;
};

/// One priced candidate configuration.
struct PlanCandidate {
  std::string strategy;
  std::string partitioner;
  int p = 0;
  int c = 1;
  int chunks = 1;
  int depth = 1;        ///< modeled pipeline depth
  EpochCost predicted;  ///< closed-form buckets (no measurement)
  double seconds = 0;   ///< predicted.total_pipelined(depth) — the rank key
};

/// The ranked plan: every valid candidate, cheapest first. Ties rank
/// deterministically by (strategy, partitioner, p, c, chunks).
struct Plan {
  std::vector<PlanCandidate> ranked;
  /// Unique diagnostics for declined candidates (invalid geometry,
  /// strategies without a predictor).
  std::vector<std::string> skipped;

  /// The winning candidate. Throws Error if nothing was plannable.
  const PlanCandidate& best() const;
};

/// Enumerate, price, and rank the candidate grid. Equal-cost duplicates
/// (a knob the strategy ignores, e.g. c for the 1D family) collapse onto
/// the smallest knob value.
Plan plan_strategies(const GraphCensus& census, const PlannerOptions& opts);

}  // namespace sagnn
