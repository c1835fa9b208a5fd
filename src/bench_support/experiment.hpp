#pragma once
// The one shared experiment runner behind every bench and example driver:
// a TrainConfig (strategy and partitioner are registry names) funneled
// through TrainerBuilder. Drivers carry no trainer-wiring code of their
// own — adding a strategy or partitioner makes it selectable everywhere at
// once.

#include <iosfwd>

#include "gnn/trainer.hpp"

namespace sagnn {

/// Build, train, and report one experiment. A `cfg.cost_model.volume_scale`
/// left at 1.0 is calibrated to `dataset.sim_scale` (see
/// CostModel::volume_scale); GCN dims are derived from the dataset when
/// empty, as TrainerBuilder does for every run.
TrainResult run_experiment(const Dataset& dataset, TrainConfig cfg);

/// Print every registered strategy and partitioner (canonical names with
/// aliases, plus the built-in trainer modes) — the payload of the drivers'
/// --list flag.
void print_registry_catalog(std::ostream& out);

/// Shared --list flag handling for driver mains: when any argument equals
/// "--list", print the catalog to stdout and return true (the caller exits
/// 0 without running anything).
bool handle_list_flag(int argc, char** argv);

}  // namespace sagnn
