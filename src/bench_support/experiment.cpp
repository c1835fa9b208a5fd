#include "bench_support/experiment.hpp"

#include <cstring>
#include <iostream>

#include "gnn/strategy.hpp"
#include "partition/partitioner_registry.hpp"

namespace sagnn {

TrainResult run_experiment(const Dataset& dataset, TrainConfig cfg) {
  if (cfg.cost_model.volume_scale == 1.0) {
    // Calibrate modeled times to the full-size dataset this analogue
    // stands for (see Dataset::sim_scale / CostModel::volume_scale).
    cfg.cost_model.volume_scale = dataset.sim_scale;
  }
  auto trainer = TrainerBuilder(dataset).config(std::move(cfg)).build();
  trainer->train();
  return trainer->result();
}

void print_registry_catalog(std::ostream& out) {
  out << "strategies:   " << strategy_registry().catalog() << "\n"
      << "trainer modes: serial, sampled (built-in, not registry entries)\n"
      << "partitioners: " << partitioner_registry().catalog() << "\n";
}

bool handle_list_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      print_registry_catalog(std::cout);
      return true;
    }
  }
  return false;
}

}  // namespace sagnn
