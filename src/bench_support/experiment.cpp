#include "bench_support/experiment.hpp"

#include <cstring>
#include <fstream>
#include <iostream>

#include "gnn/strategy.hpp"
#include "partition/partitioner_registry.hpp"

namespace sagnn {

TrainConfig ExperimentSpec::to_train_config(const Dataset& dataset) const {
  TrainConfig cfg;
  cfg.gcn = gcn;  // empty dims stay empty; TrainerBuilder derives them
  cfg.gcn.epochs = epochs;
  cfg.strategy = strategy;
  cfg.threads = threads;
  cfg.p = p;
  cfg.c = c;
  cfg.partitioner = partitioner;
  cfg.partitioner_options = partitioner_options;
  cfg.cost_model = cost_model;
  cfg.pipeline_chunks = pipeline_chunks;
  if (cfg.cost_model.volume_scale == 1.0) {
    // Calibrate modeled times to the full-size dataset this analogue
    // stands for (see Dataset::sim_scale / CostModel::volume_scale).
    cfg.cost_model.volume_scale = dataset.sim_scale;
  }
  cfg.sampling = sampling;
  return cfg;
}

TrainResult run_experiment(const Dataset& dataset, const ExperimentSpec& spec) {
  std::unique_ptr<Trainer> trainer;
  if (!spec.resume_from.empty()) {
    // Resume path: the checkpoint's configuration is authoritative. Only
    // fields the caller put into resume_overrides become explicit builder
    // overrides (a different p than the snapshot's is an elastic restart).
    std::ifstream in(spec.resume_from, std::ios::binary);
    SAGNN_REQUIRE(in.good(), "cannot open checkpoint " + spec.resume_from);
    TrainerBuilder builder(dataset);
    const auto& ov = spec.resume_overrides;
    // c = 0 in ranks() means "keep the checkpoint's replication factor"
    // on the resume path (TrainerBuilder::resume documents this).
    if (ov.p > 0) builder.ranks(ov.p, ov.c);
    if (!ov.partitioner.empty()) {
      builder.partitioner(ov.partitioner, spec.partitioner_options);
    }
    if (ov.epochs > 0) builder.epochs(ov.epochs);
    trainer = builder.resume(in);
  } else {
    trainer = TrainerBuilder(dataset).config(spec.to_train_config(dataset)).build();
  }
  trainer->train();
  if (!spec.checkpoint_to.empty()) {
    std::ofstream out(spec.checkpoint_to, std::ios::binary);
    SAGNN_REQUIRE(out.good(),
                  "cannot open " + spec.checkpoint_to + " for writing");
    trainer->save(out);
  }
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
