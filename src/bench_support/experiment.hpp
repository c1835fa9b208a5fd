#pragma once
// The one shared experiment runner behind every bench and example driver:
// a fully name-driven configuration record (strategy and partitioner are
// registry strings, the dataset is optional by name) funneled through
// TrainerBuilder. Drivers stopped carrying their own trainer-wiring code —
// adding a strategy or partitioner makes it selectable everywhere at once.

#include <iosfwd>
#include <string>

#include "gnn/trainer.hpp"

namespace sagnn {

struct ExperimentSpec {
  /// "serial", "sampled", or any registered distribution strategy.
  std::string strategy = "1d-sparse";
  std::string partitioner = "block";  ///< partitioner registry name
  int p = 4;
  int c = 1;
  int epochs = 2;
  /// Host thread-pool size (TrainConfig::threads; 0 = leave as-is).
  int threads = 0;
  /// Column chunks for pipelined strategies ("1d-overlap", "1.5d-overlap").
  int pipeline_chunks = 4;
  /// Layer widths etc.; dims are auto-derived from the dataset when empty.
  GcnConfig gcn;
  PartitionerOptions partitioner_options;
  /// volume_scale is auto-calibrated from Dataset::sim_scale when left at
  /// the default 1.0 (see CostModel::volume_scale).
  CostModel cost_model;
  SamplingConfig sampling;

  // --- checkpoint knobs (src/ckpt/) ---
  /// When non-empty, resume from this checkpoint file instead of building
  /// a fresh trainer. The checkpoint's configuration is authoritative —
  /// the spec's other fields are IGNORED on resume; deviate only through
  /// `resume_overrides` below.
  std::string resume_from;
  /// Explicit overrides applied on resume; zero/empty fields keep the
  /// checkpoint's values. Setting p (and optionally c) is an elastic
  /// restart onto a new rank count.
  struct ResumeOverrides {
    int p = 0;
    int c = 0;
    int epochs = 0;
    std::string partitioner;
  };
  ResumeOverrides resume_overrides;
  /// When non-empty, save the final training state to this file after the
  /// run, so a later experiment can continue from it.
  std::string checkpoint_to;

  /// The equivalent TrainConfig for `dataset`.
  TrainConfig to_train_config(const Dataset& dataset) const;
};

/// Build, train, and report one experiment.
TrainResult run_experiment(const Dataset& dataset, const ExperimentSpec& spec);

/// Print every registered strategy and partitioner (canonical names with
/// aliases, plus the built-in trainer modes) — the payload of the drivers'
/// --list flag.
void print_registry_catalog(std::ostream& out);

/// Shared --list flag handling for driver mains: when any argument equals
/// "--list", print the catalog to stdout and return true (the caller exits
/// 0 without running anything).
bool handle_list_flag(int argc, char** argv);

}  // namespace sagnn
