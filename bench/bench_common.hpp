#pragma once
// Shared helpers for the figure/table reproduction benches: a uniform way
// to run one (dataset, strategy, partitioner, p, c) configuration and
// collect modeled epoch costs + exact volumes. All configuration selection
// is by registry NAME through the shared run_experiment() helper
// (src/bench_support/experiment.hpp) — the benches carry no trainer wiring
// of their own.
//
// Every bench prints the paper-shaped table on stdout. Absolute times come
// from the alpha-beta cost model; the claims being reproduced are the
// *relative* shapes: who wins, by what factor, and where the crossovers sit.

#include <iostream>
#include <map>
#include <string>

#include "bench_support/experiment.hpp"
#include "bench_support/tableio.hpp"
#include "graph/datasets.hpp"

namespace sagnn::bench {

struct SchemeSpec {
  std::string label;        // e.g. "CAGNET", "SA", "SA+GVB"
  std::string strategy;     // distribution-strategy registry name
  std::string partitioner;  // partitioner registry name
};

inline const SchemeSpec kCagnet1d{"CAGNET", "1d-oblivious", "block"};
inline const SchemeSpec kSa1d{"SA", "1d-sparse", "block"};
inline const SchemeSpec kSaMetis1d{"SA+METIS", "1d-sparse", "metis"};
inline const SchemeSpec kSaGvb1d{"SA+GVB", "1d-sparse", "gvb"};

inline TrainResult run_scheme(const Dataset& ds, const SchemeSpec& scheme,
                              int p, int c = 1, int epochs = 2) {
  TrainConfig cfg;
  cfg.strategy = scheme.strategy;
  cfg.partitioner = scheme.partitioner;
  cfg.p = p;
  cfg.c = c;
  cfg.gcn.epochs = epochs;
  return run_experiment(ds, cfg);
}

/// Milliseconds with 4 significant digits, for table cells.
inline std::string ms(double seconds) { return Table::num(seconds * 1e3, 4); }

inline void preamble(const std::string& what, const std::string& note) {
  std::cout << "\n######## " << what << " ########\n" << note << "\n";
}

}  // namespace sagnn::bench
