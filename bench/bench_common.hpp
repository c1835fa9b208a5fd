#pragma once
// Shared helpers for the bench drivers' printed tables. Configuration
// selection is by registry NAME through the shared run_experiment() helper
// (src/bench_support/experiment.hpp); the benches carry no trainer wiring of
// their own.

#include <iostream>
#include <string>

#include "bench_support/experiment.hpp"
#include "bench_support/tableio.hpp"
#include "graph/datasets.hpp"

namespace sagnn::bench {

/// Milliseconds with 4 significant digits, for table cells.
inline std::string ms(double seconds) { return Table::num(seconds * 1e3, 4); }

inline void preamble(const std::string& what, const std::string& note) {
  std::cout << "\n######## " << what << " ########\n" << note << "\n";
}

}  // namespace sagnn::bench
