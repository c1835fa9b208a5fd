// Communication-cost what-if analysis: take one dataset, sweep process
// counts, and decompose WHERE the bytes go under each scheme — the tool a
// practitioner would use to decide whether sparsity-aware communication and
// a better partitioner are worth it for their graph before buying GPU
// hours.
//
//   $ ./comm_cost_analysis            # protein-sim
//   $ ./comm_cost_analysis amazon

#include <iostream>
#include <string>

#include "bench_support/experiment.hpp"
#include "bench_support/tableio.hpp"
#include "graph/datasets.hpp"
#include "partition/metrics.hpp"

using namespace sagnn;

int main(int argc, char** argv) {
  if (handle_list_flag(argc, argv)) return 0;
  const std::string name = argc > 1 ? argv[1] : "protein";
  const Dataset ds = make_dataset(name, DatasetScale::kSmall);
  std::cout << "communication what-if for " << ds.name << " (n="
            << ds.n_vertices() << ", nnz=" << ds.n_edges() << ", f="
            << ds.n_features() << ")\n\n";

  // Static analysis: what does each partitioner predict, before running
  // anything? This is pure graph analysis — no cluster needed.
  std::cout << "static volume model (rows of H crossing parts, per SpMM):\n";
  Table predict({"p", "partitioner", "total rows", "max send", "imbalance %"});
  for (int p : {8, 32}) {
    for (const char* part_name : {"random", "metis", "gvb"}) {
      const auto part = make_partitioner(part_name)->partition(ds.adjacency, p);
      const auto stats = compute_volume_stats(ds.adjacency, part);
      predict.add_row({std::to_string(p), part_name,
                       std::to_string(stats.total_rows()),
                       std::to_string(stats.max_send_rows()),
                       Table::num(stats.send_imbalance_percent(), 3)});
    }
  }
  predict.print(std::cout);

  // Dynamic confirmation: run two epochs on the simulated cluster and
  // report measured bytes + modeled times per scheme.
  std::cout << "\nmeasured per-epoch traffic and modeled time:\n";
  Table measured({"p", "scheme", "comm MB/epoch", "modeled ms/epoch"});
  struct Scheme {
    const char* label;
    const char* strategy;
    const char* partitioner;
  };
  for (int p : {8, 32}) {
    for (const Scheme& s : {Scheme{"oblivious", "1d-oblivious", "block"},
                            Scheme{"SA", "1d-sparse", "block"},
                            Scheme{"SA+GVB", "1d-sparse", "gvb"}}) {
      TrainConfig cfg;
      cfg.strategy = s.strategy;
      cfg.partitioner = s.partitioner;
      cfg.p = p;
      cfg.gcn.epochs = 2;
      const auto r = run_experiment(ds, cfg);
      double mb = 0;
      for (const auto& [phase, vol] : r.phase_volumes) {
        mb += vol.megabytes_per_epoch;
      }
      measured.add_row({std::to_string(p), s.label, Table::num(mb, 4),
                        Table::num(r.modeled_epoch_seconds() * 1e3, 4)});
    }
  }
  measured.print(std::cout);

  std::cout << "\nHow to read this: if 'SA+GVB' cuts comm MB by 10x or more\n"
               "versus 'oblivious', your graph has exploitable structure and\n"
               "the paper's approach will scale; if 'SA' is close to\n"
               "'oblivious', the graph is too well-mixed for sparsity to\n"
               "help without reordering.\n";
  return 0;
}
