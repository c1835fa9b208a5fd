// Distributed-training workbench: run any (dataset, strategy, partitioner,
// p, c) combination from the command line and get the full training report
// — the programmatic analogue of the paper's experiment runner.
//
//   $ ./distributed_training                          # defaults
//   $ ./distributed_training reddit 1d-sparse gvb 16
//   $ ./distributed_training protein 1.5d-sparse gvb 32 4
//
// The strategy and partitioner arguments are REGISTRY names, passed
// through verbatim: every registered implementation is runnable from here
// with no parsing code to update. Unknown names fail with a message
// listing the registered choices.
//
// Strategies:   1d-oblivious | 1d-sparse | 1d-overlap | 1.5d-oblivious
//               | 1.5d-sparse | 1.5d-overlap | 2d-oblivious | 2d-sparse
//               | 3d   (2D: square p; 3D: p = q^2 * c, c is the depth)
// Partitioners: block | random | metis | gvb
//
// `--list` prints the live registry catalogs (canonical names + aliases)
// and exits — the authoritative version of the comment above.
//
// c defaults to 1; pass it explicitly (e.g. "... 32 4") to exercise 1.5D
// replication — with c=1 the 1.5D algorithms degenerate to the 1D layout
// (and the 3D strategy to 2D). The banner echoes the effective c. A sixth
// argument sets the column chunk count for the pipelined strategies
// (default 4).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_support/experiment.hpp"
#include "graph/datasets.hpp"

using namespace sagnn;

int main(int argc, char** argv) {
  if (handle_list_flag(argc, argv)) return 0;
  const std::string dataset = argc > 1 ? argv[1] : "amazon";
  const std::string strategy = argc > 2 ? argv[2] : "1d-sparse";
  const std::string partitioner = argc > 3 ? argv[3] : "gvb";
  const int p = argc > 4 ? std::atoi(argv[4]) : 8;
  const int c = argc > 5 ? std::atoi(argv[5]) : 1;
  const int chunks = argc > 6 ? std::atoi(argv[6]) : 4;

  try {
    const Dataset ds = make_dataset(dataset, DatasetScale::kSmall);
    TrainConfig cfg;
    cfg.strategy = strategy;
    cfg.partitioner = partitioner;
    cfg.p = p;
    cfg.c = c;  // only the 1.5D family reads it; others ignore c
    cfg.pipeline_chunks = chunks;  // only the pipelined strategies read it
    cfg.gcn.epochs = 10;
    cfg.gcn.learning_rate = 0.3f;

    std::printf("== %s | %s | partitioner=%s | p=%d c=%d ==\n",
                ds.name.c_str(), strategy.c_str(), partitioner.c_str(), cfg.p,
                cfg.c);
    const TrainResult r = run_experiment(ds, cfg);

    std::printf("\nepoch  loss      train-acc\n");
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
      std::printf("%5zu  %-8.4f  %.3f\n", e, r.epochs[e].loss,
                  r.epochs[e].train_accuracy);
    }

    std::printf("\npartitioning: %.3fs wall, edgecut=%lld, "
                "max-send=%llu rows, volume imbalance=%.1f%%\n",
                r.partition_wall_seconds,
                static_cast<long long>(r.volume_model.edgecut),
                static_cast<unsigned long long>(r.volume_model.max_send_rows()),
                r.volume_model.send_imbalance_percent());
    std::printf("one-time setup exchange: %.3f MB\n", r.setup_megabytes);
    std::printf("\nper-epoch traffic:\n");
    for (const auto& [phase, vol] : r.phase_volumes) {
      std::printf("  %-12s %9.3f MB  %7.0f msgs\n", phase.c_str(),
                  vol.megabytes_per_epoch, vol.messages_per_epoch);
    }
    const EpochCost& m = r.modeled_epoch;
    std::printf("\nmodeled epoch time %.3f ms = compute %.3f + alltoall %.3f "
                "+ bcast %.3f + allreduce %.3f + other %.3f\n",
                m.total() * 1e3, m.compute * 1e3, m.alltoall * 1e3,
                m.bcast * 1e3, m.allreduce * 1e3, m.other * 1e3);
    std::printf("schedule columns: bulk %.3f ms | pipelined(%d) %.3f ms | "
                "overlap bound %.3f ms\n",
                r.modeled_epoch_seconds() * 1e3, r.pipeline_stages,
                r.modeled_epoch_pipelined_seconds() * 1e3,
                r.modeled_epoch_overlapped_seconds() * 1e3);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
