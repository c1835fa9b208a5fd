// Wall-clock scaling of the thread-pool parallel runtime: multilevel
// partitioning end-to-end and the blocked SpMM / GEMM kernels, swept
// across thread counts — on the synthetic datasets, and with --large on
// streamed multi-million-edge graphs (rmat_csr / powerlaw_csr). Kernels
// run at feature width 8 (the column-chunk width of the pipelined 1.5D
// multiply in the train-1.5d workload), 16 (the paper's hidden width) and
// 64.
//
// Unlike every other bench (which reports alpha-beta MODELED times), this
// one measures real seconds — it seeds the perf trajectory with hardware
// numbers and guards the runtime's three contracts:
//
//   * determinism: for a fixed seed, partition assignments must be
//     IDENTICAL at every thread count (round-synchronous matching, fixed
//     chunk boundaries);
//   * kernel parity: each SpMM/GEMM kernel's output at the first thread
//     count must be bitwise equal to its *_reference kernel's, and its
//     output at every other thread count to that first output;
//   * scaling: with --large on a machine with >= 8 hardware threads, the
//     CSR SpMM must reach >= 4x speedup at 8 threads (skipped with a
//     printed notice on smaller hosts — the container this grows in has 1).
//
// Violations exit nonzero so CI can gate on this binary. Results are also
// appended to BENCH_wallclock.json (records: bench, dataset, partitioner,
// width, threads, seconds, speedup, gbps; width is 0 for partition rows)
// which CI uploads as a workflow artifact; scripts/check_bench_json.py
// validates the record shape.
//
// GB/s is algorithmic bytes / seconds: nnz*8 + nnz*f*4 + 2*n*f*4 per SpMM
// sweep (indices+values once, one gathered H row per nonzero, Z touched
// twice), and the analogous read/write footprint for the GEMM variants
// (gemm is C = H·W, gemm_at_b is Hᵀ·H, gemm_a_bt is H·Wᵀ).
//
// Usage: bench_wallclock [--smoke | --large]
//   --smoke  tiny datasets, threads {1,2} — the CI configuration.
//   --large  streamed generator graphs (millions of edges), threads
//            {1,2,4,8}, scaling self-assert armed (spmm at width 64).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "dense/gemm.hpp"
#include "graph/generators.hpp"
#include "sparse/spmm.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

struct Record {
  std::string bench;
  std::string dataset;
  std::string partitioner;  // empty for kernel rows
  vid_t width = 0;          // feature width; 0 for partition rows
  int threads = 1;
  double seconds = 0;
  double speedup = 1.0;
  double gbps = 0;  // algorithmic GB/s; 0 for partition rows
};

std::vector<Record> g_records;

void emit_json(const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    out << "  {\"bench\": \"" << r.bench << "\", \"dataset\": \"" << r.dataset
        << "\", \"partitioner\": \"" << r.partitioner
        << "\", \"width\": " << r.width << ", \"threads\": " << r.threads
        << ", \"seconds\": " << r.seconds << ", \"speedup\": " << r.speedup
        << ", \"gbps\": " << r.gbps << "}"
        << (i + 1 < g_records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "\nwrote " << g_records.size() << " records to " << path << "\n";
}

/// Median wall-clock of `reps` runs of fn() — enough smoothing for a
/// scaling table without google-benchmark machinery.
template <typename Fn>
double timed(const Fn& fn, int reps = 3) {
  std::vector<double> runs;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer t;
    fn();
    runs.push_back(t.seconds());
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

void bench_partitioners(const std::string& name, const CsrMatrix& a,
                        const std::vector<int>& thread_counts, int reps = 3) {
  print_banner(std::cout, name + " — multilevel partitioning");
  Table table({"partitioner", "threads", "seconds", "speedup"});
  PartitionerOptions opts;
  opts.seed = 99;
  const int k = 16;
  for (const char* pname : {"metis", "gvb"}) {
    double base_seconds = 0;
    std::vector<vid_t> base_assignment;
    for (int t : thread_counts) {
      set_parallel_threads(t);
      Partition part;
      const double seconds = timed(
          [&] { part = make_partitioner(pname, opts)->partition(a, k); }, reps);
      if (t == thread_counts.front()) {
        base_seconds = seconds;
        base_assignment = part.part_of;
      } else if (part.part_of != base_assignment) {
        // The determinism contract of the parallel coarsener is broken —
        // fail loudly so CI catches it.
        std::cerr << "DETERMINISM VIOLATION: " << pname << " on " << name
                  << " with seed " << opts.seed << " differs at " << t
                  << " threads vs " << thread_counts.front() << "\n";
        std::exit(1);
      }
      const double speedup = seconds > 0 ? base_seconds / seconds : 1.0;
      g_records.push_back({"partition", name, pname, 0, t, seconds, speedup, 0.0});
      table.add_row({pname, std::to_string(t), Table::num(seconds, 4),
                     Table::num(speedup, 3)});
    }
  }
  table.print(std::cout);
}

/// C = A·B by gemm_accumulate_reference, the parity twin of gemm().
Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  Matrix c(a.n_rows(), b.n_cols());
  gemm_accumulate_reference(a, b, c);
  return c;
}

void bench_kernels(const std::string& name, const CsrMatrix& a,
                   const std::vector<int>& thread_counts) {
  print_banner(std::cout, name + " — blocked kernel throughput");
  Table table({"kernel", "width", "threads", "seconds", "GB/s", "speedup"});
  Rng rng(4242);
  const vid_t n = a.n_rows();
  const int spmm_iters = 5;
  const double dn = static_cast<double>(n);
  const double dnnz = static_cast<double>(a.nnz());
  struct Kernel {
    const char* name;
    double bytes;
    std::function<Matrix()> run;
    std::function<Matrix()> reference;  ///< the same call on *_reference
  };
  for (const vid_t f : {vid_t{8}, vid_t{16}, vid_t{64}}) {
    const Matrix h = Matrix::random_uniform(n, f, rng);
    const Matrix w = Matrix::random_uniform(f, f, rng);
    const double df = static_cast<double>(f);
    // Algorithmic traffic per run() call (see the file comment).
    const double spmm_bytes =
        spmm_iters * (dnnz * 8 + dnnz * df * 4 + 2 * dn * df * 4);
    const double dense_bytes = 2 * dn * df * 4 + df * df * 4;
    const std::vector<Kernel> kernels = {
        {"spmm", spmm_bytes,
         [&] {
           Matrix z(n, f);
           for (int i = 0; i < spmm_iters; ++i) spmm_accumulate(a, h, z);
           return z;
         },
         [&] {
           Matrix z(n, f);
           for (int i = 0; i < spmm_iters; ++i) spmm_accumulate_reference(a, h, z);
           return z;
         }},
        {"gemm", dense_bytes, [&] { return gemm(h, w); },
         [&] { return gemm_reference(h, w); }},
        {"gemm_at_b", dense_bytes, [&] { return gemm_at_b(h, h); },
         [&] { return gemm_at_b_reference(h, h); }},
        {"gemm_a_bt", dense_bytes, [&] { return gemm_a_bt(h, w); },
         [&] { return gemm_a_bt_reference(h, w); }},
    };
    for (const auto& kernel : kernels) {
      double base_seconds = 0;
      Matrix base_out;
      for (int t : thread_counts) {
        set_parallel_threads(t);
        Matrix out;
        const double seconds = timed([&] { out = kernel.run(); });
        if (t == thread_counts.front()) {
          if (!(out == kernel.reference())) {
            std::cerr << "PARITY VIOLATION: " << kernel.name << " at width " << f
                      << " on " << name << " is not bitwise identical to its "
                      << "reference kernel at " << t << " threads\n";
            std::exit(1);
          }
          base_seconds = seconds;
          base_out = std::move(out);
        } else if (!(out == base_out)) {
          std::cerr << "PARITY VIOLATION: " << kernel.name << " at width " << f
                    << " on " << name << " is not bitwise identical at " << t
                    << " threads\n";
          std::exit(1);
        }
        const double speedup = seconds > 0 ? base_seconds / seconds : 1.0;
        const double gbps = seconds > 0 ? kernel.bytes / seconds / 1e9 : 0.0;
        g_records.push_back({kernel.name, name, "", f, t, seconds, speedup, gbps});
        table.add_row({kernel.name, std::to_string(f), std::to_string(t),
                       Table::num(seconds, 4), Table::num(gbps, 3),
                       Table::num(speedup, 3)});
      }
    }
  }
  table.print(std::cout);
}

/// The --large scaling gate: CSR SpMM at width 64 must reach >= 4x at 8
/// threads on at least one of the large graphs. Skipped (with a notice)
/// when the host has fewer than 8 hardware threads or 8 wasn't in the
/// sweep.
void assert_large_scaling(const std::vector<int>& thread_counts) {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool swept8 = std::find(thread_counts.begin(), thread_counts.end(),
                                8) != thread_counts.end();
  double best = 0;
  std::string best_ds;
  for (const Record& r : g_records) {
    if (r.bench == "spmm" && r.width == 64 && r.threads == 8 &&
        r.speedup > best) {
      best = r.speedup;
      best_ds = r.dataset;
    }
  }
  if (hw < 8 || !swept8) {
    std::cout << "\nscaling assert SKIPPED: host has " << hw
              << " hardware threads (need >= 8 for the 4x @ 8-thread gate)\n";
    return;
  }
  std::cout << "\nscaling assert: best width-64 spmm speedup @ 8 threads = "
            << best << " (" << best_ds << ")\n";
  if (best < 4.0) {
    std::cerr << "SCALING VIOLATION: spmm reached only " << best
              << "x at 8 threads (gate: >= 4x)\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--large") == 0) large = true;
  }
  preamble("Wall-clock — thread-pool scaling",
           "Real measured seconds (not alpha-beta model): multilevel\n"
           "partitioning end-to-end and blocked SpMM/GEMM throughput vs\n"
           "thread count. Partition assignments are asserted identical\n"
           "across thread counts (fixed seed), kernel outputs bitwise\n"
           "equal to the reference kernels and across thread counts —\n"
           "exit 1 on violation.");

  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  if (large) {
    // Streamed multi-million-edge regime: graphs land directly in CSR
    // (~8 bytes per stored arc peak), no COO intermediate.
    const int scale = 18, edge_factor = 16;
    Rng rng(7);
    const CsrMatrix rmat_a = rmat_csr(scale, edge_factor, rng);
    std::cout << "\nrmat-18:     n = " << rmat_a.n_rows()
              << ", stored arcs = " << rmat_a.nnz() << "\n";
    const CsrMatrix pl_a =
        powerlaw_csr(vid_t{1} << scale, edge_factor, 0.9, rng);
    std::cout << "powerlaw-18: n = " << pl_a.n_rows()
              << ", stored arcs = " << pl_a.nnz() << "\n";
    bench_kernels("rmat-18", rmat_a, thread_counts);
    bench_kernels("powerlaw-18", pl_a, thread_counts);
    // Partitioning at this size is seconds per run — a single rep keeps
    // the tier's wall-clock sane while still swept over thread counts.
    bench_partitioners("rmat-18", rmat_a, thread_counts, /*reps=*/1);
    assert_large_scaling(thread_counts);
  } else {
    const DatasetScale scale =
        smoke ? DatasetScale::kSmall : DatasetScale::kDefault;
    // papers-sim is the largest synthetic dataset — the acceptance row for
    // the >= 2x @ 8 threads partitioning criterion; amazon-sim adds the
    // sparse-irregular regime.
    const Dataset amazon = make_amazon_sim(scale);
    bench_partitioners(amazon.name, amazon.adjacency, thread_counts);
    bench_kernels(amazon.name, amazon.adjacency, thread_counts);
    if (!smoke) {
      const Dataset papers = make_papers_sim(scale);
      bench_partitioners(papers.name, papers.adjacency, thread_counts);
      bench_kernels(papers.name, papers.adjacency, thread_counts);
    }
  }

  emit_json("BENCH_wallclock.json");
  set_parallel_threads(0);
  return 0;
}
