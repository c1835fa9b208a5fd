// Chunked-pipelining overlap sweep: how much of the idealized
// communication/computation overlap gap (EpochCost::total_overlapped(),
// the asynchronous bound of Selvitopi et al.) does the "1d-overlap"
// strategy's K-chunk schedule actually recover?
//
// For each (dataset, p, K) the run records real chunked traffic
// ("alltoall#0".."alltoall#K-1"), and the cost model reports three
// schedule columns:
//   bulk    — bulk-synchronous total(), the paper's execution model;
//   pipe    — total_pipelined(K), the critical path of the K-stage
//             software pipeline over the traffic actually moved;
//   ideal   — total_overlapped(), the full-overlap lower bound.
// The compute term of every row is pinned to the K='sparse' baseline's
// measurement: the local SpMM work is identical across K (same matrix,
// same partition), so re-measuring it per row would only inject
// ThreadCpuTimer noise into what is otherwise a deterministic comparison
// (the comm terms come from exact recorded traffic).
//
// "recovered" is how much of the BASELINE's overlap gap the pipelined
// schedule nets: (bulk_sparse - pipe_K) / (bulk_sparse - ideal_sparse).
// Raising K shrinks the serialized head of the pipeline but multiplies
// per-pair message counts (the alpha term), so recovery peaks at a finite
// chunk count and can go negative when latency swamps the overlap win.
//
// Since the runtime went request-based, every row also carries a MEASURED
// overlap column: the wall-clock decomposition the exchanges themselves
// recorded (TrainResult::alltoall_overlap.fraction(), hidden /
// (hidden + blocked) seconds). Hidden runs from the end of an exchange's
// post to the entry of its wait(), blocked is the time parked inside
// wait(), and the exchange's own sends and copies count as neither. The
// model counterpart of that fraction is the schedule-only 1 - 1/stages;
// "gap pp" is measured minus model in percentage points, and the JSON
// artifact carries all three per record (measured_hidden_pct /
// model_hidden_pct / gap_pct) so CI can trend the model-vs-measured
// agreement. Bulk rows keep a near-zero measured fraction — their
// exchange is waited immediately after posting, so hidden is two
// back-to-back clock reads, a few percent at most — which is the
// built-in control that the measurement reacts to the schedule.
//
// The two columns agree only where the executed depth matches the
// modeled depth: the runtime holds ONE exchange in flight (depth-2
// double buffering), so at K = 2 measured tracks the model's 50%; at
// deeper K the analytic fraction keeps climbing while the wall-clock
// measurement saturates at the straggler/scheduler bound of the host
// (the JSON's gap_pct column tracks exactly that divergence). The CI
// assert therefore gates the K = 2 point, where a regression that stops
// posting ahead collapses measured to the bulk row's near-zero.
//
// The scale table attributes that saturation explicitly: 'tail ms' is
// the single worst blocked wait of the run (the measured straggler bound,
// TrainResult::alltoall_overlap.max_blocked) and 'drop/rt' are the fault
// layer's drop/retry counters — asserted ZERO on these fault-free runs,
// so the gap column is provably a host-scheduler readout and not
// injected-fault pollution. Both land in the JSON artifact (tail_ms,
// drops, retries, straggler_ms).
//
// Self-asserted invariants (exit 1 on violation, so CI can gate on this
// binary): every 1d-overlap row must actually run the configured K
// stages and move exactly the baseline's alltoall bytes — chunking must
// change the schedule, never the payload.
//
// The second half is the LATENCY-REGIME sweep (BENCH_overlap_scale.json,
// a CI artifact): both pipelined strategies ("1d-overlap" and the
// cross-layer "1.5d-overlap") at p in {8, 64, 256} x K in {1..16} on
// reddit-sim. At p = 8 the alpha term is a few percent and deeper
// chunking keeps helping; at p = 256 the K-fold per-message latency
// dominates and the measured pipe time bottoms out at a finite K — the
// useful chunk depth the alpha-beta model of docs/cost_model.md
// predicts. Additional self-asserts there: the expected schedule depth
// per row, chunking never shrinking the bulk term, the measured best K
// at p = 256 sitting strictly inside the swept range (the latency cap
// is visible), the model's prediction at the measured best K being
// within 10% of the measurement, and — the CI-tracked headline — the
// measured overlap fraction at (p = 8, 1d-overlap, K = 2) agreeing with
// the schedule model's 1 - 1/K = 50% within 25 percentage points.
//
// Usage: bench_overlap [--skip-scale | --smoke]
//   --skip-scale  only the quick K-sweep tables (used while iterating;
//                 CI runs the full default so the artifact always has
//                 the p=256 rows).
//   --smoke       quick tables plus ONLY the p = 8 scale points (both
//                 strategy families, measured-overlap assert included),
//                 no JSON artifact — the sanitizer-CI configuration.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <tuple>
#include <vector>

#include "bench_common.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

void run_dataset(const Dataset& ds, const std::vector<int>& ps,
                 const std::vector<int>& chunk_counts) {
  print_banner(std::cout, ds.name);
  Table table({"p", "K", "alltoall MB", "msgs", "bulk ms", "pipe ms",
               "ideal ms", "recovered %", "meas hid %"});
  for (int p : ps) {
    double baseline_compute = 0, baseline_bulk = 0, baseline_gap = 0;
    double baseline_a2a_mb = 0;
    for (int k : chunk_counts) {
      TrainConfig cfg;
      cfg.strategy = k == 0 ? "1d-sparse" : "1d-overlap";
      cfg.partitioner = "gvb";
      cfg.p = p;
      cfg.pipeline_chunks = std::max(1, k);
      cfg.gcn.epochs = 2;
      const TrainResult r = run_experiment(ds, cfg);
      const auto& a2a = r.phase_volumes.at("alltoall");

      // Pin the (noisy, re-measured) compute term to the baseline row;
      // the comm terms are exact. See the header comment.
      EpochCost cost = r.modeled_epoch;
      if (k == 0) {
        baseline_compute = cost.compute;
        baseline_a2a_mb = a2a.megabytes_per_epoch;
      } else {
        cost.compute = baseline_compute;
        // Chunk counts clamp to each layer's feature width; with derived
        // dims {f, 16, 16, classes} the widest propagated matrix has
        // max(f, 16) columns, so that bounds the deepest stage count.
        const int expected =
            std::min(k, std::max(static_cast<int>(ds.n_features()), 16));
        if (r.pipeline_stages != expected) {
          std::cerr << "SCHEDULE VIOLATION: configured " << k
                    << " chunks (expected " << expected << " stages) but ran "
                    << r.pipeline_stages << " stages\n";
          std::exit(1);
        }
        if (a2a.megabytes_per_epoch != baseline_a2a_mb) {
          std::cerr << "PAYLOAD VIOLATION: chunked alltoall moved "
                    << a2a.megabytes_per_epoch << " MB vs baseline "
                    << baseline_a2a_mb << " MB\n";
          std::exit(1);
        }
      }
      const double bulk = cost.total();
      const double pipe = cost.total_pipelined(r.pipeline_stages);
      const double ideal = cost.total_overlapped();
      if (k == 0) {
        baseline_bulk = bulk;
        baseline_gap = bulk - ideal;
      }
      const double recovered =
          baseline_gap > 0 ? (baseline_bulk - pipe) / baseline_gap * 100.0 : 0.0;
      table.add_row({std::to_string(p),
                     k == 0 ? "sparse" : std::to_string(r.pipeline_stages),
                     Table::num(a2a.megabytes_per_epoch, 4),
                     Table::num(a2a.messages_per_epoch, 4), ms(bulk), ms(pipe),
                     ms(ideal), Table::num(recovered, 3),
                     Table::num(r.alltoall_overlap.fraction() * 100.0, 3)});
    }
  }
  table.print(std::cout);
}

// ---- Latency-regime sweep: p in {8, 64, 256} ----

struct ScaleRecord {
  std::string dataset;
  std::string strategy;
  int p = 0;
  int c = 1;
  int chunks = 0;  ///< 0 = bulk-synchronous baseline
  int stages = 1;
  double a2a_mb = 0;
  double a2a_msgs = 0;
  double bulk_ms = 0;
  double pipe_ms = 0;
  double model_pipe_ms = 0;  ///< alpha-beta prediction from the baseline row
  double ideal_ms = 0;
  double recovered_pct = 0;
  /// Wall-clock overlap the exchanges measured (hidden/(hidden+blocked)),
  /// its schedule-model counterpart (1 - 1/stages), and the signed gap.
  double measured_hidden_pct = 0;
  double model_hidden_pct = 0;
  double gap_pct = 0;
  /// Host-straggler attribution of the gap: the single worst blocked wait
  /// of the run (TrainResult::alltoall_overlap.max_blocked — the bound the
  /// measured fraction saturates at under deep K), plus the fault-layer
  /// counters. On these fault-free runs drops/retries/straggler must be
  /// ZERO; a nonzero value means the overlap measurement is polluted by
  /// injected faults and the gap column stops being a host-scheduler
  /// readout.
  double tail_ms = 0;
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  double straggler_ms = 0;
};

void emit_scale_json(const std::vector<ScaleRecord>& records,
                     const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "ARTIFACT VIOLATION: cannot open " << path
              << " for writing\n";
    std::exit(1);
  }
  out << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const ScaleRecord& r = records[i];
    out << "  {\"dataset\": \"" << r.dataset << "\", \"strategy\": \""
        << r.strategy << "\", \"p\": " << r.p << ", \"c\": " << r.c
        << ", \"chunks\": " << r.chunks << ", \"stages\": " << r.stages
        << ", \"alltoall_mb\": " << r.a2a_mb
        << ", \"alltoall_msgs\": " << r.a2a_msgs
        << ", \"bulk_ms\": " << r.bulk_ms << ", \"pipe_ms\": " << r.pipe_ms
        << ", \"model_pipe_ms\": " << r.model_pipe_ms
        << ", \"ideal_ms\": " << r.ideal_ms
        << ", \"recovered_pct\": " << r.recovered_pct
        << ", \"measured_hidden_pct\": " << r.measured_hidden_pct
        << ", \"model_hidden_pct\": " << r.model_hidden_pct
        << ", \"gap_pct\": " << r.gap_pct << ", \"tail_ms\": " << r.tail_ms
        << ", \"drops\": " << r.drops << ", \"retries\": " << r.retries
        << ", \"straggler_ms\": " << r.straggler_ms << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.flush();
  out.close();
  if (out.fail()) {
    std::cerr << "ARTIFACT VIOLATION: short write to " << path << "\n";
    std::exit(1);
  }
  std::cout << "\nwrote " << records.size() << " records to " << path << "\n";
}

/// One (strategy family, p) column of the sweep. Returns its records;
/// self-asserts payload invariance, the expected schedule depth, that
/// chunking never shrinks the bulk term (messages only inflate), and —
/// in the p = 256 latency regime — a strictly interior best K predicted
/// within 10%. (pipe <= bulk within a row is an identity of the
/// pipelined formula, so it is not asserted; the meaningful regression
/// guard is pipe vs the BASELINE bulk, which the recovered%% column and
/// the interior-best-K assert capture.)
std::vector<ScaleRecord> run_scale_point(const Dataset& ds,
                                         const std::string& baseline,
                                         const std::string& overlap, int p,
                                         int c, bool cross_layer,
                                         const std::vector<int>& chunk_counts,
                                         Table& table) {
  std::vector<ScaleRecord> records;

  TrainConfig cfg;
  cfg.strategy = baseline;
  cfg.partitioner = "gvb";
  cfg.p = p;
  cfg.c = c;
  cfg.gcn.epochs = 1;  // traffic is identical every epoch; one is exact
  const TrainResult base_r = run_experiment(ds, cfg);
  const EpochCost base = base_r.modeled_epoch;
  const auto [alpha_eff, beta_eff] = base.effective_alpha_beta();
  const double base_a2a_mb = base_r.phase_volumes.at("alltoall").megabytes_per_epoch;
  const double base_bulk = base.total();
  const double base_ideal = base.total_overlapped();
  const double base_gap = base_bulk - base_ideal;

  const auto add = [&](const std::string& strategy, int k, int stages,
                       const TrainResult& r, double bulk, double pipe,
                       double model, double ideal) {
    const PhaseVolume& a2a = r.phase_volumes.at("alltoall");
    const double measured_pct = r.alltoall_overlap.fraction() * 100.0;
    const double recovered =
        base_gap > 0 ? (base_bulk - pipe) / base_gap * 100.0 : 0.0;
    const double model_pct =
        stages > 0 ? (1.0 - 1.0 / stages) * 100.0 : 0.0;
    const double gap = measured_pct - model_pct;
    // The straggler attribution: the worst single blocked wait bounds how
    // much hidden time deep-K schedules can measure on this host, and the
    // fault counters prove the measurement ran fault-free (see ScaleRecord).
    const double tail_ms = r.alltoall_overlap.max_blocked * 1e3;
    if (r.faults.any()) {
      std::cerr << "FAULT-FREE VIOLATION: " << strategy << " p=" << p
                << " K=" << k << " recorded injected-fault activity ("
                << r.faults.drops << " drops, " << r.faults.retries
                << " retries, " << r.faults.straggler_seconds
                << " s straggler) on a run with no fault plan\n";
      std::exit(1);
    }
    records.push_back({ds.name, strategy, p, c, k, stages,
                       a2a.megabytes_per_epoch, a2a.messages_per_epoch, bulk,
                       pipe, model, ideal, recovered, measured_pct, model_pct,
                       gap, tail_ms, r.faults.drops, r.faults.retries,
                       r.faults.straggler_seconds * 1e3});
    table.add_row({strategy, std::to_string(p),
                   k == 0 ? "bulk" : std::to_string(k), std::to_string(stages),
                   Table::num(a2a.messages_per_epoch, 4), ms(bulk), ms(pipe),
                   k == 0 ? "-" : ms(model), ms(ideal),
                   Table::num(recovered, 3), Table::num(measured_pct, 3),
                   Table::num(model_pct, 3), Table::num(gap, 3),
                   Table::num(tail_ms, 3),
                   std::to_string(r.faults.drops) + "/" +
                       std::to_string(r.faults.retries)});
    return gap;
  };
  add(baseline, 0, base_r.pipeline_stages, base_r, base_bulk, base_bulk,
      base_bulk, base_ideal);

  double best_pipe = base_bulk, best_model = base_bulk;
  int best_k = 0;
  for (int k : chunk_counts) {
    cfg.strategy = overlap;
    cfg.pipeline_chunks = k;
    const TrainResult r = run_experiment(ds, cfg);
    const auto& a2a = r.phase_volumes.at("alltoall");
    if (a2a.megabytes_per_epoch != base_a2a_mb) {
      std::cerr << "PAYLOAD VIOLATION: " << overlap << " p=" << p << " K=" << k
                << " moved " << a2a.megabytes_per_epoch << " MB vs baseline "
                << base_a2a_mb << " MB\n";
      std::exit(1);
    }
    // The cross-layer schedule's depth is propagates x K alltoall chunk
    // stages (5 propagates for the default 3-layer GCN), except the
    // allreduce base's 5 tagged stages + the untagged gradient reduce
    // win at K = 1; the within-layer schedule reports K. Chunk counts
    // stay below every propagated feature width here, so no clamping.
    const int expected_stages = cross_layer ? std::max(5 * k, 6) : k;
    if (r.pipeline_stages != expected_stages) {
      std::cerr << "SCHEDULE VIOLATION: " << overlap << " p=" << p
                << " K=" << k << " expected " << expected_stages
                << " stages but ran " << r.pipeline_stages << "\n";
      std::exit(1);
    }
    // Pin the (noisy, re-measured) compute term to the baseline row; the
    // comm terms are exact recorded traffic.
    EpochCost cost = r.modeled_epoch;
    cost.compute = base.compute;
    const double bulk = cost.total();
    const double pipe = cost.total_pipelined(r.pipeline_stages);
    const double ideal = cost.total_overlapped();
    // Same bytes + K-fold messages can only cost more bulk-synchronously
    // (per-stage bottleneck charging is superadditive too); a chunked
    // bulk below the baseline's means the accounting lost traffic.
    if (bulk < base_bulk * (1.0 - 1e-9)) {
      std::cerr << "ACCOUNTING VIOLATION: " << overlap << " p=" << p
                << " K=" << k << " bulk " << bulk
                << " s fell below the baseline's " << base_bulk << " s\n";
      std::exit(1);
    }
    // The prediction re-prices the BASELINE recording at chunk depth K
    // (messages x K, bytes invariant) and divides the residual by the
    // schedule's stage count — docs/cost_model.md derives the formula.
    const double model =
        base.total_pipelined(k, alpha_eff, beta_eff, r.pipeline_stages);
    const double gap =
        add(overlap, k, r.pipeline_stages, r, bulk, pipe, model, ideal);
    // The CI-tracked agreement point: K = 2 is where the executed
    // depth-2 double-buffered schedule matches the modeled pipeline
    // depth, so measured hidden time must agree with 1 - 1/K = 50%
    // within 25 percentage points. A pipeline that stops posting ahead
    // measures like the bulk row (a few percent) and trips this gate;
    // deeper K saturates at the host's straggler bound instead of the
    // analytic fraction and is tracked, not gated (header comment).
    if (p == 8 && !cross_layer && k == 2 && std::abs(gap) > 25.0) {
      std::cerr << "MEASURED-OVERLAP VIOLATION: " << overlap << " p=" << p
                << " K=" << k << " measured "
                << r.alltoall_overlap.fraction() * 100.0
                << "% hidden vs schedule model "
                << (1.0 - 1.0 / r.pipeline_stages) * 100.0 << "% (gap "
                << gap << " pp exceeds 25)\n";
      std::exit(1);
    }
    if (pipe < best_pipe) {
      best_pipe = pipe;
      best_model = model;
      best_k = k;
    }
  }

  if (p >= 256) {
    // The latency regime: the alpha term must visibly cap the useful
    // chunk depth (an interior optimum), and the model must predict the
    // measured time at that crossover within 10%.
    if (best_k == 0 || best_k == chunk_counts.back()) {
      std::cerr << "LATENCY-REGIME VIOLATION: " << overlap << " p=" << p
                << " best K=" << best_k << " is not interior to the sweep\n";
      std::exit(1);
    }
    const double err = std::abs(best_model - best_pipe) / best_pipe;
    if (err > 0.10) {
      std::cerr << "MODEL VIOLATION: " << overlap << " p=" << p
                << " predicted " << best_model << " s vs measured "
                << best_pipe << " s at best K=" << best_k << " ("
                << err * 100.0 << "% off)\n";
      std::exit(1);
    }
  }
  return records;
}

void run_scale_sweep(std::vector<ScaleRecord>& records, bool smoke) {
  const Dataset ds = make_reddit_sim(DatasetScale::kSmall);
  print_banner(std::cout, ds.name + (smoke ? " — p = 8 smoke points"
                                           : " — latency-regime sweep (p up "
                                             "to 256)"));
  Table table({"strategy", "p", "K", "stages", "a2a msgs", "bulk ms", "pipe ms",
               "model ms", "ideal ms", "recovered %", "meas %", "mdl %",
               "gap pp", "tail ms", "drop/rt"});
  const std::vector<int> chunk_counts =
      smoke ? std::vector<int>{1, 2, 4, 8} : std::vector<int>{1, 2, 4, 8, 16};
  const std::vector<int> ps = smoke ? std::vector<int>{8}
                                    : std::vector<int>{8, 64, 256};
  for (int p : ps) {
    for (const auto& [baseline, overlap, c, cross_layer] :
         {std::tuple{"1d-sparse", "1d-overlap", 1, false},
          std::tuple{"1.5d-sparse", "1.5d-overlap", 2, true}}) {
      const auto rows = run_scale_point(ds, baseline, overlap, p, c,
                                        cross_layer, chunk_counts, table);
      records.insert(records.end(), rows.begin(), rows.end());
    }
  }
  table.print(std::cout);
  std::cout << "\nShape check: at p = 8 'pipe' keeps falling with K (the\n"
               "alpha term is a few percent); at p = 256 the K-fold message\n"
               "latency dominates and 'pipe' bottoms out at an interior K —\n"
               "the useful chunk depth. 'model' is the alpha-beta prediction\n"
               "from the bulk baseline row (docs/cost_model.md); it must\n"
               "track the measured 'pipe' within 10% at the crossover.\n"
               "'meas' is the wall-clock hidden share the exchanges\n"
               "recorded (post end to wait entry; an exchange's own sends\n"
               "and copies are not hidden); it stays near zero on bulk\n"
               "rows and K = 1 (a few percent at most), matches the\n"
               "schedule-only 'mdl' = 1 - 1/stages at K = 2 (the executed\n"
               "double-buffered depth), and saturates at the host's\n"
               "straggler bound at deeper K — 'gap pp' tracks exactly that,\n"
               "and 'tail ms' names the bound: the single worst blocked\n"
               "wait of the run. 'drop/rt' are the fault layer's drop and\n"
               "retry counters, asserted zero here so the gap readout is\n"
               "provably free of injected faults (bench_faults is where\n"
               "they go nonzero).\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (handle_list_flag(argc, argv)) return 0;
  bool skip_scale = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--skip-scale") == 0) skip_scale = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  preamble("Overlap — chunked-pipelining schedule sweep",
           "K = 'sparse' is the bulk-synchronous 1d-sparse baseline; K >= 1\n"
           "is 1d-overlap with K column chunks. All rows share the gvb\n"
           "partitioner. pipe must sit between ideal and bulk everywhere;\n"
           "'recovered' nets the pipelined time against the BASELINE's gap.");
  const std::vector<int> chunk_counts{0, 1, 2, 4, 8, 16};
  run_dataset(make_amazon_sim(DatasetScale::kTiny), {4, 8}, chunk_counts);
  run_dataset(make_reddit_sim(DatasetScale::kTiny), {8}, chunk_counts);
  std::cout << "\nShape check: 'pipe' falls from 'bulk' toward 'ideal' as K\n"
               "grows; 'recovered' trails the schedule-only 1 - 1/K because\n"
               "the K-fold message count inflates 'bulk' itself (visible as\n"
               "the slowly rising bulk column). At these tiny p the latency\n"
               "tax is a few percent; the p = 256 sweep below is where it\n"
               "caps the useful chunk depth.\n";

  if (smoke) {
    // Sanitizer CI: the p = 8 points exercise both pipelined strategies
    // and the measured-overlap assert without the p = 256 wall-clock (or
    // a JSON artifact that would shadow the full run's).
    std::vector<ScaleRecord> records;
    run_scale_sweep(records, /*smoke=*/true);
  } else if (!skip_scale) {
    std::vector<ScaleRecord> records;
    run_scale_sweep(records, /*smoke=*/false);
    emit_scale_json(records, "BENCH_overlap_scale.json");
  }
  return 0;
}
