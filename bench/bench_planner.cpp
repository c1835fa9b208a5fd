// Planner regret: how much slower is the configuration the planner PICKS
// (from a census + closed-form predictions alone, no training) than the
// true best configuration found by exhaustively RUNNING every candidate?
//
// Per (dataset, p) cell: take one census, rank the candidate grid with
// plan_strategies(), then run every ranked candidate through
// run_experiment() and score it by the alpha-beta modeled epoch cost with
// the compute term pinned to the candidate's predicted NOMINAL compute —
// regret compares communication schedules, not host speed or measurement
// noise. regret = truth(planner pick) / min truth - 1, self-asserted
// <= 10% on every cell (REGRET VIOLATION + exit 1 otherwise — the CI gate).
//
//   $ ./bench_planner            # full sweep: 3 datasets x p in {8,64,256}
//   $ ./bench_planner --smoke    # sanitizer CI: tiny datasets, p = 8
//   $ ./bench_planner --list     # print the registry catalogs and exit
//
// Both modes write BENCH_planner.json (one record per cell).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "plan/planner.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

constexpr double kRegretGate = 0.10;

struct CellRecord {
  std::string dataset;
  int p = 0;
  int candidates = 0;
  int skipped = 0;
  PlanCandidate pick;       ///< the planner's predicted best
  double pick_truth_s = 0;  ///< truth score of the pick
  PlanCandidate truth_best;  ///< knobs of the true best (truth score below)
  double truth_best_s = 0;
  double regret_pct = 0;
};

/// Truth score of one candidate: run it (1 epoch is exact — every epoch's
/// traffic is identical), price the RECORDED traffic, pin compute to the
/// prediction's nominal term, and take the pipelined critical path at the
/// stage count the run actually used.
double truth_seconds(const Dataset& ds, const PlanCandidate& cand) {
  TrainConfig cfg;
  cfg.strategy = cand.strategy;
  cfg.partitioner = cand.partitioner;
  cfg.p = cand.p;
  cfg.c = cand.c;
  cfg.pipeline_chunks = cand.chunks;
  cfg.gcn.epochs = 1;
  const TrainResult r = run_experiment(ds, cfg);
  EpochCost truth = r.modeled_epoch;
  truth.compute = cand.predicted.compute;
  return truth.total_pipelined(r.pipeline_stages);
}

CellRecord run_cell(const Dataset& ds, const GraphCensus& census, int p,
                    Table& table) {
  PlannerOptions opts;
  opts.pinned_p = p;
  opts.partitioners = {"block", "gvb"};
  opts.c_grid = {1, 2, 4};
  opts.chunk_grid = {4};
  const Plan plan = plan_strategies(census, opts);
  if (plan.ranked.size() < 5) {
    std::cerr << "PLAN VIOLATION: only " << plan.ranked.size()
              << " candidates for " << ds.name << " p=" << p << "\n";
    std::exit(1);
  }

  CellRecord cell;
  cell.dataset = ds.name;
  cell.p = p;
  cell.candidates = static_cast<int>(plan.ranked.size());
  cell.skipped = static_cast<int>(plan.skipped.size());
  cell.pick = plan.best();

  double best = -1;
  for (const PlanCandidate& cand : plan.ranked) {
    const double truth = truth_seconds(ds, cand);
    if (cand.strategy == cell.pick.strategy &&
        cand.partitioner == cell.pick.partitioner && cand.c == cell.pick.c &&
        cand.chunks == cell.pick.chunks) {
      cell.pick_truth_s = truth;
    }
    if (best < 0 || truth < best) {
      best = truth;
      cell.truth_best = cand;
      cell.truth_best_s = truth;
    }
  }
  cell.regret_pct = (cell.pick_truth_s / cell.truth_best_s - 1.0) * 100.0;

  const auto label = [](const PlanCandidate& c) {
    return c.strategy + "+" + c.partitioner + " c=" + std::to_string(c.c);
  };
  table.add_row({ds.name, std::to_string(p), std::to_string(cell.candidates),
                 label(cell.pick), ms(cell.pick.seconds), ms(cell.pick_truth_s),
                 label(cell.truth_best), ms(cell.truth_best_s),
                 Table::num(cell.regret_pct, 3)});

  if (cell.regret_pct > kRegretGate * 100.0) {
    std::cerr << "REGRET VIOLATION: " << ds.name << " p=" << p << ": planner "
              << "picked " << label(cell.pick) << " (truth "
              << ms(cell.pick_truth_s) << " ms) but " << label(cell.truth_best)
              << " is " << ms(cell.truth_best_s) << " ms — regret "
              << cell.regret_pct << "% exceeds the " << kRegretGate * 100
              << "% gate\n";
    std::exit(1);
  }
  return cell;
}

void emit_json(const std::vector<CellRecord>& cells, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << "ARTIFACT VIOLATION: cannot open " << path << " for writing\n";
    std::exit(1);
  }
  out << "[\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRecord& r = cells[i];
    out << "  {\"dataset\": \"" << r.dataset << "\", \"p\": " << r.p
        << ", \"candidates\": " << r.candidates
        << ", \"skipped\": " << r.skipped << ", \"picked\": {\"strategy\": \""
        << r.pick.strategy << "\", \"partitioner\": \"" << r.pick.partitioner
        << "\", \"c\": " << r.pick.c << ", \"chunks\": " << r.pick.chunks
        << ", \"predicted_ms\": " << r.pick.seconds * 1e3
        << ", \"truth_ms\": " << r.pick_truth_s * 1e3
        << "}, \"truth_best\": {\"strategy\": \"" << r.truth_best.strategy
        << "\", \"partitioner\": \"" << r.truth_best.partitioner
        << "\", \"c\": " << r.truth_best.c
        << ", \"chunks\": " << r.truth_best.chunks
        << ", \"truth_ms\": " << r.truth_best_s * 1e3
        << "}, \"regret_pct\": " << r.regret_pct << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
  out.flush();
  out.close();
  if (out.fail()) {
    std::cerr << "ARTIFACT VIOLATION: short write to " << path << "\n";
    std::exit(1);
  }
  std::cout << "\nwrote " << cells.size() << " records to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (handle_list_flag(argc, argv)) return 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  preamble("Planner — predicted-best vs true-best (regret)",
           "Every cell: census -> ranked plan -> exhaustive truth sweep of\n"
           "the same candidates. 'pick' is the planner's predicted best;\n"
           "'truth best' the exhaustive winner. regret <= 10% is the gate:\n"
           "the census-driven closed forms must rank configurations nearly\n"
           "as well as running all of them.");

  // Probe the exact n_blocks values of the candidate grids so the halo
  // interpolation is exact where the predictions evaluate it.
  CensusOptions census_opts;
  census_opts.probe_ks = {2, 4, 8, 16, 32, 64, 128, 256};
  census_opts.partitioners = {"block", "gvb"};

  const DatasetScale scale = smoke ? DatasetScale::kTiny : DatasetScale::kSmall;
  std::vector<std::string> names{"amazon", "reddit"};
  if (!smoke) names.push_back("protein");
  const std::vector<int> ps = smoke ? std::vector<int>{8}
                                    : std::vector<int>{8, 64, 256};

  Table table({"dataset", "p", "cands", "pick", "pred ms", "truth ms",
               "truth best", "best ms", "regret %"});
  std::vector<CellRecord> cells;
  for (const std::string& name : names) {
    const Dataset ds = make_dataset(name, scale);
    const GraphCensus census = take_census(ds, census_opts);
    for (int p : ps) cells.push_back(run_cell(ds, census, p, table));
  }
  table.print(std::cout);
  std::cout << "\nregret gate: every cell <= " << kRegretGate * 100
            << "% of the exhaustive best (modeled, compute pinned to the\n"
               "prediction's nominal term).\n";
  emit_json(cells, "BENCH_planner.json");
  return 0;
}
