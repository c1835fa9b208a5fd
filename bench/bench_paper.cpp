// The paper's evaluation in one run: Figures 3-7, Tables 2-3 and the
// decomposition and cost-model ablations. The figures and ablations are views
// of one set of training cells (dataset, strategy, partitioner, p, c,
// cost-model variant) on the kSmall datasets, each trained once for 2 epochs;
// Tables 2 and 3 partition and describe the kDefault datasets. Each table is
// followed by one PASS/FAIL line per shape claim, checked only on numbers that
// do not depend on the host (modeled comm priced from recorded traffic, bytes,
// messages, partition volumes, dataset shape); totals include measured compute,
// so they are printed only. Exit 1 when a claim fails or a known failure passes.
// The same numbers go to paper_baseline.tsv in the working directory, which CI
// diffs against bench/paper_baseline.tsv. To accept an intended change:
//   ./build/bench_paper && cp paper_baseline.tsv bench/

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "graph/generators.hpp"
#include "partition/metrics.hpp"
#include "partition/partition.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

struct Scheme {
  const char* label;
  const char* strategy;
  const char* partitioner;
};
const Scheme kCagnet{"CAGNET", "1d-oblivious", "block"};
const Scheme kSa{"SA", "1d-sparse", "block"};
const Scheme kSaMetis{"SA+METIS", "1d-sparse", "metis"};
const Scheme kSaGvb{"SA+GVB", "1d-sparse", "gvb"};
const Scheme kObl15{"oblivious", "1.5d-oblivious", "block"};
const Scheme kSa15{"SA", "1.5d-sparse", "block"};
const Scheme kSaGvb15{"SA+GVB", "1.5d-sparse", "gvb"};
const Scheme k2d{"2D", "2d-sparse", "block"};

/// The cost-model ablation's rows; every other table uses [0].
struct Variant {
  const char* label;
  double beta_factor;   // multiplies both betas (lower = faster network)
  double alpha_factor;  // multiplies both alphas
};
const Variant kVariants[] = {
    {"calibrated (25 GB/s)", 1.0, 1.0},
    {"4x faster network", 0.25, 1.0},
    {"4x slower network", 4.0, 1.0},
    {"10x higher latency", 1.0, 10.0},
    {"latency-free", 1.0, 0.0},
};

/// Every phase a training cell records has a column pair in the baseline.
const char* const kPhases[] = {"bcast", "alltoall", "allreduce", "transpose"};

/// The shortest decimal that reads back as exactly `v`.
std::string exact(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, v).ptr};
}

void tsv(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out << (i > 0 ? "\t" : "") << fields[i];
  }
  out << '\n';
}

struct Cell {
  std::string dataset, strategy, partitioner;
  int p, c, variant;
  auto operator<=>(const Cell&) const = default;
};

/// The kSmall datasets and every training run on them; a cell trains on
/// first use only.
class Cells {
 public:
  const Dataset reddit = make_reddit_sim(DatasetScale::kSmall);
  const Dataset amazon = make_amazon_sim(DatasetScale::kSmall);
  const Dataset protein = make_protein_sim(DatasetScale::kSmall);
  const Dataset papers = make_papers_sim(DatasetScale::kSmall);

  const TrainResult& get(const Dataset& ds, const Scheme& s, int p, int c = 1,
                         int variant = 0) {
    const Cell cell{ds.name, s.strategy, s.partitioner, p, c, variant};
    if (const auto it = runs_.find(cell); it != runs_.end()) return it->second;
    TrainConfig cfg;
    cfg.strategy = s.strategy;
    cfg.partitioner = s.partitioner;
    cfg.p = p;
    cfg.c = c;
    cfg.gcn.epochs = 2;
    const Variant& v = kVariants[variant];
    cfg.cost_model.beta_intra *= v.beta_factor;
    cfg.cost_model.beta_inter *= v.beta_factor;
    cfg.cost_model.alpha_intra *= v.alpha_factor;
    cfg.cost_model.alpha_inter *= v.alpha_factor;
    features_[ds.name] = ds.n_features();
    return runs_.emplace(cell, run_experiment(ds, cfg)).first->second;
  }

  /// One line per cell: each phase's per-epoch MB and messages, the modeled
  /// comm buckets and their latency shares, the index exchange, and the
  /// partition's volume statistics at the dataset's feature width.
  void write_baseline(std::ostream& out) const {
    out << "#train\tdataset\tstrategy\tpartitioner\tp\tc\tbeta_x\talpha_x";
    for (std::string ph : kPhases) out << '\t' << ph << "_mb\t" << ph << "_msgs";
    for (std::string b : {"bcast", "alltoall", "allreduce", "other"}) {
      out << '\t' << b << "_ms\t" << b << "_latency_ms";
    }
    out << "\tsetup_mb\tedgecut\tavg_send_mb\tmax_send_mb\timbalance_pct\n";
    for (const auto& [cell, r] : runs_) {
      const Variant& v = kVariants[cell.variant];
      std::vector<std::string> row = {"train", cell.dataset, cell.strategy,
                                      cell.partitioner, std::to_string(cell.p),
                                      std::to_string(cell.c), exact(v.beta_factor),
                                      exact(v.alpha_factor)};
      std::size_t listed = 0;
      for (const char* phase : kPhases) {
        const auto it = r.phase_volumes.find(phase);
        const bool has = it != r.phase_volumes.end();
        listed += has;
        row.push_back(exact(has ? it->second.megabytes_per_epoch : 0));
        row.push_back(exact(has ? it->second.messages_per_epoch : 0));
      }
      SAGNN_REQUIRE(listed == r.phase_volumes.size(),
                    "a phase of " + cell.strategy + " has no baseline column");
      const EpochCost& m = r.modeled_epoch;
      for (double s : {m.bcast, m.bcast_latency, m.alltoall, m.alltoall_latency,
                       m.allreduce, m.allreduce_latency, m.other, m.other_latency}) {
        row.push_back(exact(s * 1e3));
      }
      const VolumeStats& vs = r.volume_model;
      const vid_t f = features_.at(cell.dataset);
      row.insert(row.end(), {exact(r.setup_megabytes), std::to_string(vs.edgecut),
                             exact(vs.avg_send_megabytes(f)),
                             exact(vs.max_send_megabytes(f)),
                             exact(vs.send_imbalance_percent())});
      tsv(out, row);
    }
  }

 private:
  std::map<Cell, TrainResult> runs_;
  std::map<std::string, vid_t> features_;
};

int unexpected_outcomes = 0;

/// One shape claim: lhs < rhs (or lhs <= rhs) in every case it is checked on.
/// Its line shows the number of cases, the range of lhs / rhs, and the
/// tightest case, printed as value * `scale` followed by `unit`.
class Claim {
 public:
  explicit Claim(std::string text, std::string unit = " ms", double scale = 1e3)
      : text_(std::move(text)), unit_(std::move(unit)), scale_(scale) {}

  void less(double lhs, double rhs, const std::string& where, bool or_equal = false) {
    holds_ = holds_ && (or_equal ? lhs <= rhs : lhs < rhs);
    const double ratio = lhs / rhs;
    if (cases_ == 0 || ratio < lo_) lo_ = ratio;
    if (cases_++ == 0 || ratio > hi_) {
      hi_ = ratio;
      tightest_ = Table::num(lhs * scale_, 6) + " vs " + Table::num(rhs * scale_, 6) +
                  unit_ + " at " + where;
    }
  }

  /// A claim on the known-failure list is expected to FAIL.
  void report(bool known_failure = false) const {
    std::cout << (holds_ ? "PASS" : "FAIL") << (known_failure ? " (known failure)" : "")
              << "  " << text_ << "  [" << cases_ << " cases, lhs/rhs "
              << Table::num(lo_, 3) << " to " << Table::num(hi_, 3) << "; tightest "
              << tightest_ << "]\n";
    if (holds_ == known_failure) ++unexpected_outcomes;
  }

 private:
  std::string text_, unit_, tightest_;
  double scale_;
  bool holds_ = true;
  int cases_ = 0;
  double lo_ = 0, hi_ = 0;
};

double comm(const TrainResult& r) { return r.modeled_epoch.comm(); }

std::string at(const Dataset& ds, int p, int c = 1) {
  return ds.name + " p=" + std::to_string(p) + (c > 1 ? " c=" + std::to_string(c) : "");
}

void figure3(Cells& cells) {
  preamble("Figure 3 — 1D epoch time vs #GPUs",
           "Modeled epoch time (alpha-beta comm + scaled measured compute).\n"
           "Log-log in the paper; ratios < 1 mean the right scheme wins.");
  Claim sa_wins("SA comm < CAGNET comm at every p >= 32");
  Claim gvb_wins("SA+GVB comm < SA comm at every p");
  for (const Dataset* ds : {&cells.reddit, &cells.amazon, &cells.protein}) {
    print_banner(std::cout, ds->name + "  (n=" + std::to_string(ds->n_vertices()) +
                                ", nnz=" + std::to_string(ds->n_edges()) + ")");
    Table table({"p", "CAGNET ms/epoch", "SA ms/epoch", "SA+GVB ms/epoch", "SA/CAGNET",
                 "SA+GVB/SA"});
    for (int p : {4, 16, 32, 64, 128, 256}) {
      if (ds == &cells.reddit && p > 64) break;  // the paper's Reddit range
      const TrainResult& cagnet = cells.get(*ds, kCagnet, p);
      const TrainResult& sa = cells.get(*ds, kSa, p);
      const TrainResult& gvb = cells.get(*ds, kSaGvb, p);
      const double tc = cagnet.modeled_epoch_seconds();
      const double ts = sa.modeled_epoch_seconds();
      const double tg = gvb.modeled_epoch_seconds();
      table.add_row({std::to_string(p), ms(tc), ms(ts), ms(tg), Table::num(ts / tc, 3),
                     Table::num(tg / ts, 3)});
      if (p >= 32) sa_wins.less(comm(sa), comm(cagnet), at(*ds, p));
      gvb_wins.less(comm(gvb), comm(sa), at(*ds, p));
    }
    table.print(std::cout);
  }
  sa_wins.report();
  gvb_wins.report();
}

void figure4(Cells& cells) {
  preamble("Figure 4 — 1D per-phase breakdown",
           "Per-epoch modeled time split by phase; comm MB is the exact\n"
           "recorded volume (all phases, all pairs).");
  Claim bcast_dominates("CAGNET's bcast is more than half its comm (comm/2 < bcast)");
  Claim sa_swaps("SA alltoall < CAGNET bcast at every p");
  Claim gvb_shrinks("SA+GVB alltoall < SA alltoall at every p");
  for (const Dataset* ds : {&cells.reddit, &cells.amazon}) {
    print_banner(std::cout, ds->name);
    Table table({"p", "scheme", "compute ms", "bcast ms", "alltoall ms", "allreduce ms",
                 "total ms", "comm MB/epoch"});
    for (int p : {16, 64, 256}) {
      if (ds == &cells.reddit && p > 64) break;
      for (const Scheme& scheme : {kCagnet, kSa, kSaGvb}) {
        const TrainResult& r = cells.get(*ds, scheme, p);
        const EpochCost& m = r.modeled_epoch;
        double mb = 0;
        for (const auto& [name, vol] : r.phase_volumes) mb += vol.megabytes_per_epoch;
        table.add_row({std::to_string(p), scheme.label, ms(m.compute), ms(m.bcast),
                       ms(m.alltoall), ms(m.allreduce), ms(m.total()),
                       Table::num(mb, 4)});
      }
      const EpochCost& cagnet = cells.get(*ds, kCagnet, p).modeled_epoch;
      const EpochCost& sa = cells.get(*ds, kSa, p).modeled_epoch;
      const EpochCost& gvb = cells.get(*ds, kSaGvb, p).modeled_epoch;
      bcast_dominates.less(cagnet.comm() / 2, cagnet.bcast, at(*ds, p));
      sa_swaps.less(sa.alltoall, cagnet.bcast, at(*ds, p));
      gvb_shrinks.less(gvb.alltoall, sa.alltoall, at(*ds, p));
    }
    table.print(std::cout);
  }
  bcast_dominates.report();
  sa_swaps.report();
  gvb_shrinks.report();
}

void figure5(Cells& cells) {
  preamble("Figure 5 — Papers @ p=16, 1D breakdown",
           "Largest dataset; single process count as in the paper.");
  const Dataset& papers = cells.papers;
  std::cout << "dataset: " << papers.name << " n=" << papers.n_vertices()
            << " nnz=" << papers.n_edges() << "\n";
  Table table(
      {"scheme", "compute ms", "bcast ms", "alltoall ms", "allreduce ms", "total ms"});
  for (const Scheme& scheme : {kCagnet, kSa, kSaGvb}) {
    const EpochCost& m = cells.get(papers, scheme, 16).modeled_epoch;
    table.add_row({scheme.label, ms(m.compute), ms(m.bcast), ms(m.alltoall),
                   ms(m.allreduce), ms(m.total())});
  }
  table.print(std::cout);
  const TrainResult& cagnet = cells.get(papers, kCagnet, 16);
  const TrainResult& gvb = cells.get(papers, kSaGvb, 16);
  const double speedup = cagnet.modeled_epoch_seconds() / gvb.modeled_epoch_seconds();
  std::cout << "\nCAGNET / SA+GVB speedup: " << Table::num(speedup, 3)
            << "x   (paper reports ~2.3x)\n";
  Claim gvb_wins("SA+GVB comm < CAGNET comm");
  gvb_wins.less(comm(gvb), comm(cagnet), at(papers, 16));
  gvb_wins.report();
}

void figure6(Cells& cells) {
  preamble("Figure 6 — partitioner comparison (SA+GVB vs SA+METIS, 1D)",
           "GVB/METIS < 1 means the volume-balancing partitioner wins.");
  Claim balanced("GVB max send volume <= METIS max send volume at every p", " MB", 1);
  for (const Dataset* ds : {&cells.amazon, &cells.protein}) {
    print_banner(std::cout, ds->name);
    Table table({"p", "SA+METIS ms", "SA+GVB ms", "GVB/METIS", "METIS maxMB",
                 "GVB maxMB", "METIS cut", "GVB cut"});
    for (int p : {4, 16, 32, 64}) {
      const TrainResult& metis = cells.get(*ds, kSaMetis, p);
      const TrainResult& gvb = cells.get(*ds, kSaGvb, p);
      const double tm = metis.modeled_epoch_seconds();
      const double tg = gvb.modeled_epoch_seconds();
      const double mm = metis.volume_model.max_send_megabytes(ds->n_features());
      const double gm = gvb.volume_model.max_send_megabytes(ds->n_features());
      table.add_row({std::to_string(p), ms(tm), ms(tg), Table::num(tg / tm, 3),
                     Table::num(mm, 4), Table::num(gm, 4),
                     std::to_string(metis.volume_model.edgecut),
                     std::to_string(gvb.volume_model.edgecut)});
      balanced.less(gm, mm, at(*ds, p), /*or_equal=*/true);
    }
    table.print(std::cout);
  }
  balanced.report();
}

void figure7(Cells& cells) {
  preamble("Figure 7 — 1.5D scaling (c = 2, 4)",
           "Modeled epoch time; k = p/c partitions for the GVB rows.");
  Claim gvb_wins("SA+GVB comm < oblivious comm in every (dataset, c, p)");
  for (int c : {2, 4}) {
    for (const Dataset* ds : {&cells.amazon, &cells.protein}) {
      print_banner(std::cout, ds->name + "  c=" + std::to_string(c));
      Table table({"p", "oblivious ms", "SA ms", "SA+GVB ms", "SA/obl", "SA+GVB/obl"});
      for (int p : {16, 32, 64, 128, 256}) {
        const TrainResult& obl = cells.get(*ds, kObl15, p, c);
        const TrainResult& sa = cells.get(*ds, kSa15, p, c);
        const TrainResult& gvb = cells.get(*ds, kSaGvb15, p, c);
        const double to = obl.modeled_epoch_seconds();
        const double ts = sa.modeled_epoch_seconds();
        const double tg = gvb.modeled_epoch_seconds();
        table.add_row({std::to_string(p), ms(to), ms(ts), ms(tg),
                       Table::num(ts / to, 3), Table::num(tg / to, 3)});
        gvb_wins.less(comm(gvb), comm(obl), at(*ds, p, c));
      }
      table.print(std::cout);
    }
  }
  gvb_wins.report();
}

// The paper's rows (14.2M-vertex Amazon, f = 300), p = 16..256: avg MB 199.6,
// 132.9, 83.9, 52.5, 32.6; imbalance 67.1, 81.8, 95.4, 123.3, 164.9%.
void table2(std::ostream& baseline) {
  const Dataset ds = make_amazon_sim(DatasetScale::kDefault);
  const vid_t paper_f = 300;
  std::cout << "\nTable 2 analogue: per-SpMM communication of the METIS-like\n"
               "partitioner on amazon-sim (n="
            << ds.n_vertices() << ", nnz=" << ds.n_edges()
            << "), volumes at f=" << paper_f << ".\n";
  baseline << "#table2\tdataset\tpartitioner\tp\tedgecut\tavg_send_mb\tmax_send_mb"
              "\timbalance_pct\n";
  Table table({"p", "avg MB", "max MB", "load imbalance %", "edgecut", "partition s"});
  Claim avg_falls("average send volume falls with p", " MB", 1);
  Claim imbalance_rises("send imbalance rises with p (paper: 67% -> 165%)", "%", 1);
  double prev_avg = 0, prev_imbalance = 0;
  for (int p : {16, 32, 64, 128, 256}) {
    WallTimer timer;
    const auto part = EdgeCutPartitioner().partition(ds.adjacency, p);
    const double secs = timer.seconds();
    const VolumeStats stats = compute_volume_stats(ds.adjacency, part);
    const double avg = stats.avg_send_megabytes(paper_f);
    const double max = stats.max_send_megabytes(paper_f);
    const double imbalance = stats.send_imbalance_percent();
    table.add_row({std::to_string(p), Table::num(avg), Table::num(max),
                   Table::num(imbalance, 3), std::to_string(stats.edgecut),
                   Table::num(secs, 3)});
    tsv(baseline, {"table2", ds.name, "metis", std::to_string(p),
                   std::to_string(stats.edgecut), exact(avg), exact(max),
                   exact(imbalance)});
    if (p > 16) {
      const std::string step = "p=" + std::to_string(p / 2) + "->" + std::to_string(p);
      avg_falls.less(avg, prev_avg, step);
      imbalance_rises.less(prev_imbalance, imbalance, step);
    }
    prev_avg = avg;
    prev_imbalance = imbalance;
  }
  table.print(std::cout);
  avg_falls.report();
  imbalance_rises.report(/*known_failure=*/true);
}

void table3(std::ostream& baseline) {
  std::cout << "\nTable 3 analogue: synthetic dataset suite (default scale).\n"
               "Paper originals: Reddit 233K/115M, Amazon 14.2M/231M,\n"
               "Protein 8.7M/2.1B, Papers 111M/3.2B.\n\n";
  baseline << "#table3\tdataset\tn\tnnz\tavg_degree\tmax_degree\n";
  Table table(
      {"graph", "vertices", "edges(nnz)", "avg deg", "max deg", "features", "labels"});
  std::map<std::string, double> degree, size;
  for (const char* name : {"reddit", "amazon", "protein", "papers"}) {
    const Dataset ds = make_dataset(name, DatasetScale::kDefault);
    const DegreeStats st = degree_stats(ds.adjacency);
    const std::string n = std::to_string(ds.n_vertices());
    const std::string nnz = std::to_string(ds.n_edges());
    table.add_row({ds.name, n, nnz, Table::num(st.avg, 4), std::to_string(st.max),
                   std::to_string(ds.n_features()), std::to_string(ds.n_classes)});
    tsv(baseline, {"table3", ds.name, n, nnz, exact(st.avg), std::to_string(st.max)});
    degree[ds.name] = st.avg;
    size[ds.name] = ds.n_vertices();
  }
  table.print(std::cout);
  Claim reddit_densest("reddit-sim has the highest average degree", "", 1);
  Claim papers_largest("papers-sim has the most vertices", "", 1);
  Claim amazon_sparsest("amazon-sim has the lowest average degree", "", 1);
  for (const auto& [name, deg] : degree) {
    if (name != "reddit-sim") reddit_densest.less(deg, degree["reddit-sim"], name);
    if (name != "amazon-sim") amazon_sparsest.less(degree["amazon-sim"], deg, name);
    if (name != "papers-sim") papers_largest.less(size[name], size["papers-sim"], name);
  }
  reddit_densest.report();
  papers_largest.report();
  amazon_sparsest.report(/*known_failure=*/true);
}

void ablation_decomposition(Cells& cells) {
  preamble("Ablation — decomposition choice (1D vs 1.5D vs 2D)",
           "The datasets of Figures 3 and 7; perfect-square process counts so\n"
           "the 2D grid exists. Every column is a whole modeled 3-layer GCN\n"
           "training epoch (SpMMs, dense layers, reductions).");
  Claim sparse_wins("1D SA+GVB comm and 1.5D c=2 SA+GVB comm < 2D comm at every p");
  Claim allreduce_dominates(
      "2D's all-reduce is more than half its comm (comm/2 < all-reduce)");
  for (const Dataset* ds : {&cells.amazon, &cells.protein}) {
    print_banner(std::cout, ds->name);
    Table table(
        {"p", "1D SA+GVB ms", "1.5D c=2 SA+GVB ms", "2D ms", "2D allreduce ms"});
    for (int p : {16, 64, 256}) {
      const TrainResult& d1 = cells.get(*ds, kSaGvb, p);
      const TrainResult& d15 = cells.get(*ds, kSaGvb15, p, 2);
      const TrainResult& d2 = cells.get(*ds, k2d, p);
      table.add_row({std::to_string(p), ms(d1.modeled_epoch_seconds()),
                     ms(d15.modeled_epoch_seconds()), ms(d2.modeled_epoch_seconds()),
                     ms(d2.modeled_epoch.allreduce)});
      sparse_wins.less(comm(d1), comm(d2), at(*ds, p) + " (1D)");
      sparse_wins.less(comm(d15), comm(d2), at(*ds, p) + " (1.5D)");
      allreduce_dominates.less(comm(d2) / 2, d2.modeled_epoch.allreduce, at(*ds, p));
    }
    table.print(std::cout);
  }
  sparse_wins.report();
  allreduce_dominates.report();
}

void ablation_costmodel(Cells& cells) {
  preamble("Ablation — cost-model sensitivity",
           "CAGNET vs SA vs SA+GVB ranking on amazon-sim (p=64) under\n"
           "perturbed network parameters. Volumes are identical across\n"
           "rows; only the time model changes.");
  const Scheme schemes[] = {kCagnet, kSa, kSaGvb};
  Claim gvb_wins("SA+GVB has the lowest comm in every cost-model row");
  Table table({"model", "CAGNET ms", "SA ms", "SA+GVB ms", "winner"});
  const auto add_row = [&](const char* label, const std::vector<double>& t) {
    const auto best = std::min_element(t.begin(), t.end()) - t.begin();
    table.add_row({label, ms(t[0]), ms(t[1]), ms(t[2]), schemes[best].label});
  };
  for (int v = 0; v < static_cast<int>(std::size(kVariants)); ++v) {
    const TrainResult& cagnet = cells.get(cells.amazon, kCagnet, 64, 1, v);
    const TrainResult& sa = cells.get(cells.amazon, kSa, 64, 1, v);
    const TrainResult& gvb = cells.get(cells.amazon, kSaGvb, 64, 1, v);
    add_row(kVariants[v].label,
            {cagnet.modeled_epoch_seconds(), sa.modeled_epoch_seconds(),
             gvb.modeled_epoch_seconds()});
    const std::string row = kVariants[v].label;
    gvb_wins.less(comm(gvb), comm(sa), row + " (vs SA)");
    gvb_wins.less(comm(gvb), comm(cagnet), row + " (vs CAGNET)");
  }
  // The ideal comm/compute overlap bound: host-timed, so printed only.
  std::vector<double> overlapped;
  for (const Scheme& s : schemes) {
    const EpochCost& m = cells.get(cells.amazon, s, 64).modeled_epoch;
    overlapped.push_back(m.total_overlapped());
  }
  add_row("full comm/compute overlap", overlapped);
  table.print(std::cout);
  gvb_wins.report();
}

}  // namespace

int main(int argc, char** argv) {
  if (handle_list_flag(argc, argv)) return 0;
  Cells cells;
  std::ofstream baseline("paper_baseline.tsv");
  figure3(cells);
  figure4(cells);
  figure5(cells);
  figure6(cells);
  figure7(cells);
  table2(baseline);
  table3(baseline);
  ablation_decomposition(cells);
  ablation_costmodel(cells);
  cells.write_baseline(baseline);
  baseline.close();
  if (!baseline) {
    std::cerr << "cannot write paper_baseline.tsv\n";
    return 1;
  }
  std::cout << "\nwrote paper_baseline.tsv; " << unexpected_outcomes
            << " unexpected claim outcome(s)\n";
  return unexpected_outcomes == 0 ? 0 : 1;
}
