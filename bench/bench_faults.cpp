// Fault-injection study: what do stragglers, lossy links, and rank kills
// cost a distributed training job, and what does closed-loop checkpoint
// recovery buy back? Five scenario families, every one self-asserting its
// invariant (exit 1 on violation, so CI gates on this binary):
//
//   parity     — an installed-but-EMPTY FaultPlan must leave the loss
//                trajectory BITWISE identical to no plan at all (the
//                fault layer's foundational guarantee);
//   straggler  — per-rank slowdown delays sends and charges the overlap
//                ledger, but never perturbs payload math: bitwise
//                trajectory, nonzero straggler_seconds;
//   lossy      — message drops ride bounded retransmission with backoff
//                to exactly-once delivery: bitwise trajectory, drops ==
//                retries (every swallowed transmission retransmitted,
//                no retry budget exhausted);
//   preempt    — scheduled transient kills x checkpoint interval: the
//                recovery loop restores and replays; wasted work is
//                bounded by the interval (replayed <= interval per kill)
//                and the final trajectory is bitwise the fault-free one;
//   elastic    — a permanent kill drops the job to p-1 ranks; the
//                re-partitioned continuation must track the serial
//                reference trajectory within tolerance.
//
// Each record reports the recovery economics: wasted (replayed) epochs,
// recovery wall-clock, snapshot cost, and goodput — completed USEFUL
// epochs per wall-clock second, so the fault-rate x checkpoint-interval
// tradeoff is directly readable from BENCH_faults.json (a CI artifact).
//
// Usage: bench_faults [--smoke]
//   --smoke  tiny dataset, fewer checkpoint intervals — the CI gate.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "gnn/trainer.hpp"
#include "simcomm/fault.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

struct Record {
  std::string scenario;
  std::string dataset;
  std::string strategy;
  int p = 0;
  int ckpt_interval = 0;
  int epochs = 0;
  int kills = 0;
  int restores = 0;
  int cold_restarts = 0;
  int elastic_restarts = 0;
  int replayed_epochs = 0;
  double recovery_seconds = 0;
  double save_seconds = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t drops = 0;
  std::uint64_t retries = 0;
  double straggler_seconds = 0;
  double wall_seconds = 0;
  double goodput_eps = 0;  ///< useful (non-replayed) epochs per wall second
  /// Trajectory matched the fault-free reference bitwise; empty (written
  /// as null) for a run that has no reference to compare against.
  std::optional<bool> bitwise;
  bool ok = false;
};

std::vector<Record> g_records;
int g_violations = 0;

void violation(const std::string& what) {
  std::cerr << "FAULT INVARIANT VIOLATION: " << what << "\n";
  ++g_violations;
}

void emit_json(const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    violation("cannot open " + path + " for writing");
    return;
  }
  out << "[\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    out << "  {\"scenario\": \"" << r.scenario << "\", \"dataset\": \""
        << r.dataset << "\", \"strategy\": \"" << r.strategy
        << "\", \"p\": " << r.p << ", \"ckpt_interval\": " << r.ckpt_interval
        << ", \"epochs\": " << r.epochs << ", \"kills\": " << r.kills
        << ", \"restores\": " << r.restores
        << ", \"cold_restarts\": " << r.cold_restarts
        << ", \"elastic_restarts\": " << r.elastic_restarts
        << ", \"replayed_epochs\": " << r.replayed_epochs
        << ", \"recovery_seconds\": " << r.recovery_seconds
        << ", \"save_seconds\": " << r.save_seconds
        << ", \"snapshot_bytes\": " << r.snapshot_bytes
        << ", \"drops\": " << r.drops << ", \"retries\": " << r.retries
        << ", \"straggler_seconds\": " << r.straggler_seconds
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"goodput_eps\": " << r.goodput_eps
        << ", \"bitwise\": "
        << (!r.bitwise ? "null" : (*r.bitwise ? "true" : "false"))
        << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
        << (i + 1 < g_records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "\nwrote " << g_records.size() << " records to " << path << "\n";
}

GcnConfig bench_gcn(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  cfg.dropout = 0.2f;  // exercises the epoch-keyed dropout replay path
  return cfg;
}

bool same_trajectory_bitwise(const std::vector<EpochMetrics>& a,
                             const std::vector<EpochMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (a[e].loss != b[e].loss || a[e].train_accuracy != b[e].train_accuracy) {
      return false;
    }
  }
  return true;
}

std::string scratch_ckpt() {
  return (std::filesystem::temp_directory_path() / "bench_faults.ckpt")
      .string();
}

/// Run one faulty configuration end to end and fill the bookkeeping
/// columns every scenario shares. `reference` is the fault-free
/// trajectory the bitwise column compares against (empty = skip);
/// `trajectory_out`, when non-null, receives the run's own trajectory.
Record run_faulty(const std::string& scenario, const Dataset& ds, int p,
                  int epochs, const FaultSpec& spec, FaultRecovery recovery,
                  int ckpt_interval, const std::vector<EpochMetrics>& reference,
                  Table& table,
                  std::vector<EpochMetrics>* trajectory_out = nullptr) {
  const std::string path = scratch_ckpt();
  std::filesystem::remove(path);
  TrainerBuilder b(ds);
  b.strategy("1d-sparse").ranks(p).partitioner("gvb").gcn(bench_gcn(ds, epochs));
  if (ckpt_interval > 0) b.auto_checkpoint(path, ckpt_interval);
  b.fault_plan(spec).fault_recovery(recovery);
  auto trainer = b.build();
  WallTimer wall;
  trainer->train();
  const double wall_seconds = wall.seconds();
  const TrainResult& r = trainer->result();

  Record rec;
  rec.scenario = scenario;
  rec.dataset = ds.name;
  rec.strategy = "1d-sparse";
  rec.p = p;
  rec.ckpt_interval = ckpt_interval;
  rec.epochs = static_cast<int>(r.epochs.size());
  rec.kills = r.recovery.kills;
  rec.restores = r.recovery.restores;
  rec.cold_restarts = r.recovery.cold_restarts;
  rec.elastic_restarts = r.recovery.elastic_restarts;
  rec.replayed_epochs = r.recovery.replayed_epochs;
  rec.recovery_seconds = r.recovery.recovery_seconds;
  rec.save_seconds = r.recovery.last_save_seconds;
  rec.snapshot_bytes = r.recovery.snapshot_bytes;
  rec.drops = r.faults.drops;
  rec.retries = r.faults.retries;
  rec.straggler_seconds = r.faults.straggler_seconds;
  rec.wall_seconds = wall_seconds;
  rec.goodput_eps =
      wall_seconds > 0 ? static_cast<double>(rec.epochs) / wall_seconds : 0;
  if (!reference.empty()) {
    rec.bitwise = same_trajectory_bitwise(r.epochs, reference);
  }
  if (trajectory_out != nullptr) *trajectory_out = r.epochs;
  std::filesystem::remove(path);

  table.add_row(
      {scenario, std::to_string(p),
       ckpt_interval > 0 ? std::to_string(ckpt_interval) : "-",
       std::to_string(rec.kills), std::to_string(rec.replayed_epochs),
       ms(rec.recovery_seconds),
       std::to_string(rec.drops) + "/" + std::to_string(rec.retries),
       Table::num(rec.straggler_seconds, 4),
       Table::num(rec.goodput_eps, 4),
       !rec.bitwise ? "-" : (*rec.bitwise ? "bitwise" : "DIFF")});
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  preamble(
      "Faults — straggler / lossy-link / kill-recovery study",
      "Deterministic fault plans on the simulated cluster: what injected\n"
      "stragglers, message loss (retransmission with backoff), and rank kills\n"
      "cost, and what the closed-loop checkpoint recovery buys back.\n"
      "Every scenario self-asserts its invariant (empty plan -> bitwise,\n"
      "survivable plan -> fault-free trajectory, replay bounded by the\n"
      "checkpoint interval); exit 1 on violation. goodput = completed\n"
      "epochs / wall second.");

  const DatasetScale scale = smoke ? DatasetScale::kTiny : DatasetScale::kSmall;
  const Dataset ds = make_amazon_sim(scale);
  const int p = 4;
  const int epochs = smoke ? 6 : 10;

  // The fault-free reference every bitwise assert compares against.
  auto reference = TrainerBuilder(ds)
                       .strategy("1d-sparse")
                       .ranks(p)
                       .partitioner("gvb")
                       .gcn(bench_gcn(ds, epochs))
                       .build();
  WallTimer ref_wall;
  const std::vector<EpochMetrics> ref = reference->train();
  const double ref_goodput = static_cast<double>(epochs) / ref_wall.seconds();

  print_banner(std::cout, ds.name + " — fault injection & recovery");
  std::cout << "fault-free goodput: " << Table::num(ref_goodput, 4)
            << " epochs/s (the ceiling every faulty row is read against)\n";
  Table table({"scenario", "p", "ckpt", "kills", "replayed", "recover",
               "drop/retry", "straggler s", "goodput e/s", "trajectory"});

  // ---- parity: the empty plan must change NOTHING. ----
  {
    const Record rec = run_faulty("parity", ds, p, epochs, FaultSpec{},
                                  FaultRecovery::kCheckpointRestart,
                                  /*ckpt_interval=*/0, ref, table);
    Record full = rec;
    full.ok = rec.bitwise == true && rec.kills == 0 && rec.drops == 0 &&
              rec.retries == 0 && rec.straggler_seconds == 0;
    if (!full.ok) violation("empty plan was not bitwise-silent");
    g_records.push_back(full);
  }

  // ---- straggler: delay is charged, math is untouched. ----
  {
    FaultSpec spec;
    spec.rank_slowdown[p - 1] = 4.0;
    spec.straggler_send_delay = 50e-6;
    Record rec = run_faulty("straggler", ds, p, epochs, spec,
                            FaultRecovery::kNone, 0, ref, table);
    rec.ok = rec.bitwise == true && rec.straggler_seconds > 0 && rec.drops == 0;
    if (!rec.ok) violation("straggler run lost bitwise parity or counters");
    g_records.push_back(rec);
  }

  // ---- lossy: exactly-once delivery under drops. ----
  {
    FaultSpec spec;
    spec.seed = 11;
    spec.drop_probability = smoke ? 0.02 : 0.01;
    spec.retry_timeout = 1e-3;
    spec.max_attempts = 8;
    Record rec = run_faulty("lossy", ds, p, epochs, spec, FaultRecovery::kNone,
                            0, ref, table);
    rec.ok = rec.bitwise == true && rec.drops > 0 && rec.retries == rec.drops;
    if (!rec.ok) {
      violation("lossy run broke exactly-once delivery (drops=" +
                std::to_string(rec.drops) + " retries=" +
                std::to_string(rec.retries) + " bitwise=" +
                (rec.bitwise == true ? "yes" : "no") + ")");
    }
    g_records.push_back(rec);
  }

  // ---- preempt: two transient kills x checkpoint interval. ----
  const std::vector<int> intervals = smoke ? std::vector<int>{1, 2}
                                           : std::vector<int>{1, 2, 4};
  for (int interval : intervals) {
    FaultSpec spec;
    spec.kills.push_back(KillSpec{epochs / 2, 1, 0, false});
    spec.kills.push_back(KillSpec{epochs - 1, p - 1, 0, false});
    Record rec = run_faulty("preempt", ds, p, epochs, spec,
                            FaultRecovery::kCheckpointRestart, interval, ref,
                            table);
    // Each kill replays at most (interval - 1) completed epochs plus the
    // one the kill interrupted... which the snapshot cadence bounds by
    // the interval itself. Wasted work above kills * interval means the
    // recovery loop restored an older snapshot than it had to.
    const int replay_bound = rec.kills * interval;
    rec.ok = rec.bitwise == true && rec.kills == 2 && rec.restores == 2 &&
             rec.replayed_epochs <= replay_bound;
    if (!rec.ok) {
      violation("preempt interval=" + std::to_string(interval) +
                " (kills=" + std::to_string(rec.kills) + " restores=" +
                std::to_string(rec.restores) + " replayed=" +
                std::to_string(rec.replayed_epochs) + " bound=" +
                std::to_string(replay_bound) + " bitwise=" +
                (rec.bitwise == true ? "yes" : "no") + ")");
    }
    g_records.push_back(rec);
  }

  // ---- elastic: a permanent kill survives on p-1 ranks. ----
  {
    auto serial = TrainerBuilder(ds)
                      .strategy("serial")
                      .gcn(bench_gcn(ds, epochs))
                      .build();
    const std::vector<EpochMetrics> serial_ref = serial->train();
    FaultSpec spec;
    spec.kills.push_back(KillSpec{epochs / 2, 1, 0, /*permanent=*/true});
    std::vector<EpochMetrics> got;
    Record rec = run_faulty("elastic", ds, p, epochs, spec,
                            FaultRecovery::kCheckpointRestart,
                            /*ckpt_interval=*/1, {}, table, &got);
    // The re-partitioned p-1 continuation tracks the serial trajectory
    // within the same tolerance the elastic-restart bench uses.
    bool parity = got.size() == serial_ref.size();
    for (std::size_t e = 0; parity && e < got.size(); ++e) {
      parity = std::abs(got[e].loss - serial_ref[e].loss) <=
               5e-3 * std::max(1.0, serial_ref[e].loss);
    }
    rec.ok = parity && rec.kills == 1 && rec.elastic_restarts == 1 &&
             rec.restores == 1;
    if (!rec.ok) {
      violation("elastic recovery did not absorb the permanent kill (kills=" +
                std::to_string(rec.kills) + " elastic=" +
                std::to_string(rec.elastic_restarts) + ")");
    }
    g_records.push_back(rec);
  }

  table.print(std::cout);
  std::cout << "\nShape check: goodput falls as the checkpoint interval\n"
               "grows (more replayed work per kill) and as drop probability\n"
               "rises (each drop costs a retry timeout); the trajectory\n"
               "column stays 'bitwise' everywhere except the elastic row,\n"
               "whose re-partition legitimately changes the reduction\n"
               "order.\n";

  emit_json("BENCH_faults.json");
  if (g_violations > 0) {
    std::cerr << g_violations << " fault invariant violation(s)\n";
    return 1;
  }
  std::cout << "all fault-injection invariants held\n";
  return 0;
}
