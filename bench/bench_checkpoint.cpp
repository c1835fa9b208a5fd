// Preemption study for the checkpoint/restore subsystem (src/ckpt/):
// inject a kill at a random epoch, recover, and measure what recovery
// costs — snapshot bytes, save/recover wall-clock, and (for distributed
// runs) the re-partition on load — while VERIFYING the subsystem's core
// promise on every scenario:
//
//   * same-geometry resume is BITWISE identical to an uninterrupted run
//     (loss trajectory, final weights, per-epoch phase volumes);
//   * elastic restart (restore onto a different rank count p') resumes
//     and still tracks the serial reference trajectory.
//
// Distributed kills ride the deterministic fault-injection layer
// (simcomm/fault.hpp): a scheduled KillSpec aborts the world at the kill
// epoch and Trainer::train()'s closed recovery loop restores
// from the periodic auto-checkpoint — the same code path production jobs
// take, not a synthetic save/reset reenactment. The serial scenario keeps
// a manual snapshot/restore (there is no cluster to kill).
//
// Any violation exits nonzero so CI can gate on this binary. Results are
// appended to BENCH_checkpoint.json (records: scenario, dataset, strategy,
// partitioner, p_from, p_to, kill_epoch, total_epochs, snapshot_bytes,
// save_seconds, load_seconds, repartition_seconds, ok) which CI uploads as
// a workflow artifact next to BENCH_wallclock.json.
//
// Usage: bench_checkpoint [--smoke]
//   --smoke  tiny dataset, fixed kill epoch — the CI configuration.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
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
  std::string scenario;  // "resume" or "elastic"
  std::string dataset;
  std::string strategy;
  std::string partitioner;
  int p_from = 0;
  int p_to = 0;
  int kill_epoch = 0;
  int total_epochs = 0;
  std::size_t snapshot_bytes = 0;
  double save_seconds = 0;
  double load_seconds = 0;
  double repartition_seconds = 0;
  bool ok = false;
};

std::vector<Record> g_records;
int g_violations = 0;

void emit_json(const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    out << "  {\"scenario\": \"" << r.scenario << "\", \"dataset\": \""
        << r.dataset << "\", \"strategy\": \"" << r.strategy
        << "\", \"partitioner\": \"" << r.partitioner
        << "\", \"p_from\": " << r.p_from << ", \"p_to\": " << r.p_to
        << ", \"kill_epoch\": " << r.kill_epoch
        << ", \"total_epochs\": " << r.total_epochs
        << ", \"snapshot_bytes\": " << r.snapshot_bytes
        << ", \"save_seconds\": " << r.save_seconds
        << ", \"load_seconds\": " << r.load_seconds
        << ", \"repartition_seconds\": " << r.repartition_seconds
        << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
        << (i + 1 < g_records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "\nwrote " << g_records.size() << " records to " << path << "\n";
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

bool same_weights(const GcnModel& a, const GcnModel& b) {
  if (a.n_layers() != b.n_layers()) return false;
  for (int l = 0; l < a.n_layers(); ++l) {
    if (!(a.layer(l).weights() == b.layer(l).weights())) return false;
  }
  return true;
}

bool same_phase_volumes(const TrainResult& a, const TrainResult& b) {
  if (a.phase_volumes.size() != b.phase_volumes.size()) return false;
  for (const auto& [phase, vol] : b.phase_volumes) {
    auto it = a.phase_volumes.find(phase);
    if (it == a.phase_volumes.end() ||
        it->second.megabytes_per_epoch != vol.megabytes_per_epoch ||
        it->second.messages_per_epoch != vol.messages_per_epoch) {
      return false;
    }
  }
  return true;
}

GcnConfig bench_gcn(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  cfg.dropout = 0.2f;  // exercises the epoch-keyed dropout resume path
  return cfg;
}

TrainerBuilder configured(const Dataset& ds, const std::string& strategy, int p,
                          const std::string& partitioner, const GcnConfig& cfg) {
  TrainerBuilder b(ds);
  b.gcn(cfg);
  if (strategy == "serial") {
    b.strategy("serial");
  } else {
    const int c = strategy.rfind("1.5d", 0) == 0 ? 2 : 1;
    b.strategy(strategy).ranks(p, c).partitioner(partitioner);
  }
  return b;
}

std::string scratch_ckpt(const std::string& stem) {
  return (std::filesystem::temp_directory_path() / (stem + ".ckpt")).string();
}

/// One kill-at-epoch-k scenario: uninterrupted reference vs kill + resume.
/// Serial jobs snapshot/restore by hand; distributed jobs take the real
/// path — a FaultPlan KillSpec aborts the cluster at kill_epoch and
/// train()'s recovery loop restores from the periodic auto-checkpoint.
void run_preemption(const Dataset& ds, const std::string& strategy, int p,
                    const std::string& partitioner, int total_epochs,
                    int kill_epoch, Table& table) {
  const GcnConfig cfg = bench_gcn(ds, total_epochs);

  auto reference = configured(ds, strategy, p, partitioner, cfg).build();
  reference->train();

  Record rec;
  rec.scenario = "resume";
  rec.dataset = ds.name;
  rec.strategy = strategy;
  rec.partitioner = strategy == "serial" ? "" : partitioner;
  rec.p_from = strategy == "serial" ? 0 : p;
  rec.p_to = rec.p_from;
  rec.kill_epoch = kill_epoch;
  rec.total_epochs = total_epochs;

  std::unique_ptr<Trainer> survivor;
  if (strategy == "serial") {
    auto victim = configured(ds, strategy, p, partitioner, cfg).build();
    for (int e = 0; e < kill_epoch; ++e) (void)victim->run_epoch();
    std::stringstream snapshot;
    {
      WallTimer t;
      victim->save(snapshot);
      rec.save_seconds = t.seconds();
    }
    rec.snapshot_bytes = snapshot.str().size();
    victim.reset();  // the preemption: only the snapshot survives
    {
      WallTimer t;
      survivor = TrainerBuilder(ds).resume(snapshot);
      rec.load_seconds = t.seconds();
    }
    survivor->train();
  } else {
    const std::string path = scratch_ckpt("bench_ckpt_preempt");
    std::filesystem::remove(path);
    FaultSpec spec;
    spec.kills.push_back(KillSpec{kill_epoch, /*rank=*/p / 2,
                                  /*after_sends=*/0, /*permanent=*/false});
    survivor = configured(ds, strategy, p, partitioner, cfg)
                   .auto_checkpoint(path, 1)
                   .fault_plan(spec)
                   .fault_recovery(FaultRecovery::kCheckpointRestart)
                   .build();
    survivor->train();
    const RecoveryStats& rs = survivor->result().recovery;
    rec.save_seconds = rs.last_save_seconds;
    rec.load_seconds = rs.recovery_seconds;
    rec.snapshot_bytes = static_cast<std::size_t>(rs.snapshot_bytes);
    if (rs.kills != 1 || rs.restores != 1) {
      std::cerr << "KILL NOT RECOVERED: " << strategy << " expected 1 kill/1 "
                << "restore, got " << rs.kills << "/" << rs.restores << "\n";
      ++g_violations;
    }
    std::filesystem::remove(path);
  }
  rec.repartition_seconds = survivor->result().partition_wall_seconds;

  rec.ok = same_trajectory_bitwise(survivor->result().epochs,
                                   reference->result().epochs) &&
           same_weights(survivor->model(), reference->model()) &&
           same_phase_volumes(survivor->result(), reference->result());
  if (!rec.ok) {
    std::cerr << "BITWISE RESUME VIOLATION: " << strategy << " on " << ds.name
              << " killed at epoch " << kill_epoch << "\n";
    ++g_violations;
  }
  g_records.push_back(rec);
  table.add_row({strategy, std::to_string(rec.p_from) + "->" +
                               std::to_string(rec.p_to),
                 std::to_string(kill_epoch),
                 std::to_string(rec.snapshot_bytes / 1024) + " KiB",
                 ms(rec.save_seconds), ms(rec.load_seconds),
                 ms(rec.repartition_seconds), rec.ok ? "bitwise" : "FAIL"});
}

/// Elastic restart: kill at p, resume at an ARBITRARY p' (not just the
/// p-1 the in-trainer recovery loop absorbs), verify serial parity. The
/// kill is a FaultPlan KillSpec under FaultRecovery::kNone, so the typed
/// RankKilledError reaches this harness, which plays the external job
/// scheduler: it picks the new rank count and resumes the on-disk
/// auto-checkpoint the victim left behind.
void run_elastic(const Dataset& ds, const std::string& strategy, int p_from,
                 int p_to, const std::string& partitioner, int total_epochs,
                 int kill_epoch, Table& table) {
  const GcnConfig cfg = bench_gcn(ds, total_epochs);

  auto serial = configured(ds, "serial", 1, partitioner, cfg).build();
  const auto serial_metrics = serial->train();

  Record rec;
  rec.scenario = "elastic";
  rec.dataset = ds.name;
  rec.strategy = strategy;
  rec.partitioner = partitioner;
  rec.p_from = p_from;
  rec.p_to = p_to;
  rec.kill_epoch = kill_epoch;
  rec.total_epochs = total_epochs;

  const std::string path = scratch_ckpt("bench_ckpt_elastic");
  std::filesystem::remove(path);
  FaultSpec spec;
  spec.kills.push_back(KillSpec{kill_epoch, /*rank=*/p_from / 2,
                                /*after_sends=*/0, /*permanent=*/true});
  auto victim = configured(ds, strategy, p_from, partitioner, cfg)
                    .auto_checkpoint(path, 1)
                    .fault_plan(spec)
                    .build();  // FaultRecovery::kNone: the kill escapes
  bool killed = false;
  try {
    victim->train();
  } catch (const RankKilledError&) {
    killed = true;
  }
  if (!killed) {
    std::cerr << "SCHEDULED KILL NEVER FIRED: " << strategy << " p=" << p_from
              << " epoch " << kill_epoch << "\n";
    ++g_violations;
  }
  rec.save_seconds = victim->result().recovery.last_save_seconds;
  rec.snapshot_bytes =
      static_cast<std::size_t>(victim->result().recovery.snapshot_bytes);
  victim.reset();  // the preemption: only the on-disk snapshot survives

  std::unique_ptr<Trainer> resumed;
  {
    WallTimer t;
    std::ifstream snapshot(path, std::ios::binary);
    resumed = TrainerBuilder(ds).ranks(p_to).resume(snapshot);
    rec.load_seconds = t.seconds();
  }
  resumed->train();
  std::filesystem::remove(path);
  rec.repartition_seconds = resumed->result().partition_wall_seconds;

  const auto& metrics = resumed->result().epochs;
  rec.ok = metrics.size() == serial_metrics.size();
  for (std::size_t e = 0; rec.ok && e < metrics.size(); ++e) {
    rec.ok = std::abs(metrics[e].loss - serial_metrics[e].loss) <=
             5e-3 * std::max(1.0, serial_metrics[e].loss);
  }
  if (!rec.ok) {
    std::cerr << "ELASTIC PARITY VIOLATION: " << strategy << " " << p_from
              << "->" << p_to << " on " << ds.name << "\n";
    ++g_violations;
  }
  g_records.push_back(rec);
  table.add_row({strategy, std::to_string(p_from) + "->" + std::to_string(p_to),
                 std::to_string(kill_epoch),
                 std::to_string(rec.snapshot_bytes / 1024) + " KiB",
                 ms(rec.save_seconds), ms(rec.load_seconds),
                 ms(rec.repartition_seconds),
                 rec.ok ? "parity" : "FAIL"});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  preamble("Checkpoint — preemption & elastic-restart study",
           "Schedules a FaultPlan rank kill at a random epoch and reports\n"
           "recovery overhead (snapshot bytes, save/recover wall-clock,\n"
           "re-partition cost). Distributed kills recover through train()'s\n"
           "closed loop; elastic p->p' restarts resume the on-disk snapshot\n"
           "by hand. Same-geometry resume is asserted BITWISE identical to\n"
           "an uninterrupted run; elastic restarts are asserted\n"
           "serial-parity. Exit 1 on violation.");

  const std::uint64_t seed = 20260730;
  std::cout << "kill-epoch seed: " << seed << (smoke ? " (smoke)" : "") << "\n";
  Rng rng(seed);

  const DatasetScale scale = smoke ? DatasetScale::kTiny : DatasetScale::kSmall;
  const Dataset ds = make_amazon_sim(scale);
  const int total_epochs = smoke ? 6 : 10;
  auto kill = [&] {
    return smoke ? total_epochs / 2
                 : 1 + static_cast<int>(rng.next_below(
                           static_cast<std::uint64_t>(total_epochs - 1)));
  };

  print_banner(std::cout, ds.name + " — kill/resume recovery overhead");
  Table table({"strategy", "p", "kill@", "snapshot", "save", "recover",
               "repartition", "verdict"});

  run_preemption(ds, "serial", 1, "", total_epochs, kill(), table);
  run_preemption(ds, "1d-sparse", 4, "gvb", total_epochs, kill(), table);
  run_preemption(ds, "1d-overlap", 4, "gvb", total_epochs, kill(), table);
  if (!smoke) {
    run_preemption(ds, "1d-sparse", 8, "metis", total_epochs, kill(), table);
    run_preemption(ds, "1.5d-sparse", 4, "block", total_epochs, kill(), table);
    run_preemption(ds, "2d-sparse", 4, "metis", total_epochs, kill(), table);
  }

  run_elastic(ds, "1d-sparse", 4, 2, "gvb", total_epochs, kill(), table);
  if (!smoke) {
    run_elastic(ds, "1d-sparse", 4, 8, "gvb", total_epochs, kill(), table);
    run_elastic(ds, "1d-overlap", 8, 4, "metis", total_epochs, kill(), table);
  }
  table.print(std::cout);

  emit_json("BENCH_checkpoint.json");
  if (g_violations > 0) {
    std::cerr << g_violations << " checkpoint invariant violation(s)\n";
    return 1;
  }
  std::cout << "all resume/elastic invariants held\n";
  return 0;
}
