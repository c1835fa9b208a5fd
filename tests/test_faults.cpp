// Deterministic fault injection and closed-loop recovery: empty-plan
// bitwise parity, straggler accounting, exactly-once delivery over lossy
// links, typed retry exhaustion (never a hang), scheduled rank kills at
// epoch boundaries / mid-collective, checkpoint-atomicity survival, and
// the train()-level recovery loop (transient, cold, and elastic restarts).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include "gnn/distributed_trainer.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"
#include "simcomm/comm.hpp"
#include "simcomm/fault.hpp"
#include "watchdog.hpp"

namespace sagnn {
namespace {

GcnConfig tiny_config(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

std::string temp_ckpt_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FaultPlan, SpecValidationIsTyped) {
  FaultSpec bad_drop;
  bad_drop.drop_probability = 1.5;
  EXPECT_THROW((void)FaultPlan{bad_drop}, Error);
  FaultSpec bad_slow;
  bad_slow.rank_slowdown[0] = 0.5;  // < 1 would be a speedup
  EXPECT_THROW((void)FaultPlan{bad_slow}, Error);
  FaultSpec bad_retry;
  bad_retry.max_attempts = 0;
  EXPECT_THROW((void)FaultPlan{bad_retry}, Error);
  EXPECT_TRUE(FaultPlan{FaultSpec{}}.empty());
}

TEST(FaultPlan, DecisionsAreDeterministicPureHashes) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_probability = 0.5;
  spec.duplicate_probability = 0.5;
  const FaultPlan a(spec), b(spec);
  int drops = 0;
  for (std::uint64_t s = 0; s < 200; ++s) {
    EXPECT_EQ(a.should_drop(0, 1, 7, s, 1), b.should_drop(0, 1, 7, s, 1));
    EXPECT_EQ(a.should_duplicate(0, 1, 7, s, 1), b.should_duplicate(0, 1, 7, s, 1));
    drops += a.should_drop(0, 1, 7, s, 1) ? 1 : 0;
  }
  // Roughly half at p = 0.5 — a loose band, but enough to catch a hash
  // that collapsed to constant true/false.
  EXPECT_GT(drops, 50);
  EXPECT_LT(drops, 150);
  // Different seeds decide differently somewhere in 200 events.
  spec.seed = 43;
  const FaultPlan c(spec);
  bool any_diff = false;
  for (std::uint64_t s = 0; s < 200 && !any_diff; ++s) {
    any_diff = a.should_drop(0, 1, 7, s, 1) != c.should_drop(0, 1, 7, s, 1);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Faults, InstalledEmptyPlanIsBitwiseIdenticalAtCommLevel) {
  // The parity guarantee at the runtime layer: an installed-but-empty plan
  // must leave traffic, payloads, and counters exactly as with no plan.
  auto exchange = [](Comm& comm) {
    std::vector<std::vector<float>> send(4);
    for (int dst = 0; dst < 4; ++dst) {
      send[static_cast<std::size_t>(dst)] = {
          static_cast<float>(comm.rank() * 10 + dst)};
    }
    auto got = alltoallv<float>(comm, send);
    ASSERT_EQ(got.size(), 4u);
  };
  const TrafficRecorder plain = run_spmd(4, exchange);
  const TrafficRecorder with_plan =
      run_spmd(4, FaultPlan::make(FaultSpec{}), exchange);
  EXPECT_FALSE(with_plan.fault_counters().any());
  ASSERT_EQ(plain.phase_names(), with_plan.phase_names());
  for (const auto& name : plain.phase_names()) {
    EXPECT_EQ(plain.phase(name).bytes, with_plan.phase(name).bytes) << name;
    EXPECT_EQ(plain.phase(name).msgs, with_plan.phase(name).msgs) << name;
  }
}

TEST(Faults, EmptyPlanKeepsTrainingBitwiseIdentical) {
  // Same guarantee end to end: a distributed run with an empty plan
  // installed reproduces the fault-free loss trajectory bit for bit.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto plain = TrainerBuilder(ds)
                   .strategy("1d-sparse")
                   .ranks(4)
                   .gcn(tiny_config(ds, 3))
                   .build();
  plain->train();
  auto faulty = TrainerBuilder(ds)
                    .strategy("1d-sparse")
                    .ranks(4)
                    .gcn(tiny_config(ds, 3))
                    .fault_plan(FaultSpec{})
                    .fault_recovery(FaultRecovery::kCheckpointRestart)
                    .build();
  faulty->train();
  const TrainResult& a = plain->result();
  const TrainResult& b = faulty->result();
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].loss, b.epochs[e].loss) << e;  // exact, not approx
  }
  EXPECT_FALSE(b.faults.any());
  EXPECT_EQ(b.recovery.kills, 0);
}

TEST(Faults, StragglerDelayIsChargedAndCounted) {
  FaultSpec spec;
  spec.rank_slowdown[1] = 3.0;  // rank 1 pays 2 * straggler_send_delay/send
  spec.straggler_send_delay = 200e-6;
  const auto plan = FaultPlan::make(spec);
  const TrafficRecorder traffic = run_spmd(2, plan, [](Comm& comm) {
    const std::vector<int> payload{comm.rank()};
    if (comm.rank() == 1) {
      for (int i = 0; i < 5; ++i) comm.send<int>(0, 100 + i, payload, "p2p");
    } else {
      for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(comm.recv<int>(1, 100 + i), std::vector<int>{1});
      }
    }
  });
  const FaultCounters fc = traffic.fault_counters();
  // 5 sends * (3 - 1) * 200us = 2ms of injected delay, exactly.
  EXPECT_NEAR(fc.straggler_seconds, 5 * 2 * 200e-6, 1e-12);
  EXPECT_EQ(fc.drops, 0u);
  EXPECT_EQ(fc.retries, 0u);
}

TEST(Faults, LossyLinkDeliversEveryMessageExactlyOnceInOrder) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_probability = 0.4;
  spec.duplicate_probability = 0.4;
  spec.max_attempts = 8;
  spec.retry_timeout = 1e-3;
  const int n = 50;
  const auto plan = FaultPlan::make(spec);
  with_watchdog([&] {
    const TrafficRecorder traffic = run_spmd(2, plan, [&](Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < n; ++i) {
          const std::vector<int> payload{1000 + i};
          comm.send<int>(1, 5, payload, "p2p");
        }
      } else {
        // One tag, n messages: the seq-number stream must survive drops,
        // retransmissions, and duplicate deliveries in posted order.
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(comm.recv<int>(0, 5), std::vector<int>{1000 + i}) << i;
        }
      }
    });
    const FaultCounters fc = traffic.fault_counters();
    EXPECT_GT(fc.drops, 0u);
    // Every swallowed transmission was eventually re-requested: with no
    // retry budget exhausted, retransmissions equal drops exactly.
    EXPECT_EQ(fc.retries, fc.drops);
    EXPECT_GE(fc.timeouts, fc.retries);
    EXPECT_GT(fc.duplicates, 0u);
    // Retransmissions put real bytes back on the wire, in their own phase.
    EXPECT_GT(traffic.phase("retry").total_bytes(), 0u);
  });
}

TEST(Faults, RetryExhaustionIsATypedErrorNotAHang) {
  FaultSpec spec;
  spec.drop_probability = 1.0;  // the link never delivers
  spec.max_attempts = 3;
  spec.retry_timeout = 1e-3;
  const auto plan = FaultPlan::make(spec);
  with_watchdog([&] {
    Cluster cluster(2, plan);
    try {
      cluster.run([](Comm& comm) {
        if (comm.rank() == 0) {
          const std::vector<int> payload{1};
          comm.send<int>(1, 9, payload, "p2p");
        } else {
          (void)comm.recv<int>(0, 9);
        }
      });
      FAIL() << "expected FaultError";
    } catch (const FaultError& e) {
      EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
    }
    EXPECT_GT(cluster.traffic().fault_counters().drops, 0u);
  });
}

TEST(Faults, KillFiresDuringInFlightAlltoallv) {
  // after_sends = 2: rank 0 dies on its third cross-rank send, i.e. with
  // the collective's sends partially delivered. Peers' pending waitalls
  // must resolve via AbortedError and the root cause must surface.
  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/0, /*rank=*/0, /*after_sends=*/2,
                                /*permanent=*/false});
  const auto plan = FaultPlan::make(spec);
  with_watchdog([&] {
    Cluster cluster(4, plan);
    cluster.world().begin_fault_epoch(0);
    try {
      cluster.run([](Comm& comm) {
        std::vector<std::vector<float>> send(4);
        for (int dst = 0; dst < 4; ++dst) {
          send[static_cast<std::size_t>(dst)] = {static_cast<float>(dst)};
        }
        auto pending = ialltoallv<float>(comm, send);
        (void)pending.wait();
      });
      FAIL() << "expected RankKilledError";
    } catch (const RankKilledError& e) {
      EXPECT_EQ(e.rank(), 0);
      EXPECT_EQ(e.epoch(), 0);
      EXPECT_FALSE(e.permanent());
    }
    EXPECT_EQ(plan->kills_fired(), 1);
  });
}

TEST(Faults, KillDuringEpochRecoversFromAutoCheckpointBitwise) {
  // Two transient kills mid-run; recovery restores from the last periodic
  // snapshot and replays. Replayed epochs are deterministic (dropout keys
  // on the original row ids and the epoch index), so the final trajectory
  // must match the fault-free reference bit for bit.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string path = temp_ckpt_path("sagnn_fault_recovery.ckpt");
  std::filesystem::remove(path);

  auto reference = TrainerBuilder(ds)
                       .strategy("1d-sparse")
                       .ranks(4)
                       .gcn(tiny_config(ds, 6))
                       .build();
  reference->train();

  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/3, /*rank=*/1, 0, false});
  spec.kills.push_back(KillSpec{/*epoch=*/5, /*rank=*/3, 0, false});
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 6))
                     .auto_checkpoint(path, 2)
                     .fault_plan(spec)
                     .fault_recovery(FaultRecovery::kCheckpointRestart)
                     .build();
  trainer->train();
  const TrainResult& got = trainer->result();
  const TrainResult& want = reference->result();
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t e = 0; e < want.epochs.size(); ++e) {
    EXPECT_EQ(got.epochs[e].loss, want.epochs[e].loss) << e;
  }
  EXPECT_EQ(got.recovery.kills, 2);
  EXPECT_EQ(got.recovery.restores, 2);
  EXPECT_EQ(got.recovery.cold_restarts, 0);
  EXPECT_EQ(got.recovery.elastic_restarts, 0);
  // Kill at epoch 3 restored the epoch-2 snapshot (+1 replayed); kill at
  // epoch 5 restored the epoch-4 snapshot (+1 replayed).
  EXPECT_EQ(got.recovery.replayed_epochs, 2);
  EXPECT_GT(got.recovery.snapshot_bytes, 0u);
  std::filesystem::remove(path);
}

TEST(Faults, MidExchangeKillLeavesDivergedRanksAndStillRecoversBitwise) {
  // after_sends > 0 lands the kill inside epoch 3's exchange: peers are
  // mid-collective, some ranks have already applied partial updates.
  // Recovery must not trust any survivor state — it restores the epoch-2
  // snapshot and replays, so the trajectory still matches the fault-free
  // reference bit for bit.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string path = temp_ckpt_path("sagnn_fault_midexchange.ckpt");
  std::filesystem::remove(path);

  auto reference = TrainerBuilder(ds)
                       .strategy("1d-sparse")
                       .ranks(4)
                       .gcn(tiny_config(ds, 5))
                       .build();
  reference->train();

  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/3, /*rank=*/2, /*after_sends=*/3,
                                /*permanent=*/false});
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 5))
                     .auto_checkpoint(path, 2)
                     .fault_plan(spec)
                     .fault_recovery(FaultRecovery::kCheckpointRestart)
                     .build();
  trainer->train();
  const TrainResult& got = trainer->result();
  const TrainResult& want = reference->result();
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t e = 0; e < want.epochs.size(); ++e) {
    EXPECT_EQ(got.epochs[e].loss, want.epochs[e].loss) << e;
  }
  EXPECT_EQ(got.recovery.kills, 1);
  EXPECT_EQ(got.recovery.restores, 1);
  EXPECT_EQ(got.recovery.replayed_epochs, 1);
  std::filesystem::remove(path);
}

TEST(Faults, KillBeforeFirstSnapshotColdRestartsBitwise) {
  // The kill fires before any auto-checkpoint exists: recovery must fall
  // back to a cold restart from epoch 0 and still reproduce the reference
  // trajectory exactly (the fired kill never re-fires on replay).
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  auto reference = TrainerBuilder(ds)
                       .strategy("1d-sparse")
                       .ranks(4)
                       .gcn(tiny_config(ds, 4))
                       .build();
  reference->train();

  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/1, /*rank=*/2, 0, false});
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 4))
                     .fault_plan(spec)
                     .fault_recovery(FaultRecovery::kCheckpointRestart)
                     .build();
  trainer->train();
  const TrainResult& got = trainer->result();
  const TrainResult& want = reference->result();
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t e = 0; e < want.epochs.size(); ++e) {
    EXPECT_EQ(got.epochs[e].loss, want.epochs[e].loss) << e;
  }
  EXPECT_EQ(got.recovery.kills, 1);
  EXPECT_EQ(got.recovery.restores, 0);
  EXPECT_EQ(got.recovery.cold_restarts, 1);
  EXPECT_EQ(got.recovery.replayed_epochs, 1);
}

TEST(Faults, PermanentKillRestartsElasticallyOnPMinus1) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string path = temp_ckpt_path("sagnn_fault_elastic.ckpt");
  std::filesystem::remove(path);
  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/3, /*rank=*/2, 0, /*permanent=*/true});
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 6))
                     .auto_checkpoint(path, 2)
                     .fault_plan(spec)
                     .fault_recovery(FaultRecovery::kCheckpointRestart)
                     .build();
  trainer->train();
  const TrainResult& got = trainer->result();
  // The survivors finish the job on 3 ranks. The elastic restart
  // re-partitions, so the post-restart trajectory legitimately differs
  // from a 4-rank run — assert completion and sane training, not bits.
  EXPECT_EQ(dynamic_cast<const DistributedTrainer&>(*trainer).config().p, 3);
  ASSERT_EQ(got.epochs.size(), 6u);
  for (const auto& em : got.epochs) EXPECT_TRUE(std::isfinite(em.loss));
  EXPECT_EQ(got.recovery.kills, 1);
  EXPECT_EQ(got.recovery.elastic_restarts, 1);
  EXPECT_EQ(got.recovery.restores, 1);
  std::filesystem::remove(path);
}

TEST(Faults, TornTmpFileNeverShadowsTheGoodSnapshot) {
  // A kill between checkpoint write and rename leaves a torn .tmp sibling
  // behind; the previous good snapshot must stay authoritative. Simulate
  // the torn write directly and resume through the normal path.
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string path = temp_ckpt_path("sagnn_fault_torn.ckpt");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");

  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 5))
                     .auto_checkpoint(path, 2)
                     .build();
  trainer->train();
  ASSERT_TRUE(std::filesystem::exists(path));
  {
    std::ofstream torn(path + ".tmp", std::ios::binary);
    torn << "garbage from a killed writer";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  auto resumed = TrainerBuilder(ds).resume(in);
  EXPECT_EQ(resumed->epochs_run(), 4);
  resumed->train();
  const TrainResult& cont = resumed->result();
  const TrainResult& full = trainer->result();
  ASSERT_EQ(cont.epochs.size(), full.epochs.size());
  for (std::size_t e = 0; e < full.epochs.size(); ++e) {
    EXPECT_EQ(cont.epochs[e].loss, full.epochs[e].loss) << e;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST(Faults, KillWithoutRecoveryPolicyPropagatesTyped) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  FaultSpec spec;
  spec.kills.push_back(KillSpec{/*epoch=*/1, /*rank=*/0, 0, false});
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .gcn(tiny_config(ds, 4))
                     .fault_plan(spec)
                     .build();  // FaultRecovery::kNone
  EXPECT_THROW(trainer->train(), RankKilledError);
}

}  // namespace
}  // namespace sagnn
