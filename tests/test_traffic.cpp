// Traffic recorder accounting: per-pair counters, summaries, imbalance,
// and the per-source shards behind concurrent recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "simcomm/traffic.hpp"

namespace sagnn {
namespace {

TEST(Traffic, RecordsBytesAndMessages) {
  TrafficRecorder rec(3);
  rec.record("x", 0, 1, 100);
  rec.record("x", 0, 1, 50);
  rec.record("x", 2, 0, 7);
  const PhaseTraffic t = rec.phase("x");
  EXPECT_EQ(t.bytes_between(0, 1), 150u);
  EXPECT_EQ(t.bytes_between(2, 0), 7u);
  EXPECT_EQ(t.total_bytes(), 157u);
  EXPECT_EQ(t.total_msgs(), 3u);
}

TEST(Traffic, SelfMessagesExcludedFromSummaries) {
  TrafficRecorder rec(2);
  rec.record("x", 0, 0, 1000);
  rec.record("x", 0, 1, 10);
  const PhaseTraffic t = rec.phase("x");
  EXPECT_EQ(t.total_bytes(), 10u);
  EXPECT_EQ(t.send_bytes(0), 10u);
  EXPECT_EQ(t.recv_bytes(0), 0u);
  // But the raw counter still holds the self traffic.
  EXPECT_EQ(t.bytes_between(0, 0), 1000u);
}

TEST(Traffic, SendRecvRowColumnSums) {
  TrafficRecorder rec(3);
  rec.record("x", 0, 1, 5);
  rec.record("x", 0, 2, 7);
  rec.record("x", 1, 2, 11);
  const PhaseTraffic t = rec.phase("x");
  EXPECT_EQ(t.send_bytes(0), 12u);
  EXPECT_EQ(t.send_bytes(1), 11u);
  EXPECT_EQ(t.recv_bytes(2), 18u);
  EXPECT_EQ(t.max_send_bytes(), 12u);
}

TEST(Traffic, ImbalancePercent) {
  TrafficRecorder rec(2);
  rec.record("x", 0, 1, 300);
  rec.record("x", 1, 0, 100);
  const PhaseTraffic t = rec.phase("x");
  // avg send = 200, max = 300 -> 50% imbalance.
  EXPECT_NEAR(t.send_imbalance_percent(), 50.0, 1e-9);
}

TEST(Traffic, UnknownPhaseIsZero) {
  TrafficRecorder rec(4);
  const PhaseTraffic t = rec.phase("nope");
  EXPECT_EQ(t.total_bytes(), 0u);
  EXPECT_EQ(t.p, 4);
}

TEST(Traffic, TotalAcrossPhasesWithExclusion) {
  TrafficRecorder rec(2);
  rec.record("a", 0, 1, 10);
  rec.record("b", 0, 1, 20);
  rec.record("sync", 0, 1, 999);
  EXPECT_EQ(rec.total().total_bytes(), 1029u);
  EXPECT_EQ(rec.total({"sync"}).total_bytes(), 30u);
}

TEST(Traffic, PhaseNamesAndReset) {
  TrafficRecorder rec(2);
  rec.record("a", 0, 1, 1);
  rec.record("b", 1, 0, 1);
  EXPECT_EQ(rec.phase_names().size(), 2u);
  rec.reset();
  EXPECT_TRUE(rec.phase_names().empty());
  EXPECT_EQ(rec.phase("a").total_bytes(), 0u);
}

TEST(Traffic, StagePhaseNamesRoundTrip) {
  EXPECT_EQ(TrafficRecorder::stage_phase("alltoall", 3), "alltoall#3");
  EXPECT_EQ(TrafficRecorder::base_name("alltoall#3"), "alltoall");
  EXPECT_EQ(TrafficRecorder::base_name("alltoall"), "alltoall");
  EXPECT_EQ(TrafficRecorder::base_name("index_exchange"), "index_exchange");
}

TEST(Traffic, ChunkTagsAggregateByBaseName) {
  TrafficRecorder rec(2);
  rec.record(TrafficRecorder::stage_phase("alltoall", 0), 0, 1, 10);
  rec.record(TrafficRecorder::stage_phase("alltoall", 1), 0, 1, 20);
  rec.record(TrafficRecorder::stage_phase("alltoall", 1), 1, 0, 5);
  rec.record("bcast", 0, 1, 7);

  EXPECT_EQ(rec.stage_count("alltoall"), 2);
  EXPECT_EQ(rec.stage_count("bcast"), 1);  // untagged = one stage
  EXPECT_EQ(rec.stage_count("nope"), 0);

  const PhaseTraffic total = rec.phase_total("alltoall");
  EXPECT_EQ(total.total_bytes(), 35u);
  EXPECT_EQ(total.total_msgs(), 3u);
  EXPECT_EQ(total.bytes_between(0, 1), 30u);

  // Individual stages stay separately addressable, and untagged phases
  // read the same through phase() and phase_total().
  EXPECT_EQ(rec.phase("alltoall#0").total_bytes(), 10u);
  EXPECT_EQ(rec.phase("alltoall#1").total_bytes(), 25u);
  EXPECT_EQ(rec.phase("alltoall").total_bytes(), 0u);  // no untagged traffic
  EXPECT_EQ(rec.phase_total("bcast").total_bytes(), 7u);
}

TEST(Traffic, CopyIsSnapshot) {
  TrafficRecorder rec(2);
  rec.record("a", 0, 1, 5);
  TrafficRecorder copy = rec;
  rec.record("a", 0, 1, 5);
  EXPECT_EQ(copy.phase("a").total_bytes(), 5u);
  EXPECT_EQ(rec.phase("a").total_bytes(), 10u);
}

TEST(Traffic, ConcurrentShardedRecordingEqualsSerialReplay) {
  // Every source rank records the same script from its own thread, plus a
  // "retry" row recorded on the DESTINATION's thread (the retry protocol
  // runs receiver-side). Folding the shards must give exactly what one
  // thread replaying the same records gets, pair for pair.
  const int p = 8;
  const std::vector<std::string> phases{"alltoall#0", "alltoall#1", "allreduce",
                                        "bcast"};
  auto script = [&](TrafficRecorder& rec, int src) {
    for (int k = 0; k < 300; ++k) {
      const std::string& phase = phases[static_cast<std::size_t>((src + k / 7) % 4)];
      rec.record(phase, src, (src + k) % p, static_cast<std::uint64_t>(src * 1000 + k));
    }
  };
  auto retry = [&](TrafficRecorder& rec, int me) {
    rec.record("retry", (me + 1) % p, me, static_cast<std::uint64_t>(7 + me));
  };

  TrafficRecorder concurrent(p);
  std::vector<std::thread> threads;
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      script(concurrent, r);
      retry(concurrent, r);
    });
  }
  for (auto& t : threads) t.join();

  TrafficRecorder serial(p);
  for (int r = 0; r < p; ++r) {
    script(serial, r);
    retry(serial, r);
  }

  const std::vector<std::string> names = concurrent.phase_names();
  EXPECT_EQ(names, serial.phase_names());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
  EXPECT_EQ(names.size(), phases.size() + 1);
  for (const std::string& name : names) {
    const PhaseTraffic a = concurrent.phase(name);
    const PhaseTraffic b = serial.phase(name);
    EXPECT_EQ(a.bytes, b.bytes) << name;
    EXPECT_EQ(a.msgs, b.msgs) << name;
  }
  EXPECT_EQ(concurrent.phase("retry").bytes_between(1, 0), 7u);
  EXPECT_EQ(concurrent.phase_total("alltoall").bytes,
            serial.phase_total("alltoall").bytes);
  EXPECT_EQ(concurrent.stage_count("alltoall"), 2);
  EXPECT_EQ(concurrent.total({"retry"}).msgs, serial.total({"retry"}).msgs);

  // reset() empties every shard, including each shard's last-phase fast
  // path: a record after the reset, on the phase the shard recorded last,
  // must start a fresh phase rather than reuse the cleared one.
  concurrent.record("bcast", 3, 4, 1);
  concurrent.reset();
  EXPECT_TRUE(concurrent.phase_names().empty());
  EXPECT_EQ(concurrent.total().total_msgs(), 0u);
  concurrent.record("bcast", 3, 4, 5);
  EXPECT_EQ(concurrent.phase_names(), std::vector<std::string>{"bcast"});
  EXPECT_EQ(concurrent.phase("bcast").total_bytes(), 5u);
  EXPECT_EQ(concurrent.phase("bcast").total_msgs(), 1u);
}

TEST(Traffic, SetPhaseAndAssignmentKeepShardsConsistent) {
  // set_phase writes one row into every shard; assignment replaces every
  // shard. Recording afterwards adds to the restored counters.
  TrafficRecorder rec(3);
  PhaseTraffic restored(3);
  restored.bytes[0 * 3 + 1] = 10;
  restored.bytes[2 * 3 + 0] = 30;
  restored.msgs[0 * 3 + 1] = 1;
  restored.msgs[2 * 3 + 0] = 3;
  rec.record("alltoall", 0, 1, 100);  // primes shard 0's fast path
  rec.set_phase("alltoall", restored);
  rec.record("alltoall", 0, 1, 5);
  EXPECT_EQ(rec.phase("alltoall").bytes_between(0, 1), 15u);
  EXPECT_EQ(rec.phase("alltoall").bytes_between(2, 0), 30u);

  TrafficRecorder other(3);
  other.record("bcast", 1, 2, 9);
  rec = other;
  EXPECT_EQ(rec.phase_names(), std::vector<std::string>{"bcast"});
  rec.record("bcast", 1, 2, 1);
  EXPECT_EQ(rec.phase("bcast").bytes_between(1, 2), 10u);
  EXPECT_EQ(other.phase("bcast").bytes_between(1, 2), 9u);
}

}  // namespace
}  // namespace sagnn
