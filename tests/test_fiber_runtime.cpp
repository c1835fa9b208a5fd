// The M:N rank runtime (simcomm/fiber.hpp): wakes that race a park, many
// ranks folded onto one worker with results bitwise equal to four workers,
// a kill that reaches parked and timed-parked ranks, a blocking receive
// off a rank fiber refused with a typed error, and the CPU timer's refusal
// of an interval that spans a park.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"
#include "simcomm/fault.hpp"
#include "watchdog.hpp"

namespace sagnn {
namespace {

/// Restores the environment's pool size (and so the cluster worker count).
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_parallel_threads(0); }
};

/// Ranks 2i and 2i + 1 bounce a counter `rounds` times. Each send wakes a
/// partner that is parked or still on its way to parking, so the wake
/// often lands between the two. Returns the mismatches seen.
int ping_pong(int ranks, int rounds) {
  std::vector<int> bad(static_cast<std::size_t>(ranks), 0);
  run_spmd(ranks, [&](Comm& comm) {
    const int me = comm.rank();
    const int peer = me ^ 1;
    int& mismatches = bad[static_cast<std::size_t>(me)];
    for (int round = 0; round < rounds; ++round) {
      if (me % 2 == 0) {
        comm.send<int>(peer, 1, std::vector<int>{round}, "p2p");
        if (comm.recv<int>(peer, 2) != std::vector<int>{round + 1}) ++mismatches;
      } else {
        const std::vector<int> got = comm.recv<int>(peer, 1);
        if (got != std::vector<int>{round}) ++mismatches;
        comm.send<int>(peer, 2, std::vector<int>{round + 1}, "p2p");
      }
    }
  });
  int total = 0;
  for (int b : bad) total += b;
  return total;
}

TEST(FiberRuntime, PingPongStressLosesNoWakeup) {
  ThreadCountGuard guard;
  for (int workers : {2, 4}) {
    set_parallel_threads(workers);
    with_watchdog([&] { EXPECT_EQ(ping_pong(workers, 5000), 0) << workers; });
  }
}

/// p = 64 ranks run a barrier, an all-reduce and an all-to-all on
/// `workers` worker threads. Returns every rank's results, rank-major, and
/// the number of distinct threads the ranks ran on.
std::pair<std::vector<float>, std::size_t> collectives_on(int workers) {
  constexpr int kRanks = 64;
  set_parallel_threads(workers);
  std::vector<std::vector<float>> out(kRanks);
  std::vector<std::thread::id> ids(kRanks);
  run_spmd(kRanks, [&](Comm& comm) {
    const int r = comm.rank();
    ids[static_cast<std::size_t>(r)] = std::this_thread::get_id();
    comm.barrier();
    std::vector<float> sum(97);
    for (std::size_t i = 0; i < sum.size(); ++i) {
      sum[i] = 1.0f / static_cast<float>(1 + r + static_cast<int>(i));
    }
    allreduce_sum<float>(comm, sum);
    std::vector<std::vector<float>> send(kRanks);
    for (int j = 0; j < kRanks; ++j) {
      // Lengths 0..4: some pairs exchange empty messages.
      const auto len = static_cast<std::size_t>((r + j) % 5);
      send[static_cast<std::size_t>(j)].assign(len, static_cast<float>(r * 1000 + j));
    }
    const auto received = ialltoallv<float>(comm, send).wait();
    comm.barrier();
    std::vector<float>& mine = out[static_cast<std::size_t>(r)];
    mine = sum;
    for (const auto& buf : received) mine.insert(mine.end(), buf.begin(), buf.end());
  });
  std::vector<float> flat;
  for (const auto& rank_out : out) {
    flat.insert(flat.end(), rank_out.begin(), rank_out.end());
  }
  return {flat, std::set<std::thread::id>(ids.begin(), ids.end()).size()};
}

TEST(FiberRuntime, SixtyFourRanksOnOneWorkerMatchFourWorkersBitwise) {
  ThreadCountGuard guard;
  std::pair<std::vector<float>, std::size_t> one;
  std::pair<std::vector<float>, std::size_t> four;
  with_watchdog([&] { one = collectives_on(1); });
  with_watchdog([&] { four = collectives_on(4); });
  EXPECT_EQ(one.second, 1u) << "every rank must run on the single worker";
  EXPECT_LE(four.second, 4u);
  ASSERT_EQ(one.first.size(), four.first.size());
  ASSERT_FALSE(one.first.empty());
  EXPECT_EQ(std::memcmp(one.first.data(), four.first.data(),
                        one.first.size() * sizeof(float)),
            0);
}

TEST(FiberRuntime, KillReachesParkedAndTimedParkedRanks) {
  // Rank 0 first sends rank 1 a message over a link that swallows every
  // attempt, 60 s apart, so the message stays in flight for minutes. Ranks
  // 1-3 each hand rank 0 a token and then wait on tag 2: rank 1 parks until
  // that message's time (a timed park), ranks 2 and 3 without a deadline
  // for messages rank 0 never sends. Rank 0 then dies of a scheduled kill
  // after its one send. The abort must wake all three, the timed park long
  // before its deadline.
  ThreadCountGuard guard;
  for (int workers : {1, 4}) {
    set_parallel_threads(workers);
    FaultSpec spec;
    spec.link_drop[{0, 1}] = 1.0;
    spec.retry_timeout = 60;
    spec.retry_timeout_cap = 60;
    spec.kills.push_back(KillSpec{0, 0, 1, false});
    Cluster cluster(4, FaultPlan::make(spec));
    cluster.world().begin_fault_epoch(0);
    std::vector<int> aborted(4, 0);
    const auto body = [&](Comm& comm) {
      const int me = comm.rank();
      if (me == 0) {
        comm.send<int>(1, 2, std::vector<int>{0}, "p2p");
        for (int src = 1; src < 4; ++src) (void)comm.recv<int>(src, 1);
        comm.world().poll_fault(0);
        return;
      }
      comm.send<int>(0, 1, std::vector<int>{me}, "p2p");
      try {
        (void)comm.recv<int>(0, 2);
      } catch (const AbortedError&) {
        aborted[static_cast<std::size_t>(me)] = 1;
        throw;
      }
    };
    with_watchdog([&] { EXPECT_THROW(cluster.run(body), RankKilledError); });
    EXPECT_EQ(aborted, (std::vector<int>{0, 1, 1, 1})) << workers << " workers";
    // The send settled the message's whole outcome: all five attempts
    // swallowed, four of them retransmitted.
    const FaultCounters fc = cluster.traffic().fault_counters();
    EXPECT_EQ(fc.drops, 5u) << workers;
    EXPECT_EQ(fc.retries, 4u) << workers;
  }
}

TEST(FiberRuntime, BlockingReceiveOffAFiberIsATypedError) {
  // The watchdog's helper thread is a plain thread: it has nothing to park,
  // so its blocking receives on rank 1's mailbox throw at once. recv()
  // throws before it takes a slot, so rank 1 gets the first message of
  // that stream. A refused Request stays pending and, destroyed, keeps its
  // slot, so rank 1 gets the second message of the other stream.
  with_watchdog([] {
    Cluster cluster(2);
    CommWorld& world = cluster.world();
    try {
      (void)world.recv(1, 0, 42);
      ADD_FAILURE() << "a plain thread's recv must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("rank fiber"), std::string::npos)
          << e.what();
    }
    {
      Request refused = world.irecv(1, 0, 43);
      EXPECT_THROW((void)refused.wait(), Error);
      EXPECT_TRUE(refused.valid());
    }
    std::vector<int> got;
    cluster.run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send<int>(1, 42, std::vector<int>{7, 8}, "p2p");
        comm.send<int>(1, 43, std::vector<int>{1}, "p2p");  // the dropped slot
        comm.send<int>(1, 43, std::vector<int>{2}, "p2p");
        return;
      }
      got = comm.recv<int>(0, 42);
      const std::vector<int> second = comm.recv<int>(0, 43);
      got.insert(got.end(), second.begin(), second.end());
    });
    EXPECT_EQ(got, (std::vector<int>{7, 8, 2}));
  });
}

TEST(FiberRuntime, CpuTimerRefusesAnIntervalThatSpansAPark) {
  // One worker runs rank 0 first, so its receive parks until rank 1 has
  // run: a timer around the receive spans two switches on the worker's
  // counter. A timer around compute alone keeps its reading.
  ThreadCountGuard guard;
  set_parallel_threads(1);
  with_watchdog([] {
    run_spmd(2, [](Comm& comm) {
      if (comm.rank() == 1) {
        comm.send<int>(0, 3, std::vector<int>{1}, "p2p");
        return;
      }
      ThreadCpuTimer compute;
      volatile double sink = 0;
      for (int i = 0; i < 100000; ++i) sink = sink + i;
      EXPECT_GE(compute.seconds(), 0.0);
      ThreadCpuTimer spanning;
      (void)comm.recv<int>(1, 3);
      EXPECT_THROW((void)spanning.seconds(), CpuTimerError);
    });
  });
}

}  // namespace
}  // namespace sagnn
