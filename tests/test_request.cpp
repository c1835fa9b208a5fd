// The request-based nonblocking runtime: out-of-order completion across
// tags, deterministic per-(src, tag) matching independent of wait order,
// zero-byte payloads through waitall, typed misuse errors, abandoned
// receives, abort safety with requests still pending, no lost wakeups
// under shuffled post/send/wait orders, and one waiter per mailbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"
#include "simcomm/comm.hpp"
#include "simcomm/fault.hpp"
#include "watchdog.hpp"

namespace sagnn {
namespace {

TEST(Request, OutOfOrderCompletionAcrossTags) {
  // Rank 1 posts receives for tags 7 and 8, then waits them in the
  // opposite order of posting. Each request must still complete with the
  // message of ITS tag — matching is per (src, tag), not per mailbox.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> a{111};
      const std::vector<int> b{222};
      comm.send<int>(1, 7, a, "p2p");
      comm.send<int>(1, 8, b, "p2p");
    } else {
      Request on_tag7 = comm.irecv(0, 7);
      Request on_tag8 = comm.irecv(0, 8);
      const auto b = Comm::payload_as<int>(on_tag8.wait());
      const auto a = Comm::payload_as<int>(on_tag7.wait());
      EXPECT_EQ(a, std::vector<int>{111});
      EXPECT_EQ(b, std::vector<int>{222});
    }
  });
}

TEST(Request, PostOrderDefinesTheStreamNotWaitOrder) {
  // Three sends on one (src, tag) pair; three posted receives waited in
  // reverse. The k-th POSTED receive must get the k-th SENT message.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int k = 0; k < 3; ++k) {
        const std::vector<int> msg{10 * (k + 1)};
        comm.send<int>(1, 5, msg, "p2p");
      }
    } else {
      std::vector<Request> posted;
      for (int k = 0; k < 3; ++k) posted.push_back(comm.irecv(0, 5));
      const auto third = Comm::payload_as<int>(posted[2].wait());
      const auto second = Comm::payload_as<int>(posted[1].wait());
      const auto first = Comm::payload_as<int>(posted[0].wait());
      EXPECT_EQ(first, std::vector<int>{10});
      EXPECT_EQ(second, std::vector<int>{20});
      EXPECT_EQ(third, std::vector<int>{30});
    }
  });
}

TEST(Request, WaitallHandlesZeroBytePayloads) {
  // Empty halos are legal messages; waitall must return empty payloads in
  // request order, mixed freely with non-empty ones.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> empty;
      const std::vector<int> full{42, 43};
      comm.send<int>(1, 3, empty, "p2p");
      comm.send<int>(1, 4, full, "p2p");
      comm.send<int>(1, 6, empty, "p2p");
    } else {
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(0, 3));
      reqs.push_back(comm.irecv(0, 4));
      reqs.push_back(comm.irecv(0, 6));
      WaitStats stats;
      const auto payloads = waitall(reqs, &stats);
      ASSERT_EQ(payloads.size(), 3u);
      EXPECT_TRUE(payloads[0].empty());
      EXPECT_EQ(Comm::payload_as<int>(payloads[1]),
                (std::vector<int>{42, 43}));
      EXPECT_TRUE(payloads[2].empty());
      EXPECT_GE(stats.blocked, 0.0);
      for (const Request& r : reqs) EXPECT_FALSE(r.valid());
    }
  });
}

TEST(Request, DoubleWaitIsATypedError) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> msg{1};
      comm.send<int>(1, 2, msg, "p2p");
    } else {
      Request req = comm.irecv(0, 2);
      (void)req.wait();
      EXPECT_THROW((void)req.wait(), RequestError);
    }
  });
}

TEST(Request, WaitOnEmptyHandleIsATypedError) {
  Request empty;
  EXPECT_THROW((void)empty.wait(), RequestError);
  // A moved-from handle is empty too.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> msg{9};
      comm.send<int>(1, 2, msg, "p2p");
    } else {
      Request req = comm.irecv(0, 2);
      Request stolen = std::move(req);
      EXPECT_THROW((void)req.wait(), RequestError);
      EXPECT_EQ(Comm::payload_as<int>(stolen.wait()), std::vector<int>{9});
    }
  });
}

TEST(Request, AbandonedReceiveDropsItsSlotOnly) {
  // Destroying a pending receive unwaited releases its position in the
  // (src, tag) stream: its matching message is dropped, and the NEXT
  // posted receive still gets the NEXT message — whether the abandon
  // happens before or after the messages arrive.
  run_spmd(2, [](Comm& comm) {
    for (const bool abandon_after_arrival : {false, true}) {
      const long tag = abandon_after_arrival ? 11 : 12;
      if (comm.rank() == 0) {
        comm.barrier();
        const std::vector<int> first{1};
        const std::vector<int> second{2};
        comm.send<int>(1, tag, first, "p2p");
        comm.send<int>(1, tag, second, "p2p");
        comm.barrier();
      } else {
        if (abandon_after_arrival) {
          comm.barrier();  // messages deposited before the abandon
          comm.barrier();
          { Request dropped = comm.irecv(0, tag); }
        } else {
          { Request dropped = comm.irecv(0, tag); }  // abandon first
          comm.barrier();
          comm.barrier();
        }
        EXPECT_EQ(comm.recv<int>(0, tag), std::vector<int>{2});
      }
      comm.barrier();
    }
  });
}

TEST(Request, IalltoallvMatchesBlockingAlltoallv) {
  const int p = 4;
  std::vector<std::vector<std::vector<float>>> blocking(p), nonblocking(p);
  auto bufs_for = [p](int rank) {
    std::vector<std::vector<float>> send(static_cast<std::size_t>(p));
    for (int dst = 0; dst < p; ++dst) {
      for (int i = 0; i <= dst; ++i) {
        send[static_cast<std::size_t>(dst)].push_back(
            static_cast<float>(100 * rank + 10 * dst + i));
      }
    }
    return send;
  };
  run_spmd(p, [&](Comm& comm) {
    blocking[static_cast<std::size_t>(comm.rank())] =
        alltoallv<float>(comm, bufs_for(comm.rank()));
  });
  run_spmd(p, [&](Comm& comm) {
    auto pending = ialltoallv<float>(comm, bufs_for(comm.rank()));
    EXPECT_TRUE(pending.valid());
    nonblocking[static_cast<std::size_t>(comm.rank())] = pending.wait();
    EXPECT_FALSE(pending.valid());
  });
  EXPECT_EQ(blocking, nonblocking);
}

TEST(Request, AbortResolvesPendingWaitsWithoutDeadlock) {
  // Rank 2 throws while every other rank is waiting on requests for
  // messages that will never be sent. The abort must wake them all with
  // AbortedError; a 5 s watchdog turns a regression into a failure
  // instead of a hung suite.
  with_watchdog([] {
    Cluster cluster(4);
    EXPECT_THROW(
        cluster.run([](Comm& comm) {
          if (comm.rank() == 2) throw Error("rank 2 exploded");
          Request never = comm.irecv(2, 13);
          Request also_never = comm.irecv((comm.rank() + 1) % 4, 14);
          EXPECT_THROW((void)never.wait(), AbortedError);
          // Later waits on the aborted world fail the same way — abort is
          // sticky, not a one-shot wakeup.
          EXPECT_THROW((void)also_never.wait(), AbortedError);
        }),
        Error);
  });
}

TEST(Request, WaitallMidBatchAbortResolvesEveryRemainingHandle) {
  // waitall is mid-batch when the world aborts: requests 0-1 have messages
  // already delivered, 2-3 never will. The batch must complete the
  // deliverable prefix, throw AbortedError once, and leave EVERY handle
  // consumed (!valid()) — a half-drained batch would leak (src, tag)
  // stream slots into any later recovery on the same world.
  with_watchdog([] {
    Cluster cluster(2);
    EXPECT_THROW(
        cluster.run([](Comm& comm) {
          if (comm.rank() == 0) {
            const std::vector<int> a{1};
            const std::vector<int> b{2};
            comm.send<int>(1, 11, a, "p2p");
            comm.send<int>(1, 12, b, "p2p");
            // Release rank 1 into its waitall only after both deliverable
            // messages are in its mailbox, then kill the world.
            comm.send<int>(1, 99, a, "p2p");
            throw Error("rank 0 exploded mid-batch");
          }
          std::vector<Request> reqs;
          reqs.push_back(comm.irecv(0, 11));
          reqs.push_back(comm.irecv(0, 12));
          reqs.push_back(comm.irecv(0, 13));  // never sent
          reqs.push_back(comm.irecv(0, 14));  // never sent
          (void)comm.recv<int>(0, 99);
          EXPECT_THROW((void)waitall(reqs), AbortedError);
          for (const Request& r : reqs) {
            EXPECT_FALSE(r.valid()) << "leaked handle after aborted waitall";
          }
        }),
        Error);
  });
}

/// Result of one wakeup_stress() run.
struct StressRun {
  /// Every received payload, rank-major, in each rank's wait order.
  std::vector<int> payloads;
  FaultCounters faults;
};

/// p = 8 ranks, 200 rounds. Every round each rank posts a receive on 3 tags
/// from every peer, sends its own 21 messages in one seeded shuffle, and
/// waits its receives in another. A receiver woken for the wrong slot, or
/// not woken for its own, shows up as a hang or a wrong payload.
StressRun wakeup_stress(std::shared_ptr<const FaultPlan> plan) {
  constexpr int kRanks = 8;
  constexpr int kRounds = 200;
  constexpr int kTags = 3;
  std::vector<std::vector<int>> got(kRanks);
  Cluster cluster(kRanks, std::move(plan));
  cluster.run([&](Comm& comm) {
    const int me = comm.rank();
    std::mt19937 send_rng(101 + static_cast<unsigned>(me));
    std::mt19937 wait_rng(907 + static_cast<unsigned>(me));
    std::vector<std::pair<int, int>> slots;  // (peer, tag)
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == me) continue;
      for (int t = 0; t < kTags; ++t) slots.emplace_back(peer, t);
    }
    std::vector<std::size_t> order(slots.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::vector<int>& out = got[static_cast<std::size_t>(me)];
    for (int round = 0; round < kRounds; ++round) {
      std::vector<Request> recvs;
      for (const auto& [peer, t] : slots) recvs.push_back(comm.irecv(peer, 30 + t));
      std::shuffle(order.begin(), order.end(), send_rng);
      for (std::size_t i : order) {
        const auto [dst, t] = slots[i];
        const std::vector<int> payload{round, me, dst, t};
        comm.send<int>(dst, 30 + t, payload, "p2p");
      }
      std::shuffle(order.begin(), order.end(), wait_rng);
      for (std::size_t i : order) {
        const auto payload = Comm::payload_as<int>(recvs[i].wait());
        const auto [peer, t] = slots[i];
        EXPECT_EQ(payload, (std::vector<int>{round, peer, me, t}))
            << "rank " << me << " round " << round;
        out.insert(out.end(), payload.begin(), payload.end());
      }
    }
  });
  StressRun run;
  for (const auto& rank_payloads : got) {
    run.payloads.insert(run.payloads.end(), rank_payloads.begin(),
                        rank_payloads.end());
  }
  run.faults = cluster.traffic().fault_counters();
  return run;
}

TEST(Request, ShuffledPostSendWaitOrdersLoseNoWakeup) {
  with_watchdog([] {
    const StressRun run = wakeup_stress(nullptr);
    EXPECT_EQ(run.payloads.size(), 8u * 200u * 21u * 4u);
    EXPECT_FALSE(run.faults.any());
  });
}

TEST(Request, ShuffledStressUnderLossyPlanIsDeterministic) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_probability = 0.1;
  spec.duplicate_probability = 0.1;
  spec.max_attempts = 10;
  spec.retry_timeout = 1e-4;
  spec.retry_timeout_cap = 1e-3;
  const auto plan = FaultPlan::make(spec);
  StressRun first;
  StressRun second;
  with_watchdog([&] { first = wakeup_stress(plan); });
  with_watchdog([&] { second = wakeup_stress(plan); });
  EXPECT_GT(first.faults.drops, 0u);
  EXPECT_GT(first.faults.duplicates, 0u);
  EXPECT_EQ(first.faults.retries, first.faults.drops);
  // Drops, retries and duplicates are pure hashes of the message identity;
  // timeouts count host-timed expiries and may differ.
  EXPECT_EQ(first.payloads, second.payloads);
  EXPECT_EQ(first.faults.drops, second.faults.drops);
  EXPECT_EQ(first.faults.retries, second.faults.retries);
  EXPECT_EQ(first.faults.duplicates, second.faults.duplicates);
}

TEST(Request, SecondWaiterOnAMailboxIsATypedError) {
  // A rank is one thread, so one thread blocks on a mailbox at a time. The
  // owner blocks on tag 1; a second thread then blocks on tag 2 of the same
  // mailbox. Whichever of the two reaches the wait second is refused with
  // a typed error — never a silently lost wakeup — and the other completes.
  with_watchdog([] {
    CommWorld world(2);
    std::atomic<int> refused{0};
    std::atomic<int> received{0};
    auto block_on = [&](long tag) {
      try {
        (void)world.recv(1, 0, tag);
        received.fetch_add(1);
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("one waiter per mailbox"),
                  std::string::npos)
            << e.what();
        refused.fetch_add(1);
      }
    };
    std::thread owner(block_on, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::thread intruder(block_on, 2);
    while (refused.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::byte token{0};
    world.send(0, 1, 1, {&token, 1}, "p2p");
    world.send(0, 1, 2, {&token, 1}, "p2p");
    owner.join();
    intruder.join();
    EXPECT_EQ(refused.load(), 1);
    EXPECT_EQ(received.load(), 1);
  });
}

}  // namespace
}  // namespace sagnn
