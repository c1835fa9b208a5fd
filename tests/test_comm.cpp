// Simulated message-passing runtime: point-to-point matching, barriers,
// splits, abort propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"

namespace sagnn {
namespace {

TEST(Comm, PingPong) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> payload{1, 2, 3};
      comm.send<int>(1, 7, payload, "p2p");
      const auto back = comm.recv<int>(1, 8);
      EXPECT_EQ(back, (std::vector<int>{6}));
    } else {
      const auto got = comm.recv<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
      std::vector<int> reply{6};
      comm.send<int>(0, 8, reply, "p2p");
    }
  });
}

TEST(Comm, TagMatchingIsSelective) {
  // Messages sent with different tags must be received in tag order
  // requested by the receiver, not arrival order.
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> a{1}, b{2};
      comm.send<int>(1, 100, a, "p2p");
      comm.send<int>(1, 200, b, "p2p");
    } else {
      EXPECT_EQ(comm.recv<int>(0, 200)[0], 2);
      EXPECT_EQ(comm.recv<int>(0, 100)[0], 1);
    }
  });
}

TEST(Comm, FifoPerSourceAndTag) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v{i};
        comm.send<int>(1, 5, v, "p2p");
      }
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv<int>(0, 5)[0], i);
    }
  });
}

TEST(Comm, SelfSendWorks) {
  run_spmd(1, [](Comm& comm) {
    std::vector<double> v{3.14};
    comm.send<double>(0, 1, v, "p2p");
    EXPECT_DOUBLE_EQ(comm.recv<double>(0, 1)[0], 3.14);
  });
}

TEST(Comm, EmptyPayload) {
  run_spmd(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, std::vector<int>{}, "p2p");
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 1).empty());
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  run_spmd(8, [&](Comm& comm) {
    before.fetch_add(1);
    comm.barrier();
    if (before.load() != 8) violated.store(true);
    comm.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(Comm, RepeatedBarriersDoNotCrossMatch) {
  run_spmd(5, [](Comm& comm) {
    for (int i = 0; i < 20; ++i) comm.barrier();
  });
}

TEST(Comm, SplitByParity) {
  run_spmd(6, [](Comm& comm) {
    Comm sub = comm.split([](int r) { return r % 2; });
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() / 2);
    // World rank mapping preserved in order.
    EXPECT_EQ(sub.world_rank(sub.rank()), comm.rank());
    // Communication within the sub-communicator.
    std::vector<int> v{comm.rank()};
    sub.send<int>((sub.rank() + 1) % 3, 3, v, "p2p");
    const auto got = sub.recv<int>((sub.rank() + 2) % 3, 3);
    EXPECT_EQ(got[0] % 2, comm.rank() % 2);
  });
}

TEST(Comm, NestedSplits) {
  run_spmd(8, [](Comm& comm) {
    Comm half = comm.split([](int r) { return r / 4; });
    Comm quarter = half.split([](int r) { return r / 2; });
    EXPECT_EQ(quarter.size(), 2);
    quarter.barrier();
    half.barrier();
    comm.barrier();
  });
}

TEST(Comm, FiveDeepSplitsWrapIdsAndStillAllreduce) {
  // Child communicator ids multiply by ~1e6 per level, so the fourth
  // nested split leaves the range of a signed 64-bit id. Ids are unsigned
  // and wrap; the innermost communicator must still work. Four parity
  // splits take 32 ranks to pairs {x, x + 16}; the fifth keeps the pair.
  run_spmd(32, [](Comm& comm) {
    Comm sub = comm;
    for (int level = 0; level < 4; ++level) {
      sub = sub.split([](int r) { return r % 2; });
    }
    // split() is const, so it must also work on a const parent.
    const Comm parent = sub;
    Comm inner = parent.split([](int) { return 0; });
    ASSERT_EQ(inner.size(), 2);
    std::vector<int> v{comm.rank()};
    allreduce_sum<int>(inner, v);
    EXPECT_EQ(v[0], 2 * (comm.rank() % 16) + 16);
    inner.barrier();
  });
}

TEST(Comm, ConcurrentSiblingCommsDoNotCrossTalk) {
  // Two different splits from the same parent used simultaneously: tags are
  // namespaced per communicator id so messages must not cross-match.
  run_spmd(4, [](Comm& comm) {
    Comm rows = comm.split([](int r) { return r / 2; });  // {0,1} {2,3}
    Comm cols = comm.split([](int r) { return r % 2; });  // {0,2} {1,3}
    std::vector<int> row_msg{100 + comm.rank()};
    std::vector<int> col_msg{200 + comm.rank()};
    rows.send<int>(1 - rows.rank(), 9, row_msg, "p2p");
    cols.send<int>(1 - cols.rank(), 9, col_msg, "p2p");
    const auto from_row = rows.recv<int>(1 - rows.rank(), 9);
    const auto from_col = cols.recv<int>(1 - cols.rank(), 9);
    EXPECT_GE(from_row[0], 100);
    EXPECT_LT(from_row[0], 200);
    EXPECT_GE(from_col[0], 200);
  });
}

TEST(Comm, RankExceptionPropagatesWithoutDeadlock) {
  Cluster cluster(4);
  EXPECT_THROW(
      cluster.run([](Comm& comm) {
        if (comm.rank() == 2) throw Error("rank 2 exploded");
        // Other ranks block forever on a message that never comes; the
        // abort machinery must wake them.
        (void)comm.recv<int>((comm.rank() + 1) % 4, 1);
      }),
      Error);
}

TEST(Comm, WorldSizeAndRanks) {
  std::atomic<int> sum{0};
  run_spmd(7, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), 7);
    sum.fetch_add(comm.rank());
  });
  EXPECT_EQ(sum.load(), 21);
}

}  // namespace
}  // namespace sagnn
