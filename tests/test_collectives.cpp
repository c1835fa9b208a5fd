// Collective operations validated against naive references across rank
// counts, roots, payload sizes, and element types.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "simcomm/cluster.hpp"
#include "simcomm/collectives.hpp"

namespace sagnn {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BcastAllRoots) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(17);
      if (comm.rank() == root) {
        std::iota(data.begin(), data.end(), root * 1000);
      }
      bcast<int>(comm, root, data);
      for (int i = 0; i < 17; ++i) {
        EXPECT_EQ(data[static_cast<std::size_t>(i)], root * 1000 + i);
      }
    }
  });
}

TEST_P(CollectivesP, AllreduceSumMatchesFormula) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    // Size chosen to exercise uneven ring chunks (not divisible by p).
    std::vector<double> data(23);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = comm.rank() + static_cast<double>(i) * 0.5;
    }
    allreduce_sum<double>(comm, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double expected = p * (p - 1) / 2.0 + p * (static_cast<double>(i) * 0.5);
      EXPECT_NEAR(data[i], expected, 1e-9);
    }
  });
}

TEST_P(CollectivesP, AllreduceIdenticalAcrossRanks) {
  // Ring all-reduce must produce bit-identical results on every rank —
  // the property that keeps replicated GCN weights in sync.
  const int p = GetParam();
  std::vector<std::vector<real_t>> results(static_cast<std::size_t>(p));
  run_spmd(p, [&](Comm& comm) {
    Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
    std::vector<real_t> data(101);
    for (auto& x : data) x = rng.uniform(-1, 1);
    allreduce_sum<real_t>(comm, data);
    results[static_cast<std::size_t>(comm.rank())] = data;
  });
  for (int r = 1; r < p; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
  }
}

TEST_P(CollectivesP, AllgathervVariableSizes) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    // Rank r contributes r+1 elements [r, r, ...].
    std::vector<int> mine(static_cast<std::size_t>(comm.rank()) + 1, comm.rank());
    const auto all = allgatherv<int>(comm, mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r) + 1);
      for (int x : all[static_cast<std::size_t>(r)]) EXPECT_EQ(x, r);
    }
  });
}

TEST_P(CollectivesP, AlltoallvExchangesCorrectBlocks) {
  const int p = GetParam();
  run_spmd(p, [p](Comm& comm) {
    // Send to d a block [rank*100+d] repeated (d+1) times.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)].assign(static_cast<std::size_t>(d) + 1,
                                               comm.rank() * 100 + d);
    }
    const auto recv = alltoallv<int>(comm, send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(),
                static_cast<std::size_t>(comm.rank()) + 1);
      for (int x : recv[static_cast<std::size_t>(s)]) {
        EXPECT_EQ(x, s * 100 + comm.rank());
      }
    }
  });
}

TEST_P(CollectivesP, BackToBackCollectivesDoNotCrossMatch) {
  const int p = GetParam();
  run_spmd(p, [](Comm& comm) {
    for (int iter = 0; iter < 5; ++iter) {
      std::vector<int> b{comm.rank() == 0 ? iter : -1};
      bcast<int>(comm, 0, b);
      EXPECT_EQ(b[0], iter);
      std::vector<int> a{1};
      allreduce_sum<int>(comm, a);
      EXPECT_EQ(a[0], comm.size());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Collectives, BcastRecordsTreeTraffic) {
  // Binomial tree: total transferred bytes = (p-1) * payload.
  auto traffic = run_spmd(8, [](Comm& comm) {
    std::vector<std::uint8_t> data(100);
    bcast<std::uint8_t>(comm, 0, data, "bcast");
  });
  EXPECT_EQ(traffic.phase("bcast").total_bytes(), 700u);
}

TEST(Collectives, AlltoallvTrafficExcludesSelf) {
  auto traffic = run_spmd(4, [](Comm& comm) {
    std::vector<std::vector<std::uint8_t>> send(4);
    for (int d = 0; d < 4; ++d) send[static_cast<std::size_t>(d)].assign(10, 0);
    alltoallv<std::uint8_t>(comm, send, "alltoall");
  });
  // 4 ranks x 3 remote destinations x 10 bytes.
  EXPECT_EQ(traffic.phase("alltoall").total_bytes(), 120u);
}

}  // namespace
}  // namespace sagnn
