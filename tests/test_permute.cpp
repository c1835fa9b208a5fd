// Symmetric permutation tests: element preservation, round trips, and the
// dense/label counterparts used when redistributing training data.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sparse/permute.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

std::vector<vid_t> random_perm(vid_t n, Rng& rng) {
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

TEST(Permute, InvertPermutation) {
  std::vector<vid_t> perm{2, 0, 1};
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<vid_t>{1, 2, 0}));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<vid_t>(i));
  }
}

TEST(Permute, IsPermutationDetectsInvalid) {
  EXPECT_TRUE(is_permutation(std::vector<vid_t>{1, 0, 2}));
  EXPECT_FALSE(is_permutation(std::vector<vid_t>{0, 0, 2}));
  EXPECT_FALSE(is_permutation(std::vector<vid_t>{0, 3, 1}));
  EXPECT_FALSE(is_permutation(std::vector<vid_t>{-1, 0, 1}));
}

TEST(Permute, SymmetricPermutationMovesElements) {
  Rng rng(3);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(30, 120, rng));
  const auto perm = random_perm(30, rng);
  const CsrMatrix b = permute_symmetric(a, perm);
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    for (vid_t c : a.row_cols(r)) {
      EXPECT_FLOAT_EQ(b.at(perm[static_cast<std::size_t>(r)],
                           perm[static_cast<std::size_t>(c)]),
                      a.at(r, c));
    }
  }
  EXPECT_EQ(a.nnz(), b.nnz());
}

TEST(Permute, IdentityPermutationIsNoop) {
  Rng rng(4);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(20, 60, rng));
  std::vector<vid_t> id(20);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_EQ(permute_symmetric(a, id), a);
}

TEST(Permute, RoundTripRestoresMatrix) {
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(40, 200, rng));
  const auto perm = random_perm(40, rng);
  const auto inv = invert_permutation(perm);
  EXPECT_EQ(permute_symmetric(permute_symmetric(a, perm), inv), a);
}

TEST(Permute, PreservesSymmetry) {
  Rng rng(6);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(25, 100, rng));
  const auto perm = random_perm(25, rng);
  const CsrMatrix b = permute_symmetric(a, perm);
  EXPECT_EQ(b, b.transpose());
}

TEST(Permute, DenseRowsFollowPermutation) {
  Rng rng(7);
  const Matrix h = Matrix::random_uniform(10, 3, rng);
  const auto perm = random_perm(10, rng);
  const Matrix hp = permute_rows(h, perm);
  for (vid_t r = 0; r < 10; ++r) {
    for (vid_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(hp(perm[static_cast<std::size_t>(r)], c), h(r, c));
    }
  }
}

TEST(Permute, LabelsFollowPermutation) {
  std::vector<vid_t> labels{10, 20, 30};
  std::vector<vid_t> perm{2, 0, 1};
  const auto out = permute_labels(labels, perm);
  EXPECT_EQ(out, (std::vector<vid_t>{20, 30, 10}));
}

TEST(Permute, SpmmCommutesWithPermutation) {
  // (P A P^T)(P H) == P (A H): permuting the system does not change the
  // math — the foundation of the partitioning approach.
  Rng rng(8);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(32, 150, rng));
  const Matrix h = Matrix::random_uniform(32, 4, rng);
  const auto perm = random_perm(32, rng);

  const Matrix lhs = spmm(permute_symmetric(a, perm), permute_rows(h, perm));
  const Matrix rhs = permute_rows(spmm(a, h), perm);
  EXPECT_LT(lhs.max_abs_diff(rhs), 1e-5);
}

}  // namespace
}  // namespace sagnn
