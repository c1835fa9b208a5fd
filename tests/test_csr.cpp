// CSR invariants, conversion, transpose, element access, GCN normalization.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sparse/csr.hpp"

namespace sagnn {
namespace {

CooMatrix small_coo() {
  CooMatrix coo(3, 4);
  coo.add(0, 0, 1.0f);
  coo.add(0, 2, 2.0f);
  coo.add(1, 1, 3.0f);
  coo.add(2, 3, 4.0f);
  return coo;
}

TEST(Csr, FromCooShape) {
  const CsrMatrix a = CsrMatrix::from_coo(small_coo());
  EXPECT_EQ(a.n_rows(), 3);
  EXPECT_EQ(a.n_cols(), 4);
  EXPECT_EQ(a.nnz(), 4);
  a.validate();
}

TEST(Csr, FromCooSumsDuplicates) {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0f);
  coo.add(0, 0, 2.0f);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(a.nnz(), 1);
  EXPECT_FLOAT_EQ(a.at(0, 0), 3.0f);
}

TEST(Csr, AtReturnsZeroForAbsent) {
  const CsrMatrix a = CsrMatrix::from_coo(small_coo());
  EXPECT_FLOAT_EQ(a.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(a.at(0, 2), 2.0f);
  EXPECT_THROW(a.at(3, 0), Error);
}

TEST(Csr, ZerosIsEmpty) {
  const CsrMatrix a = CsrMatrix::zeros(5, 7);
  EXPECT_EQ(a.nnz(), 0);
  EXPECT_EQ(a.n_rows(), 5);
  a.validate();
}

TEST(Csr, RowAccessors) {
  const CsrMatrix a = CsrMatrix::from_coo(small_coo());
  EXPECT_EQ(a.row_nnz(0), 2);
  EXPECT_EQ(a.row_cols(0)[1], 2);
  EXPECT_FLOAT_EQ(a.row_vals(1)[0], 3.0f);
}

TEST(Csr, TransposeRoundTrip) {
  Rng rng(5);
  const CsrMatrix a = CsrMatrix::from_coo(erdos_renyi(50, 400, rng));
  const CsrMatrix att = a.transpose().transpose();
  EXPECT_EQ(a, att);
}

TEST(Csr, TransposeElementwise) {
  const CsrMatrix a = CsrMatrix::from_coo(small_coo());
  const CsrMatrix t = a.transpose();
  EXPECT_EQ(t.n_rows(), 4);
  EXPECT_EQ(t.n_cols(), 3);
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    for (vid_t c = 0; c < a.n_cols(); ++c) {
      EXPECT_FLOAT_EQ(a.at(r, c), t.at(c, r));
    }
  }
}

TEST(Csr, SymmetricGraphEqualsItsTranspose) {
  Rng rng(6);
  CooMatrix coo = erdos_renyi(64, 500, rng);
  const CsrMatrix a = CsrMatrix::from_coo(coo);
  EXPECT_EQ(a, a.transpose());
}

TEST(Csr, NormalizeSymmetricRowSumsOfRegularGraph) {
  // For a k-regular graph with self loops, Â rows sum to 1 exactly when all
  // degrees are equal.
  CooMatrix ring(4, 4);
  for (vid_t v = 0; v < 4; ++v) {
    ring.add(v, (v + 1) % 4, 1.0f);
    ring.add(v, (v + 3) % 4, 1.0f);
    ring.add(v, v, 1.0f);
  }
  CsrMatrix a = CsrMatrix::from_coo(ring);
  a.normalize_symmetric();
  for (vid_t v = 0; v < 4; ++v) {
    real_t sum = 0;
    for (real_t x : a.row_vals(v)) sum += x;
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(Csr, NormalizePreservesSymmetry) {
  Rng rng(7);
  CooMatrix coo = erdos_renyi(40, 200, rng);
  coo.add_identity();
  CsrMatrix a = CsrMatrix::from_coo(coo);
  a.normalize_symmetric();
  const CsrMatrix t = a.transpose();
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    auto av = a.row_vals(r);
    auto tv = t.row_vals(r);
    ASSERT_EQ(av.size(), tv.size());
    for (std::size_t i = 0; i < av.size(); ++i) EXPECT_NEAR(av[i], tv[i], 1e-7f);
  }
}

TEST(Csr, ValidateRejectsBadColumnOrder) {
  std::vector<eid_t> ptr{0, 2};
  std::vector<vid_t> col{1, 0};  // decreasing
  std::vector<real_t> val{1, 1};
  EXPECT_THROW(CsrMatrix(1, 2, ptr, col, val), Error);
}

TEST(Csr, ValidateRejectsOutOfRangeColumn) {
  std::vector<eid_t> ptr{0, 1};
  std::vector<vid_t> col{5};
  std::vector<real_t> val{1};
  EXPECT_THROW(CsrMatrix(1, 2, ptr, col, val), Error);
}

TEST(Csr, ValidateRejectsBadRowPtr) {
  std::vector<eid_t> ptr{0, 2, 1};
  std::vector<vid_t> col{0, 1};
  std::vector<real_t> val{1, 1};
  EXPECT_THROW(CsrMatrix(2, 2, ptr, col, val), Error);
}

TEST(Csr, RenumberColsKeepsRowsSortedOrThrowsUnchanged) {
  CooMatrix coo(2, 4);
  coo.add(0, 1, 1.0f);
  coo.add(0, 3, 2.0f);
  coo.add(1, 2, 3.0f);
  CsrMatrix a = CsrMatrix::from_coo(coo);
  const CsrMatrix before = a;
  // Row 0 would read 1, 0; id 2 lies outside [0, 2); one id per column.
  EXPECT_THROW(a.renumber_cols(std::vector<vid_t>{0, 1, 2, 0}, 3), Error);
  EXPECT_THROW(a.renumber_cols(std::vector<vid_t>{0, 0, 1, 2}, 2), Error);
  EXPECT_THROW(a.renumber_cols(std::vector<vid_t>{0, 1, 2}, 3), Error);
  EXPECT_TRUE(a == before);
  a.renumber_cols(std::vector<vid_t>{-1, 0, 1, 2}, 3);
  EXPECT_EQ(a.n_cols(), 3);
  EXPECT_FLOAT_EQ(a.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(a.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 3.0f);
  a.validate();
}

}  // namespace
}  // namespace sagnn
