#include "sparse/permute.hpp"

#include <algorithm>
#include <numeric>

namespace sagnn {

std::vector<vid_t> invert_permutation(std::span<const vid_t> perm) {
  std::vector<vid_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<vid_t>(i);
  }
  return inv;
}

bool is_permutation(std::span<const vid_t> perm) {
  std::vector<bool> seen(perm.size(), false);
  for (vid_t p : perm) {
    if (p < 0 || static_cast<std::size_t>(p) >= perm.size()) return false;
    if (seen[static_cast<std::size_t>(p)]) return false;
    seen[static_cast<std::size_t>(p)] = true;
  }
  return true;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const vid_t> perm) {
  SAGNN_REQUIRE(a.n_rows() == a.n_cols(),
                "symmetric permutation requires square matrix");
  SAGNN_REQUIRE(perm.size() == static_cast<std::size_t>(a.n_rows()),
                "permutation size mismatch");
  const vid_t n = a.n_rows();
  const auto inv = invert_permutation(perm);

  // Row r of the result is old row inv[r]; remap and sort its columns.
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t r = 0; r < n; ++r) {
    row_ptr[r + 1] = row_ptr[r] + a.row_nnz(inv[static_cast<std::size_t>(r)]);
  }
  std::vector<vid_t> col_idx(static_cast<std::size_t>(a.nnz()));
  std::vector<real_t> vals(static_cast<std::size_t>(a.nnz()));
  std::vector<std::pair<vid_t, real_t>> scratch;
  for (vid_t r = 0; r < n; ++r) {
    const vid_t old_r = inv[static_cast<std::size_t>(r)];
    const auto cols = a.row_cols(old_r);
    const auto vs = a.row_vals(old_r);
    scratch.clear();
    scratch.reserve(cols.size());
    for (std::size_t k = 0; k < cols.size(); ++k) {
      scratch.emplace_back(perm[static_cast<std::size_t>(cols[k])], vs[k]);
    }
    std::sort(scratch.begin(), scratch.end());
    eid_t out = row_ptr[r];
    for (const auto& [c, v] : scratch) {
      col_idx[static_cast<std::size_t>(out)] = c;
      vals[static_cast<std::size_t>(out)] = v;
      ++out;
    }
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(vals));
}

Matrix permute_rows(const Matrix& a, std::span<const vid_t> perm) {
  SAGNN_REQUIRE(perm.size() == static_cast<std::size_t>(a.n_rows()),
                "permutation size mismatch");
  Matrix out(a.n_rows(), a.n_cols());
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    std::copy(a.row(r), a.row(r) + a.n_cols(),
              out.row(perm[static_cast<std::size_t>(r)]));
  }
  return out;
}

std::vector<vid_t> permute_labels(std::span<const vid_t> labels,
                                  std::span<const vid_t> perm) {
  SAGNN_REQUIRE(labels.size() == perm.size(), "labels/permutation size mismatch");
  std::vector<vid_t> out(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[static_cast<std::size_t>(perm[i])] = labels[i];
  }
  return out;
}

}  // namespace sagnn
