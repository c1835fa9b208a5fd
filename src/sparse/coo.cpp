#include "sparse/coo.hpp"

#include <algorithm>

namespace sagnn {

void CooMatrix::add(vid_t row, vid_t col, real_t val) {
  SAGNN_REQUIRE(row >= 0 && row < n_rows_, "COO row index out of range");
  SAGNN_REQUIRE(col >= 0 && col < n_cols_, "COO col index out of range");
  entries_.push_back({row, col, val});
}

void CooMatrix::coalesce() {
  std::sort(entries_.begin(), entries_.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].row == entries_[i].row &&
        entries_[out - 1].col == entries_[i].col) {
      entries_[out - 1].val += entries_[i].val;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);
}

void CooMatrix::symmetrize() {
  SAGNN_REQUIRE(n_rows_ == n_cols_, "symmetrize requires a square matrix");
  const std::size_t original = entries_.size();
  entries_.reserve(2 * original);
  for (std::size_t i = 0; i < original; ++i) {
    const CooEntry e = entries_[i];
    if (e.row != e.col) entries_.push_back({e.col, e.row, e.val});
  }
  coalesce();
}

void CooMatrix::drop_diagonal() {
  std::erase_if(entries_, [](const CooEntry& e) { return e.row == e.col; });
}

void CooMatrix::add_identity(real_t val) {
  SAGNN_REQUIRE(n_rows_ == n_cols_, "add_identity requires a square matrix");
  entries_.reserve(entries_.size() + static_cast<std::size_t>(n_rows_));
  for (vid_t i = 0; i < n_rows_; ++i) entries_.push_back({i, i, val});
  coalesce();
}

bool CooMatrix::is_symmetric() const {
  if (n_rows_ != n_cols_) return false;
  auto sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  auto find = [&](vid_t r, vid_t c) -> const CooEntry* {
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), std::pair{r, c},
        [](const CooEntry& e, const std::pair<vid_t, vid_t>& key) {
          return e.row != key.first ? e.row < key.first : e.col < key.second;
        });
    if (it == sorted.end() || it->row != r || it->col != c) return nullptr;
    return &*it;
  };
  for (const auto& e : sorted) {
    const CooEntry* t = find(e.col, e.row);
    if (t == nullptr || t->val != e.val) return false;
  }
  return true;
}

}  // namespace sagnn
