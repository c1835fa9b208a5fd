#include "graph/generators.hpp"

#include <algorithm>
#include <numeric>

#include "sparse/csr.hpp"

namespace sagnn {

namespace {

/// Uniform random permutation of [0, n) (Fisher-Yates, n - 1 draws).
std::vector<vid_t> random_permutation(vid_t n, Rng& rng) {
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (vid_t i = n - 1; i > 0; --i) {
    const auto j =
        static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

/// Apply a random relabeling to all entries of a COO (in place); returns
/// the permutation used (perm[old] = new).
std::vector<vid_t> scramble(CooMatrix& coo, Rng& rng) {
  std::vector<vid_t> perm = random_permutation(coo.n_rows(), rng);
  for (auto& e : coo.entries()) {
    e.row = perm[static_cast<std::size_t>(e.row)];
    e.col = perm[static_cast<std::size_t>(e.col)];
  }
  return perm;
}

void finalize_simple_symmetric(CooMatrix& coo) {
  coo.drop_diagonal();
  // Set all values to 1 before coalescing so duplicate edges collapse to
  // weight-1 edges rather than accumulating counts.
  for (auto& e : coo.entries()) e.val = real_t{1};
  coo.coalesce();
  // coalesce sums duplicates; reset to unit weights.
  for (auto& e : coo.entries()) e.val = real_t{1};
  coo.symmetrize();
  for (auto& e : coo.entries()) e.val = real_t{1};
}

/// One R-MAT quadrant descent: `scale` next_double draws, each choosing
/// the quadrant of one bit of (row, col).
void rmat_edge(int scale, const RmatParams& params, Rng& rng, vid_t& row, vid_t& col) {
  const double ab = params.a + params.b;
  const double abc = ab + params.c;
  row = 0;
  col = 0;
  for (int bit = scale - 1; bit >= 0; --bit) {
    const double r = rng.next_double();
    if (r < params.a) {
      // top-left quadrant
    } else if (r < ab) {
      col |= vid_t{1} << bit;
    } else if (r < abc) {
      row |= vid_t{1} << bit;
    } else {
      row |= vid_t{1} << bit;
      col |= vid_t{1} << bit;
    }
  }
}

/// Edge count of an R-MAT graph, after validating its parameters.
eid_t rmat_edge_count(int scale, int edge_factor, const RmatParams& params) {
  SAGNN_REQUIRE(scale >= 1 && scale < 31, "rmat scale out of range");
  SAGNN_REQUIRE(edge_factor >= 1, "edge_factor must be positive");
  SAGNN_REQUIRE(params.a + params.b + params.c < 1.0,
                "rmat probabilities must sum below 1");
  return static_cast<eid_t>(vid_t{1} << scale) * edge_factor;
}

/// The symmetric, deduplicated, unit-weight CSR of the `m` endpoint pairs
/// `draw_edge(row, col)` streams from `rng` (self-loops dropped), built
/// without a COO: pass 1 counts each vertex's arcs, pass 2 replays the
/// identical stream from an RNG snapshot and scatters both arc directions
/// into their rows, then each row is sorted and deduplicated in place.
/// The result equals CsrMatrix::from_coo of the COO generators' output,
/// including the scramble permutation, which is drawn after the edge
/// stream exactly as scramble() draws it; the RNG ends where the COO path
/// leaves it.
template <typename DrawEdge>
CsrMatrix streamed_symmetric_csr(vid_t n, eid_t m, bool scramble_ids, Rng& rng,
                                 DrawEdge draw_edge) {
  // Pass 1: per-vertex arc counts (both directions, duplicates included —
  // dedup happens in place after the fill).
  const auto edge_state = rng.save_state();
  std::vector<eid_t> count(static_cast<std::size_t>(n), 0);
  for (eid_t k = 0; k < m; ++k) {
    vid_t row, col;
    draw_edge(row, col);
    if (row != col) {
      ++count[static_cast<std::size_t>(row)];
      ++count[static_cast<std::size_t>(col)];
    }
  }

  // The RNG now stands where the COO path draws its scramble permutation.
  // A bijection maps degrees with it: remap the counts instead of
  // recounting.
  std::vector<vid_t> perm;
  if (scramble_ids) perm = random_permutation(n, rng);
  const auto final_state = rng.save_state();
  const auto id = [&](vid_t v) {
    return scramble_ids ? perm[static_cast<std::size_t>(v)] : v;
  };

  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t v = 0; v < n; ++v) {
    row_ptr[static_cast<std::size_t>(id(v)) + 1] = count[static_cast<std::size_t>(v)];
  }
  for (vid_t v = 0; v < n; ++v) {
    row_ptr[static_cast<std::size_t>(v) + 1] += row_ptr[static_cast<std::size_t>(v)];
  }
  count.clear();
  count.shrink_to_fit();

  // Pass 2: replay the edge stream and scatter both arc directions straight
  // into their rows.
  std::vector<vid_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<eid_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  rng.load_state(edge_state);
  for (eid_t k = 0; k < m; ++k) {
    vid_t row, col;
    draw_edge(row, col);
    if (row != col) {
      const vid_t u = id(row);
      const vid_t v = id(col);
      col_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
      col_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
    }
  }
  rng.load_state(final_state);

  // Sort + dedup each row in place, compacting as we go. The write cursor
  // never passes the read cursor (dedup only shrinks rows), so no extra
  // buffer is needed.
  eid_t write = 0;
  eid_t row_begin = 0;
  for (vid_t r = 0; r < n; ++r) {
    const eid_t row_end = row_ptr[static_cast<std::size_t>(r) + 1];
    auto* first = col_idx.data() + row_begin;
    auto* last = col_idx.data() + row_end;
    std::sort(first, last);
    last = std::unique(first, last);
    for (auto* p = first; p != last; ++p) {
      col_idx[static_cast<std::size_t>(write++)] = *p;
    }
    row_begin = row_end;
    row_ptr[static_cast<std::size_t>(r) + 1] = write;
  }
  col_idx.resize(static_cast<std::size_t>(write));
  col_idx.shrink_to_fit();
  std::vector<real_t> vals(static_cast<std::size_t>(write), real_t{1});
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(vals));
}

}  // namespace

CooMatrix erdos_renyi(vid_t n, eid_t m, Rng& rng) {
  SAGNN_REQUIRE(n > 1, "need at least 2 vertices");
  CooMatrix coo(n, n);
  for (eid_t k = 0; k < m; ++k) {
    const auto u = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) coo.add(u, v, real_t{1});
  }
  finalize_simple_symmetric(coo);
  return coo;
}

CooMatrix rmat(int scale, int edge_factor, Rng& rng, RmatParams params) {
  const eid_t m = rmat_edge_count(scale, edge_factor, params);
  const vid_t n = vid_t{1} << scale;
  CooMatrix coo(n, n);
  for (eid_t k = 0; k < m; ++k) {
    vid_t row = 0, col = 0;
    rmat_edge(scale, params, rng, row, col);
    if (row != col) coo.add(row, col, real_t{1});
  }
  if (params.scramble_ids) scramble(coo, rng);
  finalize_simple_symmetric(coo);
  return coo;
}

CsrMatrix rmat_csr(int scale, int edge_factor, Rng& rng, RmatParams params) {
  const eid_t m = rmat_edge_count(scale, edge_factor, params);
  const auto draw_edge = [&](vid_t& row, vid_t& col) {
    rmat_edge(scale, params, rng, row, col);
  };
  return streamed_symmetric_csr(vid_t{1} << scale, m, params.scramble_ids, rng,
                                draw_edge);
}

CsrMatrix powerlaw_csr(vid_t n, int avg_degree, double exponent, Rng& rng,
                       bool scramble_ids) {
  SAGNN_REQUIRE(n > 1, "need at least 2 vertices");
  SAGNN_REQUIRE(avg_degree >= 1, "avg_degree must be positive");
  SAGNN_REQUIRE(exponent >= 0.0, "exponent must be >= 0");
  const eid_t m = static_cast<eid_t>(n) * avg_degree / 2;
  // The inverse-CDF table is a pure function of (exponent, n): building it
  // consumes no RNG draws. Each endpoint pair costs exactly two
  // next_double draws (ZipfSampler documents one uniform per sample).
  const ZipfSampler zipf(exponent, static_cast<std::uint64_t>(n));
  const auto draw_edge = [&](vid_t& row, vid_t& col) {
    row = static_cast<vid_t>(zipf.sample(rng));
    col = static_cast<vid_t>(zipf.sample(rng));
  };
  return streamed_symmetric_csr(n, m, scramble_ids, rng, draw_edge);
}

CooMatrix clustered_graph(vid_t n, vid_t cluster_size, int intra_degree,
                          double inter_fraction, Rng& rng, bool scramble_ids,
                          std::vector<vid_t>* cluster_of) {
  SAGNN_REQUIRE(cluster_size > 1 && n >= cluster_size, "bad cluster size");
  SAGNN_REQUIRE(inter_fraction >= 0.0 && inter_fraction <= 1.0,
                "inter_fraction must be a probability");
  const vid_t n_clusters = ceil_div(n, cluster_size);
  CooMatrix coo(n, n);
  for (vid_t v = 0; v < n; ++v) {
    const vid_t cl = v / cluster_size;
    const vid_t cl_begin = cl * cluster_size;
    const vid_t cl_end = std::min(n, cl_begin + cluster_size);
    const vid_t cl_sz = cl_end - cl_begin;
    for (int d = 0; d < intra_degree; ++d) {
      const auto u = cl_begin + static_cast<vid_t>(
          rng.next_below(static_cast<std::uint64_t>(cl_sz)));
      if (u != v) coo.add(v, u, real_t{1});
    }
    if (n_clusters > 1 && rng.bernoulli(inter_fraction)) {
      // One edge to a vertex in the next cluster on the ring.
      const vid_t ncl = (cl + 1) % n_clusters;
      const vid_t ncl_begin = ncl * cluster_size;
      const vid_t ncl_end = std::min(n, ncl_begin + cluster_size);
      if (ncl_end > ncl_begin) {
        const auto u = ncl_begin + static_cast<vid_t>(rng.next_below(
            static_cast<std::uint64_t>(ncl_end - ncl_begin)));
        if (u != v) coo.add(v, u, real_t{1});
      }
    }
  }
  std::vector<vid_t> perm;
  if (scramble_ids) perm = scramble(coo, rng);
  if (cluster_of != nullptr) {
    cluster_of->assign(static_cast<std::size_t>(n), 0);
    for (vid_t v = 0; v < n; ++v) {
      const vid_t new_id = scramble_ids ? perm[static_cast<std::size_t>(v)] : v;
      (*cluster_of)[static_cast<std::size_t>(new_id)] = v / cluster_size;
    }
  }
  finalize_simple_symmetric(coo);
  return coo;
}

CooMatrix hybrid_community_graph(vid_t n, vid_t cluster_size, int intra_degree,
                                 int overlay_edge_factor, Rng& rng,
                                 bool scramble_ids,
                                 std::vector<vid_t>* cluster_of) {
  SAGNN_REQUIRE(cluster_size > 1 && n >= cluster_size, "bad cluster size");
  SAGNN_REQUIRE(overlay_edge_factor >= 0, "overlay factor must be >= 0");
  CooMatrix coo(n, n);

  // Clustered base: strong intra-cluster connectivity in natural order.
  for (vid_t v = 0; v < n; ++v) {
    const vid_t cl = v / cluster_size;
    const vid_t cl_begin = cl * cluster_size;
    const vid_t cl_end = std::min(n, cl_begin + cluster_size);
    const vid_t cl_sz = cl_end - cl_begin;
    for (int d = 0; d < intra_degree; ++d) {
      const auto u = cl_begin + static_cast<vid_t>(
          rng.next_below(static_cast<std::uint64_t>(cl_sz)));
      if (u != v) coo.add(v, u, real_t{1});
    }
  }

  // Skewed overlay: R-MAT endpoint pairs over the same id space. Bits
  // beyond n are masked by rejection. Skew above the Graph500 defaults:
  // co-purchase / citation hubs are extreme, and the hub rows are exactly
  // what drives the max-send-volume imbalance (Table 2).
  int scale = 0;
  while ((vid_t{1} << scale) < n) ++scale;
  const eid_t overlay = static_cast<eid_t>(n) * overlay_edge_factor;
  RmatParams params;
  params.a = 0.65;
  params.b = 0.15;
  params.c = 0.15;
  for (eid_t k = 0; k < overlay; ++k) {
    vid_t row = 0, col = 0;
    rmat_edge(scale, params, rng, row, col);
    if (row < n && col < n && row != col) coo.add(row, col, real_t{1});
  }

  std::vector<vid_t> perm;
  if (scramble_ids) perm = scramble(coo, rng);
  if (cluster_of != nullptr) {
    cluster_of->assign(static_cast<std::size_t>(n), 0);
    for (vid_t v = 0; v < n; ++v) {
      const vid_t new_id = scramble_ids ? perm[static_cast<std::size_t>(v)] : v;
      (*cluster_of)[static_cast<std::size_t>(new_id)] = v / cluster_size;
    }
  }
  finalize_simple_symmetric(coo);
  return coo;
}

CooMatrix ring_of_cliques(int k, int s) {
  SAGNN_REQUIRE(k >= 1 && s >= 2, "need k >= 1 cliques of size >= 2");
  const vid_t n = static_cast<vid_t>(k) * s;
  CooMatrix coo(n, n);
  for (int c = 0; c < k; ++c) {
    const vid_t base = static_cast<vid_t>(c) * s;
    for (vid_t i = 0; i < s; ++i) {
      for (vid_t j = i + 1; j < s; ++j) coo.add(base + i, base + j, real_t{1});
    }
    if (k > 1) {
      const vid_t next_base = static_cast<vid_t>((c + 1) % k) * s;
      coo.add(base + s - 1, next_base, real_t{1});
    }
  }
  finalize_simple_symmetric(coo);
  return coo;
}

CooMatrix grid_graph(vid_t rows, vid_t cols) {
  SAGNN_REQUIRE(rows >= 1 && cols >= 1, "grid must be non-empty");
  const vid_t n = rows * cols;
  CooMatrix coo(n, n);
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) coo.add(id(r, c), id(r, c + 1), real_t{1});
      if (r + 1 < rows) coo.add(id(r, c), id(r + 1, c), real_t{1});
    }
  }
  finalize_simple_symmetric(coo);
  return coo;
}

DegreeStats degree_stats(const CsrMatrix& a) {
  DegreeStats st;
  if (a.n_rows() == 0) return st;
  st.min = static_cast<vid_t>(a.row_nnz(0));
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    const auto d = static_cast<vid_t>(a.row_nnz(r));
    st.max = std::max(st.max, d);
    st.min = std::min(st.min, d);
  }
  st.avg = static_cast<double>(a.nnz()) / a.n_rows();
  return st;
}

}  // namespace sagnn
