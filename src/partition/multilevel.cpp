// Multilevel k-way edge-cut partitioner (METIS analogue):
//   1. coarsen by heavy-edge matching until the graph is small,
//   2. initial partition by greedy region growing,
//   3. uncoarsen with greedy boundary (FM-style) refinement per level.
//
// Matches the role METIS plays in the paper: minimizes *total* edgecut with
// a computational-balance constraint, and is oblivious to per-part maximum
// communication volume — the blind spot GvbPartitioner fixes.
//
// The coarsening and scan phases run on the shared thread pool
// (common/parallel.hpp). Determinism contract: for a fixed seed the
// partition is identical at EVERY thread count — matching is
// round-synchronous propose–accept with hash-derived edge tie-breaks (no
// sequential visit order), contraction tasks own disjoint coarse rows, and
// the refinement move loop stays sequential over a boundary set that is
// computed in parallel but ordered by vertex id.

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/parallel.hpp"
#include "partition/partition.hpp"
#include "partition/partitioner_registry.hpp"
#include "partition/refine_detail.hpp"

namespace sagnn {

namespace partition_detail {

namespace {

/// SplitMix64 finalizer: the per-edge tie-break hash of the matching. A
/// pure function of (seed, endpoint pair), so every thread layout sees the
/// same total order on edges.
inline std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline std::uint64_t edge_hash(std::uint64_t seed, vid_t a, vid_t b) {
  const auto lo = static_cast<std::uint64_t>(a < b ? a : b);
  const auto hi = static_cast<std::uint64_t>(a < b ? b : a);
  return mix64(seed ^ (lo * 0x9e3779b97f4a7c15ull + hi + 1));
}

}  // namespace

PGraph build_base_graph(const CsrMatrix& adj, bool balance_edges) {
  PGraph g;
  g.n = adj.n_rows();
  g.xadj.assign(static_cast<std::size_t>(g.n) + 1, 0);
  g.vwgt.assign(static_cast<std::size_t>(g.n), 1);
  // Count non-self edges per row (parallel; disjoint slots)...
  std::vector<eid_t> cnt(static_cast<std::size_t>(g.n), 0);
  parallel_for(0, g.n, parallel_grain(g.n), [&](std::int64_t b, std::int64_t e) {
    for (vid_t v = static_cast<vid_t>(b); v < static_cast<vid_t>(e); ++v) {
      eid_t c = 0;
      for (vid_t u : adj.row_cols(v)) {
        if (u != v) ++c;
      }
      cnt[static_cast<std::size_t>(v)] = c;
      if (balance_edges) g.vwgt[static_cast<std::size_t>(v)] = 1 + c;
    }
  });
  // ...sequential prefix sum...
  for (vid_t v = 0; v < g.n; ++v) {
    g.xadj[static_cast<std::size_t>(v) + 1] =
        g.xadj[static_cast<std::size_t>(v)] + cnt[static_cast<std::size_t>(v)];
  }
  g.adjncy.resize(static_cast<std::size_t>(g.xadj.back()));
  g.adjwgt.assign(static_cast<std::size_t>(g.xadj.back()), 1);
  // ...and parallel fill into each row's own span.
  parallel_for(0, g.n, parallel_grain(g.n), [&](std::int64_t b, std::int64_t e) {
    for (vid_t v = static_cast<vid_t>(b); v < static_cast<vid_t>(e); ++v) {
      eid_t out = g.xadj[static_cast<std::size_t>(v)];
      for (vid_t u : adj.row_cols(v)) {
        if (u != v) g.adjncy[static_cast<std::size_t>(out++)] = u;
      }
    }
  });
  g.total_vwgt = parallel_reduce(
      0, g.n, parallel_grain(g.n), std::int64_t{0},
      [&](std::int64_t b, std::int64_t e) {
        std::int64_t acc = 0;
        for (std::int64_t v = b; v < e; ++v) acc += g.vwgt[static_cast<std::size_t>(v)];
        return acc;
      },
      [](std::int64_t x, std::int64_t y) { return x + y; });
  return g;
}

// Round-synchronous heavy-edge matching (parallel handshake): each round,
// every unmatched vertex proposes to its best unmatched neighbor under the
// total edge order (weight, edge_hash, neighbor id); mutual proposals
// match. The globally best eligible edge is always mutual, so every round
// makes progress; hash tie-breaks make the expected round count
// logarithmic. The outcome is a pure function of (graph, seed).
// Returns the coarse graph and writes the fine->coarse map.
PGraph coarsen_once(const PGraph& g, std::uint64_t seed, std::vector<vid_t>& cmap) {
  const vid_t n = g.n;
  const std::int64_t grain = parallel_grain(n);
  std::vector<vid_t> match(static_cast<std::size_t>(n), -1);
  std::vector<vid_t> propose(static_cast<std::size_t>(n), -1);
  const int max_rounds = 32;
  for (int round = 0; round < max_rounds; ++round) {
    // Propose phase: reads `match` (frozen this round), writes own slot.
    parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
        if (match[static_cast<std::size_t>(v)] != -1) {
          propose[static_cast<std::size_t>(v)] = -1;
          continue;
        }
        vid_t best = -1;
        std::int64_t best_w = -1;
        std::uint64_t best_h = 0;
        for (eid_t e = g.xadj[static_cast<std::size_t>(v)];
             e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
          const vid_t u = g.adjncy[static_cast<std::size_t>(e)];
          if (u == v || match[static_cast<std::size_t>(u)] != -1) continue;
          const std::int64_t w = g.adjwgt[static_cast<std::size_t>(e)];
          if (w < best_w) continue;
          const std::uint64_t h = edge_hash(seed, v, u);
          if (w > best_w || h > best_h || (h == best_h && u > best)) {
            best_w = w;
            best_h = h;
            best = u;
          }
        }
        propose[static_cast<std::size_t>(v)] = best;
      }
    });
    // Accept phase: v matches u iff the proposals are mutual. Both
    // endpoints detect the handshake independently and write only their
    // own match slot — race-free and schedule-independent.
    const std::int64_t matched = parallel_reduce(
        0, n, grain, std::int64_t{0},
        [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t acc = 0;
          for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
            const vid_t u = propose[static_cast<std::size_t>(v)];
            if (u != -1 && propose[static_cast<std::size_t>(u)] == v) {
              match[static_cast<std::size_t>(v)] = u;
              ++acc;
            }
          }
          return acc;
        },
        [](std::int64_t x, std::int64_t y) { return x + y; });
    if (matched == 0) break;
  }
  // Leftovers (no unmatched neighbor, or round cap) stay single.
  parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
    for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
      if (match[static_cast<std::size_t>(v)] == -1) {
        match[static_cast<std::size_t>(v)] = v;
      }
    }
  });

  // Assign coarse ids (sequential scan: O(n), order defines the ids) and
  // record the one or two fine members of each coarse vertex.
  cmap.assign(static_cast<std::size_t>(n), -1);
  std::vector<vid_t> rep1, rep2;
  rep1.reserve(static_cast<std::size_t>(n) / 2 + 1);
  rep2.reserve(static_cast<std::size_t>(n) / 2 + 1);
  vid_t nc = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (cmap[static_cast<std::size_t>(v)] != -1) continue;
    const vid_t u = match[static_cast<std::size_t>(v)];
    cmap[static_cast<std::size_t>(v)] = nc;
    cmap[static_cast<std::size_t>(u)] = nc;
    rep1.push_back(v);
    rep2.push_back(u);
    ++nc;
  }

  // Build the coarse graph: sum vertex weights; merge parallel edges.
  // Contraction is parallel over coarse vertices — each task merges the
  // (at most two) member adjacency lists of its own coarse rows with a
  // sort+combine on a task-local buffer.
  PGraph cg;
  cg.n = nc;
  cg.vwgt.assign(static_cast<std::size_t>(nc), 0);
  cg.total_vwgt = g.total_vwgt;
  std::vector<std::vector<std::pair<vid_t, std::int64_t>>> rows(
      static_cast<std::size_t>(nc));
  const std::int64_t cgrain = parallel_grain(nc);
  parallel_for(0, nc, cgrain, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<std::pair<vid_t, std::int64_t>> buf;
    for (vid_t c = static_cast<vid_t>(lo); c < static_cast<vid_t>(hi); ++c) {
      const vid_t v = rep1[static_cast<std::size_t>(c)];
      const vid_t u = rep2[static_cast<std::size_t>(c)];
      cg.vwgt[static_cast<std::size_t>(c)] =
          g.vwgt[static_cast<std::size_t>(v)] +
          (u != v ? g.vwgt[static_cast<std::size_t>(u)] : 0);
      buf.clear();
      const vid_t members[2] = {v, u};
      const int n_members = u == v ? 1 : 2;
      for (int mi = 0; mi < n_members; ++mi) {
        const vid_t member = members[mi];
        for (eid_t e = g.xadj[static_cast<std::size_t>(member)];
             e < g.xadj[static_cast<std::size_t>(member) + 1]; ++e) {
          const vid_t cu =
              cmap[static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)])];
          if (cu == c) continue;  // contracted edge disappears
          buf.emplace_back(cu, g.adjwgt[static_cast<std::size_t>(e)]);
        }
      }
      std::sort(buf.begin(), buf.end());
      auto& row = rows[static_cast<std::size_t>(c)];
      row.reserve(buf.size());
      for (const auto& [cu, w] : buf) {
        if (!row.empty() && row.back().first == cu) {
          row.back().second += w;
        } else {
          row.emplace_back(cu, w);
        }
      }
    }
  });
  cg.xadj.assign(static_cast<std::size_t>(nc) + 1, 0);
  for (vid_t c = 0; c < nc; ++c) {
    cg.xadj[static_cast<std::size_t>(c) + 1] =
        cg.xadj[static_cast<std::size_t>(c)] +
        static_cast<eid_t>(rows[static_cast<std::size_t>(c)].size());
  }
  cg.adjncy.resize(static_cast<std::size_t>(cg.xadj.back()));
  cg.adjwgt.resize(static_cast<std::size_t>(cg.xadj.back()));
  parallel_for(0, nc, cgrain, [&](std::int64_t lo, std::int64_t hi) {
    for (vid_t c = static_cast<vid_t>(lo); c < static_cast<vid_t>(hi); ++c) {
      eid_t out = cg.xadj[static_cast<std::size_t>(c)];
      for (const auto& [cu, w] : rows[static_cast<std::size_t>(c)]) {
        cg.adjncy[static_cast<std::size_t>(out)] = cu;
        cg.adjwgt[static_cast<std::size_t>(out)] = w;
        ++out;
      }
    }
  });
  return cg;
}

void fix_empty_parts(const PGraph& g, int k, std::vector<vid_t>& part) {
  std::vector<std::vector<vid_t>> members(static_cast<std::size_t>(k));
  for (vid_t v = 0; v < g.n; ++v) {
    members[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])].push_back(v);
  }
  for (int p = 0; p < k; ++p) {
    if (!members[static_cast<std::size_t>(p)].empty()) continue;
    // Steal a vertex from the currently largest part.
    int donor = 0;
    for (int q = 1; q < k; ++q) {
      if (members[static_cast<std::size_t>(q)].size() >
          members[static_cast<std::size_t>(donor)].size()) {
        donor = q;
      }
    }
    SAGNN_CHECK(members[static_cast<std::size_t>(donor)].size() > 1);
    const vid_t v = members[static_cast<std::size_t>(donor)].back();
    members[static_cast<std::size_t>(donor)].pop_back();
    members[static_cast<std::size_t>(p)].push_back(v);
    part[static_cast<std::size_t>(v)] = static_cast<vid_t>(p);
  }
}

// Greedy graph-growing initial partition on the coarsest graph. Runs on the
// smallest level only, so it stays sequential (and rng-order dependent,
// which is fine: the draw sequence is independent of the thread count).
void initial_partition(const PGraph& g, int k, Rng& rng, std::vector<vid_t>& part) {
  const vid_t n = g.n;
  part.assign(static_cast<std::size_t>(n), -1);
  const std::int64_t target = g.total_vwgt / k;
  vid_t assigned = 0;
  for (int p = 0; p < k - 1 && assigned < n; ++p) {
    // Seed: a random unassigned vertex.
    vid_t seed = -1;
    for (int tries = 0; tries < 32 && seed == -1; ++tries) {
      const auto cand =
          static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (part[static_cast<std::size_t>(cand)] == -1) seed = cand;
    }
    if (seed == -1) {
      for (vid_t v = 0; v < n; ++v) {
        if (part[static_cast<std::size_t>(v)] == -1) {
          seed = v;
          break;
        }
      }
    }
    // BFS-grow until the weight target is met.
    std::int64_t w = 0;
    std::deque<vid_t> queue{seed};
    part[static_cast<std::size_t>(seed)] = static_cast<vid_t>(p);
    w += g.vwgt[static_cast<std::size_t>(seed)];
    ++assigned;
    while (!queue.empty() && w < target && assigned < n) {
      const vid_t v = queue.front();
      queue.pop_front();
      for (eid_t e = g.xadj[static_cast<std::size_t>(v)];
           e < g.xadj[static_cast<std::size_t>(v) + 1] && w < target; ++e) {
        const vid_t u = g.adjncy[static_cast<std::size_t>(e)];
        if (part[static_cast<std::size_t>(u)] != -1) continue;
        part[static_cast<std::size_t>(u)] = static_cast<vid_t>(p);
        w += g.vwgt[static_cast<std::size_t>(u)];
        ++assigned;
        queue.push_back(u);
      }
      // If the frontier died but the target is unmet, jump to another
      // unassigned vertex (disconnected graphs).
      if (queue.empty() && w < target) {
        for (vid_t v2 = 0; v2 < n; ++v2) {
          if (part[static_cast<std::size_t>(v2)] == -1) {
            part[static_cast<std::size_t>(v2)] = static_cast<vid_t>(p);
            w += g.vwgt[static_cast<std::size_t>(v2)];
            ++assigned;
            queue.push_back(v2);
            break;
          }
        }
      }
    }
  }
  // Remainder goes to the last part.
  for (vid_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == -1) {
      part[static_cast<std::size_t>(v)] = static_cast<vid_t>(k - 1);
    }
  }
  fix_empty_parts(g, k, part);
}

void refine_edgecut(const PGraph& g, int k, double eps, int passes, Rng& rng,
                    std::vector<vid_t>& part) {
  const vid_t n = g.n;
  const std::int64_t grain = parallel_grain(n);
  std::vector<std::int64_t> pw = parallel_reduce(
      0, n, grain, std::vector<std::int64_t>(static_cast<std::size_t>(k), 0),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::int64_t> acc(static_cast<std::size_t>(k), 0);
        for (std::int64_t v = lo; v < hi; ++v) {
          acc[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
              g.vwgt[static_cast<std::size_t>(v)];
        }
        return acc;
      },
      [k](std::vector<std::int64_t> x, const std::vector<std::int64_t>& y) {
        for (int p = 0; p < k; ++p) {
          x[static_cast<std::size_t>(p)] += y[static_cast<std::size_t>(p)];
        }
        return x;
      });
  const double max_allowed = (1.0 + eps) * static_cast<double>(g.total_vwgt) / k;

  std::vector<std::int64_t> conn(static_cast<std::size_t>(k), 0);
  std::vector<vid_t> touched;
  std::vector<std::uint8_t> is_boundary(static_cast<std::size_t>(n), 0);
  std::vector<vid_t> boundary;

  for (int pass = 0; pass < passes; ++pass) {
    // Gain/edge-cut candidate evaluation is the scan half of the pass:
    // find the boundary vertices in parallel (only they can move). The
    // move loop itself stays sequential over an id-ordered, seed-shuffled
    // boundary list, so the outcome cannot depend on the thread count.
    parallel_for(0, n, grain, [&](std::int64_t lo, std::int64_t hi) {
      for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
        const vid_t pv = part[static_cast<std::size_t>(v)];
        std::uint8_t b = 0;
        for (eid_t e = g.xadj[static_cast<std::size_t>(v)];
             e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
          const auto u =
              static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)]);
          if (part[u] != pv) {
            b = 1;
            break;
          }
        }
        is_boundary[static_cast<std::size_t>(v)] = b;
      }
    });
    boundary.clear();
    for (vid_t v = 0; v < n; ++v) {
      if (is_boundary[static_cast<std::size_t>(v)]) boundary.push_back(v);
    }
    if (boundary.empty()) break;
    for (std::size_t i = boundary.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
      std::swap(boundary[i], boundary[j]);
    }

    bool improved = false;
    for (const vid_t v : boundary) {
      const vid_t pv = part[static_cast<std::size_t>(v)];
      touched.clear();
      bool still_boundary = false;
      for (eid_t e = g.xadj[static_cast<std::size_t>(v)];
           e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
        const vid_t pu =
            part[static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)])];
        if (conn[static_cast<std::size_t>(pu)] == 0) touched.push_back(pu);
        conn[static_cast<std::size_t>(pu)] += g.adjwgt[static_cast<std::size_t>(e)];
        if (pu != pv) still_boundary = true;
      }
      if (still_boundary) {
        const std::int64_t internal = conn[static_cast<std::size_t>(pv)];
        vid_t best = -1;
        std::int64_t best_gain = 0;
        for (vid_t pu : touched) {
          if (pu == pv) continue;
          const std::int64_t gain = conn[static_cast<std::size_t>(pu)] - internal;
          const bool fits =
              static_cast<double>(pw[static_cast<std::size_t>(pu)] +
                                  g.vwgt[static_cast<std::size_t>(v)]) <= max_allowed;
          const bool keeps_src =
              pw[static_cast<std::size_t>(pv)] > g.vwgt[static_cast<std::size_t>(v)];
          if (gain > best_gain && fits && keeps_src) {
            best_gain = gain;
            best = pu;
          }
        }
        if (best != -1) {
          pw[static_cast<std::size_t>(pv)] -= g.vwgt[static_cast<std::size_t>(v)];
          pw[static_cast<std::size_t>(best)] += g.vwgt[static_cast<std::size_t>(v)];
          part[static_cast<std::size_t>(v)] = best;
          improved = true;
        }
      }
      for (vid_t pu : touched) conn[static_cast<std::size_t>(pu)] = 0;
    }
    if (!improved) break;
  }
}

std::vector<vid_t> multilevel_edgecut(const CsrMatrix& adj, int k,
                                      const PartitionerOptions& opts) {
  Rng rng(opts.seed);
  PGraph base = build_base_graph(adj, opts.balance_edges);

  // V-cycle: coarsen... (one rng draw per level seeds the matching hashes;
  // the draw count never depends on the thread count)
  std::vector<PGraph> levels;
  std::vector<std::vector<vid_t>> cmaps;
  levels.push_back(std::move(base));
  const vid_t stop_n =
      std::max<vid_t>(static_cast<vid_t>(k) * opts.coarsen_target_per_part, 64);
  while (levels.back().n > stop_n) {
    std::vector<vid_t> cmap;
    const std::uint64_t level_seed = rng.next();
    PGraph cg = coarsen_once(levels.back(), level_seed, cmap);
    if (cg.n > levels.back().n * 9 / 10) break;  // diminishing returns
    levels.push_back(std::move(cg));
    cmaps.push_back(std::move(cmap));
  }

  // ...initial partition on the coarsest...
  std::vector<vid_t> part;
  initial_partition(levels.back(), k, rng, part);
  refine_edgecut(levels.back(), k, opts.epsilon, opts.refine_passes, rng, part);

  // ...and uncoarsen with refinement at every level.
  for (std::size_t lvl = cmaps.size(); lvl-- > 0;) {
    const auto& cmap = cmaps[lvl];
    std::vector<vid_t> fine(cmap.size());
    const auto n_fine = static_cast<std::int64_t>(cmap.size());
    parallel_for(0, n_fine, parallel_grain(n_fine),
                 [&](std::int64_t lo, std::int64_t hi) {
                   for (std::int64_t v = lo; v < hi; ++v) {
                     const auto coarse =
                         static_cast<std::size_t>(cmap[static_cast<std::size_t>(v)]);
                     fine[static_cast<std::size_t>(v)] = part[coarse];
                   }
                 });
    part = std::move(fine);
    refine_edgecut(levels[lvl], k, opts.epsilon, opts.refine_passes, rng, part);
  }
  fix_empty_parts(levels.front(), k, part);
  return part;
}

}  // namespace partition_detail

Partition EdgeCutPartitioner::partition(const CsrMatrix& adj, int k) const {
  SAGNN_REQUIRE(adj.n_rows() == adj.n_cols(), "adjacency must be square");
  SAGNN_REQUIRE(k >= 1 && k <= adj.n_rows(), "k must be in [1, n]");
  Partition out;
  out.k = k;
  if (k == 1) {
    out.part_of.assign(static_cast<std::size_t>(adj.n_rows()), 0);
    return out;
  }
  out.part_of = partition_detail::multilevel_edgecut(adj, k, opts_);
  out.validate();
  return out;
}

namespace {
// Canonical short name "metis" (how the paper refers to it); the class's
// descriptive name() is an accepted alias so both spellings resolve.
const PartitionerRegistration kRegisterEdgeCut{
    "metis", {"edgecut", "edgecut(metis-like)"}, [](const PartitionerOptions& opts) {
      return std::make_unique<EdgeCutPartitioner>(opts);
    }};
}  // namespace

}  // namespace sagnn
