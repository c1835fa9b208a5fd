// Volume-balancing partitioner (Graph-VB analogue, Acer et al. [2]).
//
// Starts from the multilevel edge-cut partition and then refines directly on
// the *communication volume* metrics of sparsity-aware SpMM:
//
//   send contribution of vertex v in part a  =  |D(v) \ {a}|
//     where D(v) = set of parts containing a neighbor of v
//   send_vol(a) = sum of contributions of its vertices
//
// The refinement performs greedy vertex moves that lexicographically
// minimize (max_p send_vol(p), total volume) under the same compute-balance
// constraint as the edge-cut phase. All volume bookkeeping is maintained
// incrementally via per-vertex neighbor-part counters, so a move costs
// O(deg(v) * log deg) instead of a full recount.

#include <algorithm>
#include <numeric>

#include "common/parallel.hpp"
#include "partition/partition.hpp"
#include "partition/partitioner_registry.hpp"
#include "partition/refine_detail.hpp"

namespace sagnn {

namespace {

using partition_detail::PGraph;

/// Per-vertex counts of neighbors by part, kept sorted by part id.
class NeighborPartCounts {
 public:
  void build(const PGraph& g, const std::vector<vid_t>& part) {
    counts_.assign(static_cast<std::size_t>(g.n), {});
    // Each vertex owns its own counter vector — the scan parallelizes over
    // disjoint slots (identical result at every thread count).
    parallel_for(0, g.n, parallel_grain(g.n), [&](std::int64_t lo, std::int64_t hi) {
      for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
        auto& c = counts_[static_cast<std::size_t>(v)];
        for (eid_t e = g.xadj[static_cast<std::size_t>(v)];
             e < g.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
          const auto u =
              static_cast<std::size_t>(g.adjncy[static_cast<std::size_t>(e)]);
          bump(c, part[u], 1);
        }
      }
    });
  }

  /// Number of distinct neighbor parts excluding `excl`.
  int distinct_excluding(vid_t v, vid_t excl) const {
    const auto& c = counts_[static_cast<std::size_t>(v)];
    int n = static_cast<int>(c.size());
    for (const auto& [p, cnt] : c) {
      if (p == excl) {
        --n;
        break;
      }
    }
    return n;
  }

  int count_of(vid_t v, vid_t p) const {
    const auto& c = counts_[static_cast<std::size_t>(v)];
    auto it = std::lower_bound(c.begin(), c.end(), p,
                               [](const auto& e, vid_t key) { return e.first < key; });
    return (it != c.end() && it->first == p) ? it->second : 0;
  }

  /// Distinct parts among v's neighbors (D(v)).
  std::vector<vid_t> parts_of(vid_t v) const {
    std::vector<vid_t> out;
    out.reserve(counts_[static_cast<std::size_t>(v)].size());
    for (const auto& [p, cnt] : counts_[static_cast<std::size_t>(v)]) {
      out.push_back(p);
    }
    return out;
  }

  /// Adjust count of part p for vertex v by delta; returns the new count.
  int bump(vid_t v, vid_t p, int delta) {
    return bump(counts_[static_cast<std::size_t>(v)], p, delta);
  }

 private:
  static int bump(std::vector<std::pair<vid_t, int>>& c, vid_t p, int delta) {
    auto it = std::lower_bound(c.begin(), c.end(), p,
                               [](const auto& e, vid_t key) { return e.first < key; });
    if (it == c.end() || it->first != p) {
      SAGNN_CHECK(delta > 0);
      it = c.insert(it, {p, 0});
    }
    it->second += delta;
    SAGNN_CHECK(it->second >= 0);
    const int result = it->second;
    if (result == 0) c.erase(it);
    return result;
  }

  std::vector<std::vector<std::pair<vid_t, int>>> counts_;
};

class VolumeRefiner {
 public:
  VolumeRefiner(const PGraph& g, int k, double eps, std::vector<vid_t>& part)
      : g_(g), k_(k), part_(part) {
    counts_.build(g, part);
    // Initial per-part weight/volume totals: private per-chunk accumulators
    // merged with exact integer sums — thread-count invariant.
    struct Vols {
      std::vector<std::int64_t> pw, send, recv;
    };
    const std::size_t ks = static_cast<std::size_t>(k);
    Vols vols = parallel_reduce(
        0, g.n, parallel_grain(g.n),
        Vols{std::vector<std::int64_t>(ks, 0), std::vector<std::int64_t>(ks, 0),
             std::vector<std::int64_t>(ks, 0)},
        [&](std::int64_t lo, std::int64_t hi) {
          Vols acc{std::vector<std::int64_t>(ks, 0), std::vector<std::int64_t>(ks, 0),
                   std::vector<std::int64_t>(ks, 0)};
          for (vid_t v = static_cast<vid_t>(lo); v < static_cast<vid_t>(hi); ++v) {
            const vid_t a = part[static_cast<std::size_t>(v)];
            acc.pw[static_cast<std::size_t>(a)] += g.vwgt[static_cast<std::size_t>(v)];
            acc.send[static_cast<std::size_t>(a)] += counts_.distinct_excluding(v, a);
            // v's H row is received once by each distinct neighbor part != a.
            for (vid_t d : counts_.parts_of(v)) {
              if (d != a) acc.recv[static_cast<std::size_t>(d)] += 1;
            }
          }
          return acc;
        },
        [ks](Vols x, const Vols& y) {
          for (std::size_t p = 0; p < ks; ++p) {
            x.pw[p] += y.pw[p];
            x.send[p] += y.send[p];
            x.recv[p] += y.recv[p];
          }
          return x;
        });
    pw_ = std::move(vols.pw);
    send_vol_ = std::move(vols.send);
    recv_vol_ = std::move(vols.recv);
    max_allowed_ = (1.0 + eps) * static_cast<double>(g.total_vwgt) / k;
  }

  /// Bottleneck volume: max over parts of max(send, recv) — the quantity
  /// that serializes the all-to-all on the bottleneck process.
  std::int64_t bottleneck() const {
    std::int64_t m = 0;
    for (int p = 0; p < k_; ++p) {
      m = std::max({m, send_vol_[static_cast<std::size_t>(p)],
                    recv_vol_[static_cast<std::size_t>(p)]});
    }
    return m;
  }
  std::int64_t total_send() const {
    return std::accumulate(send_vol_.begin(), send_vol_.end(), std::int64_t{0});
  }

  /// Part achieving the bottleneck volume (send or recv side).
  int bottleneck_part() const {
    int best = 0;
    std::int64_t best_v = -1;
    for (int p = 0; p < k_; ++p) {
      const std::int64_t v = std::max(send_vol_[static_cast<std::size_t>(p)],
                                      recv_vol_[static_cast<std::size_t>(p)]);
      if (v > best_v) {
        best_v = v;
        best = p;
      }
    }
    return best;
  }

  /// (new bottleneck, new total) objective if v moved to part b; does not
  /// mutate state.
  std::pair<std::int64_t, std::int64_t> evaluate_move(vid_t v, vid_t b) {
    const vid_t a = part_[static_cast<std::size_t>(v)];
    scratch_send_.assign(static_cast<std::size_t>(k_), 0);
    scratch_recv_.assign(static_cast<std::size_t>(k_), 0);
    apply_deltas(v, a, b, scratch_send_, scratch_recv_);
    std::int64_t new_max = 0, new_total = 0;
    for (int p = 0; p < k_; ++p) {
      const auto i = static_cast<std::size_t>(p);
      const std::int64_t s = send_vol_[i] + scratch_send_[i];
      const std::int64_t r = recv_vol_[i] + scratch_recv_[i];
      new_max = std::max({new_max, s, r});
      new_total += s;
    }
    return {new_max, new_total};
  }

  bool balance_ok(vid_t v, vid_t b) const {
    const vid_t a = part_[static_cast<std::size_t>(v)];
    const std::int64_t w = g_.vwgt[static_cast<std::size_t>(v)];
    return static_cast<double>(pw_[static_cast<std::size_t>(b)] + w) <= max_allowed_ &&
           pw_[static_cast<std::size_t>(a)] - w > 0;
  }

  void commit_move(vid_t v, vid_t b) {
    const vid_t a = part_[static_cast<std::size_t>(v)];
    scratch_send_.assign(static_cast<std::size_t>(k_), 0);
    scratch_recv_.assign(static_cast<std::size_t>(k_), 0);
    apply_deltas(v, a, b, scratch_send_, scratch_recv_);
    for (int p = 0; p < k_; ++p) {
      const auto i = static_cast<std::size_t>(p);
      send_vol_[i] += scratch_send_[i];
      recv_vol_[i] += scratch_recv_[i];
    }
    // Update neighbor counters (v's neighbors see v change parts).
    for (eid_t e = g_.xadj[static_cast<std::size_t>(v)];
         e < g_.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const vid_t u = g_.adjncy[static_cast<std::size_t>(e)];
      counts_.bump(u, a, -1);
      counts_.bump(u, b, +1);
    }
    pw_[static_cast<std::size_t>(a)] -= g_.vwgt[static_cast<std::size_t>(v)];
    pw_[static_cast<std::size_t>(b)] += g_.vwgt[static_cast<std::size_t>(v)];
    part_[static_cast<std::size_t>(v)] = b;
  }

  /// Distinct neighbor parts of v (candidate destinations).
  std::vector<vid_t> candidate_parts(vid_t v) const {
    std::vector<vid_t> parts;
    for (eid_t e = g_.xadj[static_cast<std::size_t>(v)];
         e < g_.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const vid_t p =
          part_[static_cast<std::size_t>(g_.adjncy[static_cast<std::size_t>(e)])];
      if (p != part_[static_cast<std::size_t>(v)] &&
          std::find(parts.begin(), parts.end(), p) == parts.end()) {
        parts.push_back(p);
      }
    }
    return parts;
  }

  const std::vector<std::int64_t>& send_vol() const { return send_vol_; }

 private:
  /// Fill per-part send/recv volume changes of moving v from a to b.
  /// Does not mutate the refiner state.
  void apply_deltas(vid_t v, vid_t a, vid_t b, std::vector<std::int64_t>& dsend,
                    std::vector<std::int64_t>& drecv) {
    // v's own contribution migrates and is re-evaluated against the new
    // home part (D(v) itself is unchanged by v's move). Each destination
    // part's receive count follows v's destination set.
    dsend[static_cast<std::size_t>(a)] -= counts_.distinct_excluding(v, a);
    dsend[static_cast<std::size_t>(b)] += counts_.distinct_excluding(v, b);
    for (vid_t d : counts_.parts_of(v)) {
      if (d != a) drecv[static_cast<std::size_t>(d)] -= 1;
      if (d != b) drecv[static_cast<std::size_t>(d)] += 1;
    }
    // Each neighbor u in part c may gain/lose a destination.
    for (eid_t e = g_.xadj[static_cast<std::size_t>(v)];
         e < g_.xadj[static_cast<std::size_t>(v) + 1]; ++e) {
      const vid_t u = g_.adjncy[static_cast<std::size_t>(e)];
      const vid_t c = part_[static_cast<std::size_t>(u)];
      if (counts_.count_of(u, a) == 1 && a != c) {
        dsend[static_cast<std::size_t>(c)] -= 1;  // u stops being sent to a
        drecv[static_cast<std::size_t>(a)] -= 1;
      }
      if (counts_.count_of(u, b) == 0 && b != c) {
        dsend[static_cast<std::size_t>(c)] += 1;  // u starts being sent to b
        drecv[static_cast<std::size_t>(b)] += 1;
      }
    }
  }

  const PGraph& g_;
  int k_;
  std::vector<vid_t>& part_;
  NeighborPartCounts counts_;
  std::vector<std::int64_t> pw_;
  std::vector<std::int64_t> send_vol_;
  std::vector<std::int64_t> recv_vol_;
  std::vector<std::int64_t> scratch_send_;
  std::vector<std::int64_t> scratch_recv_;
  double max_allowed_ = 0;
};

}  // namespace

Partition GvbPartitioner::partition(const CsrMatrix& adj, int k) const {
  SAGNN_REQUIRE(adj.n_rows() == adj.n_cols(), "adjacency must be square");
  SAGNN_REQUIRE(k >= 1 && k <= adj.n_rows(), "k must be in [1, n]");
  Partition out;
  out.k = k;
  if (k == 1) {
    out.part_of.assign(static_cast<std::size_t>(adj.n_rows()), 0);
    return out;
  }

  // Phase 1: total-volume-oriented multilevel edge-cut partition. A
  // slightly looser balance than requested leaves headroom for the volume
  // refinement (the paper notes GVB trades some compute balance away).
  PartitionerOptions ec_opts = opts_;
  out.part_of = partition_detail::multilevel_edgecut(adj, k, ec_opts);

  // Phase 2: greedy (max_send, total) refinement on the fine graph.
  PGraph g = partition_detail::build_base_graph(adj, opts_.balance_edges);
  VolumeRefiner refiner(g, k, opts_.epsilon * 1.5, out.part_of);
  Rng rng(opts_.seed ^ 0x9e3779b9ull);

  std::vector<vid_t> order(static_cast<std::size_t>(g.n));
  std::iota(order.begin(), order.end(), 0);

  const int max_passes = std::max(4, opts_.refine_passes * 2);
  for (int pass = 0; pass < max_passes; ++pass) {
    bool moved = false;
    // Pass A: attack the bottleneck part — move its boundary vertices
    // wherever (bottleneck, total) improves lexicographically.
    const int bottleneck = refiner.bottleneck_part();
    for (vid_t i = g.n - 1; i > 0; --i) {
      const auto j =
          static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
      std::swap(order[static_cast<std::size_t>(i)], order[static_cast<std::size_t>(j)]);
    }
    for (vid_t idx = 0; idx < g.n; ++idx) {
      const vid_t v = order[static_cast<std::size_t>(idx)];
      const vid_t pv = out.part_of[static_cast<std::size_t>(v)];
      const bool in_bottleneck = pv == bottleneck;
      const auto cands = refiner.candidate_parts(v);
      if (cands.empty()) continue;
      const std::int64_t cur_max = refiner.bottleneck();
      const std::int64_t cur_total = refiner.total_send();
      vid_t best = -1;
      std::pair<std::int64_t, std::int64_t> best_obj{cur_max, cur_total};
      for (vid_t b : cands) {
        if (!refiner.balance_ok(v, b)) continue;
        const auto obj = refiner.evaluate_move(v, b);
        // Bottleneck vertices may trade total volume for max volume; other
        // vertices must improve total without worsening the max.
        const bool improves =
            in_bottleneck
                ? obj < best_obj
                : (obj.first <= best_obj.first && obj.second < best_obj.second);
        if (improves) {
          best_obj = obj;
          best = b;
        }
      }
      if (best != -1) {
        refiner.commit_move(v, best);
        moved = true;
      }
    }
    if (!moved) break;
  }

  partition_detail::fix_empty_parts(g, k, out.part_of);
  out.validate();
  return out;
}

namespace {
const PartitionerRegistration kRegisterGvb{
    "gvb", {"gvb(volume-balancing)"}, [](const PartitionerOptions& opts) {
      return std::make_unique<GvbPartitioner>(opts);
    }};
}  // namespace

}  // namespace sagnn
