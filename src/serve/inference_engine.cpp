#include "serve/inference_engine.hpp"

#include <algorithm>

#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "sparse/spmm.hpp"

namespace sagnn::serve {

namespace {

/// z = sigma(m · W) for one row, replicating gemm_rows' per-element
/// accumulation order (input dimension p ascending, output j inner) and
/// ops.cpp's relu formula — the bitwise contract with the training path.
std::vector<real_t> row_times_weights(const std::vector<real_t>& m,
                                      const Matrix& w, bool apply_relu) {
  const vid_t f_in = w.n_rows();
  const vid_t f_out = w.n_cols();
  SAGNN_CHECK(m.size() == static_cast<std::size_t>(f_in));
  std::vector<real_t> z(static_cast<std::size_t>(f_out), real_t{0});
  for (vid_t p = 0; p < f_in; ++p) {
    const real_t mp = m[static_cast<std::size_t>(p)];
    const real_t* wp = w.row(p);
    for (vid_t j = 0; j < f_out; ++j) z[static_cast<std::size_t>(j)] += mp * wp[j];
  }
  if (apply_relu) {
    for (real_t& x : z) x = x > 0 ? x : real_t{0};
  }
  return z;
}

}  // namespace

InferenceEngine::InferenceEngine(GcnModel model, Matrix features, GraphMutator& graph,
                                 std::size_t cache_capacity_bytes)
    : model_(std::move(model)),
      features_(std::move(features)),
      graph_(graph),
      cache_(cache_capacity_bytes) {
  SAGNN_REQUIRE(model_.n_layers() >= 1, "model has no layers");
  SAGNN_REQUIRE(features_.n_rows() == graph_.n(),
                "feature matrix must have one row per vertex");
  SAGNN_REQUIRE(model_.layer(0).in_features() == features_.n_cols(),
                "model input width must match the feature width");
  graph_.set_dirty_listener([this](vid_t v) { cache_.invalidate(v); });
}

InferenceEngine::~InferenceEngine() { graph_.set_dirty_listener(nullptr); }

std::vector<real_t> InferenceEngine::aggregate_features(vid_t row) const {
  std::vector<real_t> acc(static_cast<std::size_t>(features_.n_cols()),
                          real_t{0});
  const vid_t f = features_.n_cols();
  graph_.for_each_nonzero(row, [&](vid_t c, real_t a) {
    const real_t* hr = features_.row(c);
    for (vid_t j = 0; j < f; ++j) acc[static_cast<std::size_t>(j)] += a * hr[j];
  });
  return acc;
}

Matrix InferenceEngine::infer_targets(std::span<const vid_t> targets,
                                      bool use_cache) {
  const int n_layers = model_.n_layers();
  for (const vid_t v : targets) {
    SAGNN_REQUIRE(v >= 0 && v < graph_.n(), "query vertex out of range");
  }

  // need[l] = sorted unique vertices whose H^l rows the pass must
  // produce, l in [1, n_layers]. Expanding from the targets downward:
  // H^{l+1}[u] consumes H^l rows of u's neighborhood (self included — Â
  // carries self loops).
  std::vector<std::vector<vid_t>> need(static_cast<std::size_t>(n_layers) + 1);
  auto& top = need[static_cast<std::size_t>(n_layers)];
  top.assign(targets.begin(), targets.end());
  std::sort(top.begin(), top.end());
  top.erase(std::unique(top.begin(), top.end()), top.end());
  for (int l = n_layers - 1; l >= 1; --l) {
    auto& frontier = need[static_cast<std::size_t>(l)];
    for (const vid_t u : need[static_cast<std::size_t>(l) + 1]) {
      graph_.for_each_nonzero(u,
                              [&](vid_t c, real_t) { frontier.push_back(c); });
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
  }

  // Level 1: layer-1 aggregations come from the cache (or are computed
  // and cached); everything above is query-local.
  std::unordered_map<vid_t, std::vector<real_t>> h;
  h.reserve(need[1].size());
  const GcnLayer& layer0 = model_.layer(0);
  for (const vid_t u : need[1]) {
    std::vector<real_t> m1;
    if (use_cache) {
      if (const std::vector<real_t>* hit = cache_.lookup(u)) {
        m1 = *hit;
      } else {
        m1 = aggregate_features(u);
        cache_.insert(u, m1);
      }
    } else {
      m1 = aggregate_features(u);
    }
    h.emplace(u, row_times_weights(m1, layer0.weights(), layer0.has_relu()));
  }

  for (int l = 1; l < n_layers; ++l) {
    const GcnLayer& layer = model_.layer(l);
    std::unordered_map<vid_t, std::vector<real_t>> next;
    const auto& level = need[static_cast<std::size_t>(l) + 1];
    next.reserve(level.size());
    const auto f_in = static_cast<std::size_t>(layer.in_features());
    for (const vid_t u : level) {
      std::vector<real_t> m(f_in, real_t{0});
      graph_.for_each_nonzero(u, [&](vid_t c, real_t a) {
        const std::vector<real_t>& hc = h.at(c);
        for (std::size_t j = 0; j < f_in; ++j) m[j] += a * hc[j];
      });
      next.emplace(u, row_times_weights(m, layer.weights(), layer.has_relu()));
    }
    h = std::move(next);
  }

  const vid_t out_width = model_.layer(n_layers - 1).out_features();
  Matrix out(static_cast<vid_t>(targets.size()), out_width);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const std::vector<real_t>& row = h.at(targets[i]);
    std::copy(row.begin(), row.end(), out.row(static_cast<vid_t>(i)));
  }
  return out;
}

std::vector<real_t> InferenceEngine::infer_node(vid_t v) {
  const Matrix out = infer_targets({&v, 1}, /*use_cache=*/true);
  return {out.row(0), out.row(0) + out.n_cols()};
}

std::vector<real_t> InferenceEngine::infer_node_bypass(vid_t v) {
  const Matrix out = infer_targets({&v, 1}, /*use_cache=*/false);
  return {out.row(0), out.row(0) + out.n_cols()};
}

Matrix InferenceEngine::infer_batch(std::span<const vid_t> nodes) {
  return infer_targets(nodes, /*use_cache=*/true);
}

Matrix InferenceEngine::full_forward() const {
  const CsrMatrix a = graph_.materialize();
  Matrix h = features_;
  for (int l = 0; l < model_.n_layers(); ++l) {
    const GcnLayer& layer = model_.layer(l);
    Matrix m = spmm(a, h);
    Matrix z = gemm(m, layer.weights());
    h = layer.has_relu() ? relu(z) : std::move(z);
  }
  return h;
}

}  // namespace sagnn::serve
