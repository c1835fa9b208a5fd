// Online-serving subsystem (src/serve/): checkpoint loading without a
// Trainer, the byte-bounded LRU aggregation cache, streaming graph updates
// through the delta overlay, and the bitwise-identity contract between
// per-node inference and the training kernels' full-graph forward.
//
// Suites are prefixed "Serving" so the sanitizer CI job can select them by
// regex alongside the checkpoint suites.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "ckpt/serializer.hpp"
#include "ckpt/state_io.hpp"
#include "common/parallel.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "gnn/trainer.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_loader.hpp"
#include "sparse/spmm.hpp"

namespace sagnn {
namespace {

using serve::AggregationCache;
using serve::GraphMutator;
using serve::InferenceEngine;
using serve::ModelLoader;

GcnConfig tiny_gcn(const Dataset& ds, int epochs = 2) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  return cfg;
}

std::string serial_snapshot(const Dataset& ds, GcnModel* trained = nullptr) {
  auto trainer = TrainerBuilder(ds).strategy("serial").gcn(tiny_gcn(ds)).build();
  trainer->train();
  if (trained != nullptr) *trained = trainer->model();
  std::stringstream out;
  trainer->save(out);
  return out.str();
}

std::string distributed_snapshot(const Dataset& ds, GcnModel* trained = nullptr) {
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(2)
                     .partitioner("gvb")
                     .gcn(tiny_gcn(ds))
                     .build();
  trainer->train();
  if (trained != nullptr) *trained = trainer->model();
  std::stringstream out;
  trainer->save(out);
  return out.str();
}

bool same_weights(const GcnModel& a, const GcnModel& b) {
  if (a.n_layers() != b.n_layers()) return false;
  for (int l = 0; l < a.n_layers(); ++l) {
    if (!(a.layer(l).weights() == b.layer(l).weights())) return false;
  }
  return true;
}

/// The training forward pass (spmm + gemm + relu) on an explicit graph —
/// the ground truth every serving path must equal bit for bit.
Matrix reference_forward(const CsrMatrix& a, const Matrix& features,
                         const GcnModel& model) {
  Matrix h = features;
  for (int l = 0; l < model.n_layers(); ++l) {
    Matrix m = spmm(a, h);
    Matrix z = gemm(m, model.layer(l).weights());
    h = model.layer(l).has_relu() ? relu(z) : std::move(z);
  }
  return h;
}

// ------------------------------------------------------------ ModelLoader

TEST(ServingModelLoader, LoadsSerialCheckpointWithoutTrainer) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  GcnModel trained;
  const std::string snap = serial_snapshot(ds, &trained);

  std::istringstream in(snap);
  ModelLoader loader(in);
  EXPECT_EQ(loader.train_config().strategy, "serial");
  EXPECT_EQ(loader.epochs_trained(), 2);
  EXPECT_EQ(loader.fingerprint().name, ds.name);
  EXPECT_EQ(loader.fingerprint().n, ds.n_vertices());
  EXPECT_EQ(loader.fingerprint().nnz, ds.n_edges());
  EXPECT_TRUE(loader.skipped_sections().empty());
  EXPECT_TRUE(same_weights(loader.model(), trained));
  EXPECT_NO_THROW(loader.require_compatible(ds));
}

TEST(ServingModelLoader, SkipsModeSpecificSectionsOfDistributedCheckpoint) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  GcnModel trained;
  const std::string snap = distributed_snapshot(ds, &trained);

  std::istringstream in(snap);
  ModelLoader loader(in);
  EXPECT_TRUE(same_weights(loader.model(), trained));
  // Distributed training state the serving path has no use for must have
  // been skipped, not rejected.
  const auto& skipped = loader.skipped_sections();
  EXPECT_FALSE(skipped.empty());
  const std::set<std::string> names(skipped.begin(), skipped.end());
  EXPECT_TRUE(names.contains("traffic"));
}

TEST(ServingModelLoader, SkipsSampledTrainerState) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  SamplingConfig sampling;
  sampling.fanouts.assign(3, 5);
  auto trainer = TrainerBuilder(ds)
                     .strategy("sampled")
                     .sampling(sampling)
                     .gcn(tiny_gcn(ds))
                     .build();
  trainer->train();
  std::stringstream out;
  trainer->save(out);

  ModelLoader loader(out);
  const std::set<std::string> names(loader.skipped_sections().begin(),
                                    loader.skipped_sections().end());
  EXPECT_TRUE(names.contains("rng"));
}

TEST(ServingModelLoader, RejectsWrongDataset) {
  const Dataset amazon = make_amazon_sim(DatasetScale::kTiny);
  const Dataset protein = make_protein_sim(DatasetScale::kTiny);
  std::istringstream in(serial_snapshot(amazon));
  ModelLoader loader(in);
  EXPECT_THROW(loader.require_compatible(protein),
               ckpt::CheckpointMismatchError);
}

TEST(ServingModelLoader, EdgeDriftFlagRelaxesOnlyTheEdgeCount) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  std::istringstream in(serial_snapshot(ds));
  ModelLoader loader(in);

  // Same dataset with streamed edges absorbed: nnz differs, rest matches.
  Dataset drifted = ds;
  GraphMutator mutator(ds.adjacency);
  vid_t other = ds.n_vertices() - 1;
  while (mutator.at(0, other) != real_t{0}) --other;  // a genuinely new edge
  mutator.insert_edge(0, other, real_t{0.5f});
  drifted.adjacency = mutator.materialize();
  ASSERT_NE(drifted.n_edges(), ds.n_edges());
  EXPECT_THROW(loader.require_compatible(drifted),
               ckpt::CheckpointMismatchError);
  EXPECT_NO_THROW(loader.require_compatible(drifted, /*allow_edge_drift=*/true));

  // The flag must NOT excuse a different dataset identity.
  Dataset wrong = ds;
  wrong.name = "other";
  EXPECT_THROW(loader.require_compatible(wrong, /*allow_edge_drift=*/true),
               ckpt::CheckpointMismatchError);
}

TEST(ServingModelLoader, CorruptionInSkippedSectionIsStillDetected) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  std::string snap = distributed_snapshot(ds);
  // Flip a payload byte of the "traffic" section — a section the loader
  // skips. skip_section() still CRC-checks, so the damage must surface.
  const std::size_t name_pos = snap.find("traffic");
  ASSERT_NE(name_pos, std::string::npos);
  const std::size_t payload_pos = name_pos + 7 + 8 + 2;  // name | u64 len | +2
  ASSERT_LT(payload_pos, snap.size());
  snap[payload_pos] = static_cast<char>(snap[payload_pos] ^ 0x5a);
  std::istringstream in(snap);
  EXPECT_THROW(ModelLoader{in}, ckpt::CheckpointCrcError);
}

TEST(ServingModelLoader, TruncatedStreamThrowsTyped) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const std::string snap = serial_snapshot(ds);
  std::istringstream in(snap.substr(0, snap.size() / 2));
  EXPECT_THROW(ModelLoader{in}, ckpt::CheckpointTruncatedError);
}

TEST(ServingModelLoader, CheckpointWithoutModelSectionIsRejected) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  std::stringstream out;
  {
    ckpt::Serializer s(out);
    TrainConfig cfg;
    cfg.gcn = tiny_gcn(ds);
    ckpt::write_prologue(s, cfg, ds);
    ckpt::write_progress(s, 0, {});
    s.finish();
  }
  EXPECT_THROW(ModelLoader{out}, ckpt::CheckpointFormatError);
}

// ------------------------------------------------------------------ cache

std::vector<real_t> row_of(std::size_t len, real_t fill) {
  return std::vector<real_t>(len, fill);
}

TEST(ServingCache, HitMissAndLruEvictionOrder) {
  // Capacity = 3 rows of 4 floats.
  AggregationCache cache(3 * 4 * sizeof(real_t));
  EXPECT_EQ(cache.lookup(1), nullptr);
  cache.insert(1, row_of(4, 1));
  cache.insert(2, row_of(4, 2));
  cache.insert(3, row_of(4, 3));
  ASSERT_NE(cache.lookup(1), nullptr);  // 1 is now most-recent
  cache.insert(4, row_of(4, 4));        // evicts 2 (least recent)
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
  EXPECT_NE(cache.lookup(4), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes, 3 * 4 * sizeof(real_t));
}

TEST(ServingCache, ByteCapacityBoundsAdmission) {
  AggregationCache cache(10 * sizeof(real_t));
  cache.insert(1, row_of(6, 1));
  cache.insert(2, row_of(6, 2));  // 12 floats > 10: evicts 1
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(2), nullptr);
  cache.insert(3, row_of(11, 3));  // larger than the whole capacity: dropped
  EXPECT_EQ(cache.lookup(3), nullptr);
  EXPECT_LE(cache.stats().bytes, cache.capacity_bytes());
}

TEST(ServingCache, CapacityZeroDisables) {
  AggregationCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(1, row_of(4, 1));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ServingCache, InvalidateRemovesAndCounts) {
  AggregationCache cache(1024);
  cache.insert(7, row_of(4, 7));
  cache.invalidate(7);
  cache.invalidate(8);  // absent: not counted
  EXPECT_EQ(cache.lookup(7), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(ServingCache, InsertOverExistingReplacesValue) {
  AggregationCache cache(1024);
  cache.insert(5, row_of(4, 1));
  cache.insert(5, row_of(8, 2));
  const auto* row = cache.lookup(5);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->size(), 8u);
  EXPECT_EQ(cache.stats().bytes, 8 * sizeof(real_t));
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------------------- mutator

CsrMatrix path_graph(vid_t n) {
  CooMatrix coo(n, n);
  for (vid_t v = 0; v + 1 < n; ++v) {
    coo.add(v, v + 1, real_t{1});
    coo.add(v + 1, v, real_t{1});
  }
  return CsrMatrix::from_coo(coo);
}

TEST(ServingMutator, SymmetricInsertEraseAndValueLookup) {
  GraphMutator g(path_graph(6));
  const eid_t base_nnz = g.nnz();
  EXPECT_TRUE(g.insert_edge(0, 4, real_t{0.5f}));
  EXPECT_FLOAT_EQ(g.at(0, 4), 0.5f);
  EXPECT_FLOAT_EQ(g.at(4, 0), 0.5f);
  EXPECT_EQ(g.nnz(), base_nnz + 2);
  EXPECT_FALSE(g.insert_edge(0, 4, real_t{0.5f}));  // exact duplicate
  EXPECT_TRUE(g.insert_edge(0, 4, real_t{0.7f}));   // value update
  EXPECT_EQ(g.nnz(), base_nnz + 2);
  EXPECT_TRUE(g.erase_edge(0, 4));
  EXPECT_FLOAT_EQ(g.at(0, 4), 0.0f);
  EXPECT_EQ(g.nnz(), base_nnz);
  EXPECT_FALSE(g.erase_edge(0, 4));  // absent: counted no-op
  EXPECT_EQ(g.stats().noop_ops, 2u);

  // Self loop: one entry, not two.
  EXPECT_TRUE(g.insert_edge(3, 3, real_t{1}));
  EXPECT_EQ(g.nnz(), base_nnz + 1);
  EXPECT_FLOAT_EQ(g.at(3, 3), 1.0f);
}

TEST(ServingMutator, ErasingBaseEdgeThenReinsertingRestoresIt) {
  GraphMutator g(path_graph(5));
  EXPECT_TRUE(g.erase_edge(1, 2));
  EXPECT_FLOAT_EQ(g.at(1, 2), 0.0f);
  EXPECT_TRUE(g.insert_edge(1, 2, real_t{1}));
  EXPECT_FLOAT_EQ(g.at(1, 2), 1.0f);
  // Back to the base graph: overlay should have annihilated.
  EXPECT_FALSE(g.has_overlay());
  EXPECT_EQ(g.materialize(), path_graph(5));
}

TEST(ServingMutator, OverlayIterationMatchesMaterializedCsr) {
  GraphMutator g(path_graph(8));
  g.insert_edge(0, 7, real_t{0.25f});
  g.insert_edge(2, 5, real_t{0.125f});
  g.erase_edge(3, 4);
  g.insert_edge(6, 6, real_t{2});
  ASSERT_TRUE(g.has_overlay());

  const CsrMatrix m = g.materialize();
  m.validate();
  EXPECT_EQ(m.nnz(), g.nnz());
  for (vid_t r = 0; r < g.n(); ++r) {
    std::vector<std::pair<vid_t, real_t>> via_overlay;
    g.for_each_nonzero(
        r, [&](vid_t c, real_t v) { via_overlay.emplace_back(c, v); });
    const auto cols = m.row_cols(r);
    const auto vals = m.row_vals(r);
    ASSERT_EQ(via_overlay.size(), cols.size()) << "row " << r;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      EXPECT_EQ(via_overlay[k].first, cols[k]) << "row " << r;
      EXPECT_EQ(via_overlay[k].second, vals[k]) << "row " << r;
      if (k > 0) {
        EXPECT_LT(via_overlay[k - 1].first, via_overlay[k].first);
      }
    }
  }
}

TEST(ServingMutator, CompactionIsALogicalNoOp) {
  GraphMutator g(path_graph(8));
  g.insert_edge(0, 6, real_t{0.5f});
  g.erase_edge(2, 3);
  const CsrMatrix before = g.materialize();
  g.compact();
  EXPECT_FALSE(g.has_overlay());
  EXPECT_EQ(g.materialize(), before);
  EXPECT_EQ(g.stats().compactions, 1u);
}

TEST(ServingMutator, CompactionThresholdAutoCompacts) {
  GraphMutator g(path_graph(32));
  g.set_compaction_threshold(4);
  for (vid_t v = 0; v < 6; ++v) g.insert_edge(v, v + 10, real_t{1});
  EXPECT_GT(g.stats().compactions, 0u);
  EXPECT_LE(g.stats().overlay_entries, 4u);
}

TEST(ServingMutator, DirtyListenerFiresPerChangedRowOnly) {
  GraphMutator g(path_graph(6));
  std::vector<vid_t> dirtied;
  g.set_dirty_listener([&](vid_t v) { dirtied.push_back(v); });
  g.insert_edge(1, 4, real_t{1});
  EXPECT_EQ(dirtied, (std::vector<vid_t>{1, 4}));
  dirtied.clear();
  g.insert_edge(1, 4, real_t{1});  // duplicate: no change, no dirt
  EXPECT_TRUE(dirtied.empty());
  g.erase_edge(0, 5);  // absent: no change, no dirt
  EXPECT_TRUE(dirtied.empty());
  g.insert_edge(2, 2, real_t{1});  // self loop: one row dirtied once
  EXPECT_EQ(dirtied, (std::vector<vid_t>{2}));
}

// ----------------------------------------------------------------- engine

TEST(ServingEngine, MatchesFullForwardBitwiseOnEveryNode) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnModel model(tiny_gcn(ds));
  GraphMutator g(ds.adjacency);
  InferenceEngine engine(model, ds.features, g, /*cache=*/1u << 20);

  const Matrix full = engine.full_forward();
  const Matrix ref = reference_forward(ds.adjacency, ds.features, model);
  ASSERT_TRUE(full == ref);
  for (vid_t v = 0; v < ds.n_vertices(); ++v) {
    const std::vector<real_t> logits = engine.infer_node(v);
    ASSERT_EQ(logits.size(), static_cast<std::size_t>(full.n_cols()));
    EXPECT_TRUE(std::equal(logits.begin(), logits.end(), full.row(v)))
        << "node " << v;
  }
  EXPECT_GT(engine.cache_stats().hits, 0u);  // shared neighborhoods hit
}

TEST(ServingEngine, BatchEqualsPerNodeAnswers) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnModel model(tiny_gcn(ds));
  GraphMutator g(ds.adjacency);
  InferenceEngine engine(model, ds.features, g, 1u << 20);

  const std::vector<vid_t> nodes = {0, 5, 3, 5,
                                    static_cast<vid_t>(ds.n_vertices() - 1)};
  const Matrix batch = engine.infer_batch(nodes);
  ASSERT_EQ(batch.n_rows(), static_cast<vid_t>(nodes.size()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<real_t> single = engine.infer_node(nodes[i]);
    EXPECT_TRUE(std::equal(single.begin(), single.end(),
                           batch.row(static_cast<vid_t>(i))))
        << "node " << nodes[i];
  }
}

TEST(ServingEngine, UpdatesInvalidateExactlyTheAffectedAggregations) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnModel model(tiny_gcn(ds));
  GraphMutator g(ds.adjacency);
  InferenceEngine engine(model, ds.features, g, 1u << 20);

  const vid_t u = 1;
  vid_t w = static_cast<vid_t>(ds.n_vertices() / 2);
  while (g.at(u, w) != real_t{0}) ++w;  // a genuinely new edge
  const std::vector<real_t> before = engine.infer_node(u);
  ASSERT_TRUE(g.insert_edge(u, w, real_t{0.25f}));
  EXPECT_GE(engine.cache_stats().invalidations, 1u);

  // The cached path must see the new edge immediately and bitwise-agree
  // with both the bypass path and the training kernels on the new graph.
  const std::vector<real_t> after = engine.infer_node(u);
  EXPECT_NE(before, after);
  EXPECT_EQ(after, engine.infer_node_bypass(u));
  const Matrix ref = reference_forward(g.materialize(), ds.features, model);
  EXPECT_TRUE(std::equal(after.begin(), after.end(), ref.row(u)));
}

// --------------------------------------------------- randomized property

/// Shadow model of the logical graph: every directed arc with its value.
std::map<std::pair<vid_t, vid_t>, real_t> arcs_of(const CsrMatrix& a) {
  std::map<std::pair<vid_t, vid_t>, real_t> arcs;
  for (vid_t r = 0; r < a.n_rows(); ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_vals(r);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      arcs[{r, cols[k]}] = vals[k];
    }
  }
  return arcs;
}

CsrMatrix csr_of(vid_t n, const std::map<std::pair<vid_t, vid_t>, real_t>& arcs) {
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<vid_t> col_idx;
  std::vector<real_t> vals;
  for (const auto& [arc, v] : arcs) {
    ++row_ptr[static_cast<std::size_t>(arc.first) + 1];
    col_idx.push_back(arc.second);
    vals.push_back(v);
  }
  for (vid_t r = 0; r < n; ++r) {
    row_ptr[static_cast<std::size_t>(r) + 1] += row_ptr[static_cast<std::size_t>(r)];
  }
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx), std::move(vals));
}

/// The ISSUE-level property: after an arbitrary seeded interleaved
/// insert/delete/query stream, every served output is bitwise equal to a
/// from-scratch forward pass on the compacted graph — across cache
/// capacities {disabled, tiny, unbounded} and thread counts {1, 4}.
TEST(ServingProperty, InterleavedStreamsStayBitwiseExact) {
  const Dataset ds = make_amazon_sim(DatasetScale::kTiny);
  const GcnModel model(tiny_gcn(ds));
  const vid_t n = ds.n_vertices();
  const std::size_t row_bytes =
      static_cast<std::size_t>(ds.n_features()) * sizeof(real_t);
  const std::size_t capacities[] = {0, 3 * row_bytes, std::size_t{1} << 30};

  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const std::size_t capacity : capacities) {
      for (const std::uint64_t seed : {11ull, 12ull}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " capacity=" +
                     std::to_string(capacity) + " seed=" + std::to_string(seed));
        Rng rng(seed);
        GraphMutator g(ds.adjacency);
        g.set_compaction_threshold(48);  // exercise mid-stream compactions
        InferenceEngine engine(model, ds.features, g, capacity);
        auto shadow = arcs_of(ds.adjacency);

        auto rand_vertex = [&] {
          return static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(n)));
        };
        std::vector<vid_t> queried;
        for (int op = 0; op < 160; ++op) {
          const double dice = rng.next_double();
          if (dice < 0.25) {
            const vid_t u = rand_vertex(), v = rand_vertex();
            const real_t w = rng.uniform(0.1f, 1.0f);
            g.insert_edge(u, v, w);
            shadow[{u, v}] = w;
            shadow[{v, u}] = w;
          } else if (dice < 0.45) {
            const vid_t u = rand_vertex(), v = rand_vertex();
            const bool existed = shadow.erase({u, v}) > 0;
            shadow.erase({v, u});
            EXPECT_EQ(g.erase_edge(u, v), existed);
          } else {
            const vid_t v = rand_vertex();
            queried.push_back(v);
            const std::vector<real_t> served = engine.infer_node(v);
            ASSERT_EQ(served, engine.infer_node_bypass(v));
          }
        }

        // The mutator's graph must BE the shadow graph...
        const CsrMatrix expected = csr_of(n, shadow);
        ASSERT_EQ(g.materialize(), expected);
        g.compact();
        ASSERT_EQ(g.materialize(), expected);
        // ...and every answer must be the from-scratch forward, bitwise.
        const Matrix scratch = reference_forward(expected, ds.features, model);
        if (queried.empty()) queried.push_back(0);
        const Matrix served = engine.infer_batch(queried);
        for (std::size_t i = 0; i < queried.size(); ++i) {
          const real_t* a = served.row(static_cast<vid_t>(i));
          const real_t* b = scratch.row(queried[i]);
          ASSERT_TRUE(std::equal(a, a + served.n_cols(), b))
              << "node " << queried[i];
        }
        ASSERT_TRUE(engine.full_forward() == scratch);
      }
    }
  }
  set_parallel_threads(0);  // restore the environment default
}

}  // namespace
}  // namespace sagnn