// The serving and checkpoint layers. After train-compute's timed window, a
// short 1d-sparse training run is saved with Trainer::save into memory and
// loaded with serve::ModelLoader; one client then runs a closed loop of
// Zipf(1.1) infer_node queries against an InferenceEngine, with one edge
// insert or erase every 8 queries. The engine is single-threaded by
// contract and has no queue, so the loop is closed: the next query is sent
// when the previous answer arrives.
//
// This phase reports per-layer metrics only. As a workload of its own, its
// median query time moved 10-25% between runs with the host's load, more
// than any bound the benchmark may set, so it gates no end-to-end metric.

#include <algorithm>
#include <bit>
#include <iostream>
#include <memory>
#include <sstream>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "gnn/distributed_trainer.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_loader.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sagnn;

namespace {

constexpr int kTrainEpochs = 5;
constexpr int kSaveReps = 5;
constexpr int kSetupReps = 5;  ///< checkpoint load plus engine construction
constexpr int kMeasuredQueries = 8000;
constexpr int kUpdateEvery = 8;
constexpr int kCheckEvery = 64;       ///< cached vs bypass answer sampling
constexpr int kWarmupQueries = 1000;  ///< fills the cache before timing
constexpr std::size_t kCompactionThreshold = 1024;
constexpr double kZipfExponent = 1.1;
constexpr int kTraceFileQueries = kWarmupQueries + 2000;

double ms(double seconds) { return seconds * 1e3; }
double us(double seconds) { return seconds * 1e6; }

/// One serving stack: the mutating graph and the engine subscribed to it.
struct Stack {
  std::unique_ptr<serve::GraphMutator> graph;
  std::unique_ptr<serve::InferenceEngine> engine;

  /// The engine holds a reference to the graph, so it goes first.
  void clear() {
    engine.reset();
    graph.reset();
  }
};

/// The client's query and update stream; a pure function of its seed.
class Client {
 public:
  Client(std::uint64_t seed, vid_t n) : rng_(seed), zipf_(kZipfExponent, n), n_(n) {}

  /// Issue query number `queries_` (with its update, if one is due).
  /// Latencies in seconds go to the given vectors; `log` adds spans.
  void step(Stack& s, Report& rep, std::vector<double>& query_s,
            std::vector<double>& update_s, std::vector<double>& bypass_s,
            SpanLog* log) {
    const int q = static_cast<int>(queries_++);
    if (q > 0 && q % kUpdateEvery == 0) {
      std::unique_ptr<Scope> span;
      if (log) span = std::make_unique<Scope>(*log, 0, q, "update", "serve");
      WallTimer t;
      if (!inserted_.empty() && rng_.bernoulli(0.5)) {
        const auto idx = static_cast<std::size_t>(
            rng_.next_below(static_cast<std::uint64_t>(inserted_.size())));
        const auto [u, v] = inserted_[idx];
        inserted_[idx] = inserted_.back();
        inserted_.pop_back();
        rep.check(s.graph->erase_edge(u, v), "erase of an inserted edge was a no-op");
      } else {
        const auto u = random_vertex();
        const auto v = random_vertex();
        if (s.graph->insert_edge(u, v, real_t{0.05f})) inserted_.emplace_back(u, v);
        rep.attempt();
      }
      update_s.push_back(t.seconds());
    }
    const auto target = static_cast<vid_t>(zipf_.sample(rng_));
    std::vector<real_t> logits;
    {
      std::unique_ptr<Scope> span;
      if (log) span = std::make_unique<Scope>(*log, 0, q, "infer_node", "serve");
      WallTimer t;
      logits = s.engine->infer_node(target);
      query_s.push_back(t.seconds());
    }
    rep.attempt();
    for (real_t x : logits) {
      checksum_ = checksum_ * 1099511628211ull ^ std::bit_cast<std::uint32_t>(x);
    }
    if (q % kCheckEvery == 0) {
      std::unique_ptr<Scope> span;
      if (log) span = std::make_unique<Scope>(*log, 0, q, "infer_node_bypass", "serve");
      WallTimer t;
      const std::vector<real_t> bypass = s.engine->infer_node_bypass(target);
      bypass_s.push_back(t.seconds());
      rep.check(bypass == logits, "cached answer for node " + std::to_string(target) +
                                      " differs from the bypass answer");
    }
  }

  std::int64_t queries() const { return queries_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  vid_t random_vertex() {
    return static_cast<vid_t>(rng_.next_below(static_cast<std::uint64_t>(n_)));
  }

  Rng rng_;
  ZipfSampler zipf_;
  vid_t n_;
  std::vector<std::pair<vid_t, vid_t>> inserted_;
  std::int64_t queries_ = 0;
  std::uint64_t checksum_ = 14695981039346656037ull;
};

/// Counters of the measured window (after warm-up).
struct Window {
  serve::AggregationCache::Stats cache;
  std::uint64_t compactions = 0;
  std::int64_t queries = 0;
};

Window window_since(const Stack& s, std::uint64_t compactions_before,
                    std::int64_t queries) {
  return {s.engine->cache_stats(), s.graph->stats().compactions - compactions_before,
          queries};
}

/// infer_batch against full_forward() rows, before and after compact().
void check_end_of_stream(Stack& s, std::uint64_t seed, Report& rep) {
  Rng rng(seed);
  std::vector<vid_t> sample;
  const auto n = static_cast<std::uint64_t>(s.graph->n());
  for (int i = 0; i < 64; ++i) sample.push_back(static_cast<vid_t>(rng.next_below(n)));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());
  const Matrix before = s.engine->infer_batch(sample);
  const Matrix full = s.engine->full_forward();
  bool same = true;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const real_t* a = before.row(static_cast<vid_t>(i));
    same = same && std::equal(a, a + before.n_cols(), full.row(sample[i]));
  }
  rep.check(same, "infer_batch departs from full_forward()");
  s.graph->compact();
  rep.check(s.engine->infer_batch(sample) == before, "compact() changed an answer");
}

}  // namespace

void run_serving_phase(const Dataset& ds, const Options& opt, Report& rep,
                       CountGuard& guard) {
  // Training input: a short 1d-sparse run, saved into memory.
  GcnConfig gcn = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, kTrainEpochs);
  gcn.seed = derive_seed(opt.seed, 2);
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(4)
                     .partitioner("block")
                     .threads(host_threads())
                     .gcn(gcn)
                     .build();
  const std::vector<EpochMetrics> losses = trainer->train();
  std::string snapshot;
  std::vector<double> save_s;
  for (int i = 0; i < kSaveReps; ++i) {
    std::ostringstream out;
    WallTimer t;
    trainer->save(out);
    save_s.push_back(t.seconds());
    rep.check(i == 0 || out.str() == snapshot, "two saves of one trainer differ");
    snapshot = out.str();
  }
  const GcnModel trained = dynamic_cast<DistributedTrainer&>(*trainer).model();
  trainer.reset();
  for (std::size_t e = 0; e < losses.size(); ++e) {
    guard.put("serve.loss.e" + std::to_string(e), losses[e].loss);
  }
  guard.put("ckpt.snapshot_bytes", static_cast<double>(snapshot.size()));

  // Set-up: checkpoint load plus engine construction.
  const std::size_t row_bytes =
      static_cast<std::size_t>(ds.n_features()) * sizeof(real_t);
  const std::size_t cache_bytes =
      static_cast<std::size_t>(ds.n_vertices() / 10) * row_bytes;
  std::vector<double> load_s;
  auto build = [&](SpanLog* log) {
    Stack s;
    std::unique_ptr<Scope> span;
    if (log) span = std::make_unique<Scope>(*log, 0, -1, "ckpt_load", "ckpt");
    WallTimer t;
    std::istringstream in(snapshot);
    serve::ModelLoader loader(in);
    loader.require_compatible(ds);
    load_s.push_back(t.seconds());
    span.reset();
    if (log) span = std::make_unique<Scope>(*log, 0, -1, "engine_build", "serve");
    s.graph = std::make_unique<serve::GraphMutator>(ds.adjacency);
    s.graph->set_compaction_threshold(kCompactionThreshold);
    s.engine = std::make_unique<serve::InferenceEngine>(
        loader.take_model(), ds.features, *s.graph, cache_bytes);
    span.reset();
    bool same = s.engine->model().n_layers() == trained.n_layers();
    for (int l = 0; same && l < trained.n_layers(); ++l) {
      same = s.engine->model().layer(l).weights() == trained.layer(l).weights();
    }
    rep.check(same, "loaded weights differ from the trained ones");
    return s;
  };
  Stack stack;
  for (int i = 0; i < kSetupReps; ++i) {
    stack.clear();
    stack = build(nullptr);
  }

  // Warm-up: fills the cache; its counters are exact per seed.
  const std::uint64_t stream_seed = derive_seed(opt.seed, 3);
  Client client(stream_seed, ds.n_vertices());
  std::vector<double> query_s, update_s, bypass_s;
  for (int q = 0; q < kWarmupQueries; ++q) {
    client.step(stack, rep, query_s, update_s, bypass_s, nullptr);
  }
  {
    const auto& c = stack.engine->cache_stats();
    guard.put("warmup.cache_hits", static_cast<double>(c.hits));
    guard.put("warmup.cache_misses", static_cast<double>(c.misses));
    guard.put("warmup.cache_evictions", static_cast<double>(c.evictions));
    guard.put("warmup.cache_invalidations", static_cast<double>(c.invalidations));
    guard.put("warmup.compactions",
              static_cast<double>(stack.graph->stats().compactions));
    guard.put("warmup.answer_checksum", std::to_string(client.checksum()));
  }
  stack.engine->cache().reset_counters();
  const std::uint64_t compactions_before = stack.graph->stats().compactions;

  // Measured closed loop: a fixed number of queries.
  query_s.clear();
  update_s.clear();
  bypass_s.clear();
  while (client.queries() < kWarmupQueries + kMeasuredQueries) {
    client.step(stack, rep, query_s, update_s, bypass_s, nullptr);
  }
  const Window measured = window_since(stack, compactions_before, kMeasuredQueries);
  const std::uint64_t checksum = client.checksum();
  guard.put("serve.cache_hits", static_cast<double>(measured.cache.hits));
  guard.put("serve.answer_checksum", std::to_string(checksum));
  check_end_of_stream(stack, derive_seed(opt.seed, 4), rep);
  stack.clear();
  std::cout << "serving: " << kMeasuredQueries << " infer_node queries after "
            << kWarmupQueries << " warm-up, " << update_s.size()
            << " updates; query p50 " << us(median(query_s)) << " us, p99 "
            << us(quantile(query_s, 0.99)) << " us (host wall, not gated)\n";

  const double per_1k = 1000.0 / kMeasuredQueries;
  rep.set("serve.cache_hit_ratio", measured.cache.hit_rate(), "ratio");
  rep.set("serve.cache_hits", static_cast<double>(measured.cache.hits), "count");
  rep.set("serve.cache_misses", static_cast<double>(measured.cache.misses), "count");
  rep.set("serve.cache_evictions_per_1k",
          static_cast<double>(measured.cache.evictions) * per_1k, "count");
  rep.set("serve.cache_invalidations_per_1k",
          static_cast<double>(measured.cache.invalidations) * per_1k, "count");
  rep.set("serve.compactions_per_1k",
          static_cast<double>(measured.compactions) * per_1k, "count");
  rep.set("ckpt.save_ms", ms(median(save_s)), "ms");
  rep.set("ckpt.snapshot_bytes", static_cast<double>(snapshot.size()), "bytes");
  rep.set("ckpt.load_ms", ms(median(load_s)), "ms");
  if (!opt.trace) return;

  // The same stream on a fresh stack, with spans.
  SpanLog log(0);
  log.track(0).reserve(static_cast<std::size_t>(client.queries()) * 2 + 16);
  Stack traced = build(&log);
  Client replay(stream_seed, ds.n_vertices());
  std::vector<double> tq, tu, tb;
  while (replay.queries() < kWarmupQueries) {
    replay.step(traced, rep, tq, tu, tb, &log);
  }
  traced.engine->cache().reset_counters();
  const std::uint64_t traced_compactions = traced.graph->stats().compactions;
  tq.clear();
  tu.clear();
  tb.clear();
  while (replay.queries() < client.queries()) {
    replay.step(traced, rep, tq, tu, tb, &log);
  }
  const Window again = window_since(traced, traced_compactions, kMeasuredQueries);
  rep.check(replay.checksum() == checksum &&
                again.cache.hits == measured.cache.hits &&
                again.cache.misses == measured.cache.misses &&
                again.cache.evictions == measured.cache.evictions &&
                again.compactions == measured.compactions,
            "traced replay of the query stream departs from the untraced run");
  traced.clear();
  rep.set("serve.bypass_us_p50", us(median(tb)), "us");
  rep.set("serve.update_us_p50", us(median(tu)), "us");
  rep.set("serve.update_us_p99", us(quantile(tu, 0.99)), "us");
  if (!opt.trace_file.empty()) {
    // Beside the training trace: <workload>-<seed>.json -> ...-serve.json.
    const std::string& path = opt.trace_file;
    const std::size_t dot = path.rfind(".json");
    log.write_chrome_trace(path.substr(0, dot) + "-serve.json", kTraceFileQueries);
  }
}

}  // namespace perfbench
