// Online-serving study for the src/serve/ subsystem: load a trained
// checkpoint through serve::ModelLoader (no Trainer constructed), stand up
// an InferenceEngine over a GraphMutator, and replay a Zipf-distributed
// per-node query stream interleaved with streaming edge updates at a
// configurable rate — the standard skewed-access serving workload.
//
// Reported per cache configuration (capacity sweep: disabled / tiny /
// unbounded): queries/sec, p50/p99 query latency, cache hit rate, and the
// mutator's compaction count. While running, the bench
// VERIFIES the subsystem's core promise:
//
//   * cached answers are BITWISE identical to cache-bypassed answers,
//     continuously sampled throughout the stream (i.e. invalidation is
//     exact — stale cache entries would show up here);
//   * per-node answers are BITWISE identical to a full-graph forward pass
//     with the training kernels on the materialized graph;
//   * compacting the delta overlay changes NO answer bitwise, and the
//     aggregation cache survives compaction.
//
// Any violation exits nonzero so CI can gate on this binary. Results are
// appended to BENCH_serving.json, which CI uploads as a workflow artifact
// next to BENCH_wallclock.json and BENCH_checkpoint.json.
//
// Usage: bench_serving [--smoke]
//   --smoke  tiny dataset, short stream — the CI configuration.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "gnn/trainer.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_loader.hpp"

using namespace sagnn;
using namespace sagnn::bench;

namespace {

struct Record {
  std::string dataset;
  vid_t n = 0;
  std::size_t cache_capacity_bytes = 0;
  int queries = 0;
  int updates = 0;
  double zipf_exponent = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double hit_rate = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t compactions = 0;
  bool ok = false;
};

std::vector<Record> g_records;
int g_violations = 0;

void emit_json(const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    out << "  {\"dataset\": \"" << r.dataset << "\", \"n\": " << r.n
        << ", \"cache_capacity_bytes\": " << r.cache_capacity_bytes
        << ", \"queries\": " << r.queries << ", \"updates\": " << r.updates
        << ", \"zipf_exponent\": " << r.zipf_exponent
        << ", \"queries_per_second\": " << r.qps
        << ", \"p50_latency_ms\": " << r.p50_ms
        << ", \"p99_latency_ms\": " << r.p99_ms
        << ", \"cache_hit_rate\": " << r.hit_rate
        << ", \"evictions\": " << r.evictions
        << ", \"invalidations\": " << r.invalidations
        << ", \"compactions\": " << r.compactions
        << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
        << (i + 1 < g_records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "\nwrote " << g_records.size() << " records to " << path << "\n";
}

double percentile(std::vector<double> sorted_already_or_not, double q) {
  std::sort(sorted_already_or_not.begin(), sorted_already_or_not.end());
  if (sorted_already_or_not.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_already_or_not.size() - 1));
  return sorted_already_or_not[idx];
}

/// Train a short distributed run and snapshot it — distributed on purpose:
/// its checkpoint carries mode-specific sections ("traffic", "rank_cpu")
/// the ModelLoader must skip, exercising the any-mode loading contract.
std::string make_checkpoint(const Dataset& ds, int epochs) {
  GcnConfig cfg = GcnConfig::paper_3layer(ds.n_features(), ds.n_classes, epochs);
  cfg.learning_rate = 0.3f;
  auto trainer = TrainerBuilder(ds)
                     .strategy("1d-sparse")
                     .ranks(2)
                     .partitioner("gvb")
                     .gcn(cfg)
                     .build();
  trainer->train();
  std::stringstream snapshot;
  trainer->save(snapshot);
  return snapshot.str();
}

/// One Zipf-replay scenario at a fixed cache capacity. Returns the record.
void run_scenario(const Dataset& ds, const serve::ModelLoader& loader,
                  std::size_t cache_bytes, int n_queries, int update_every,
                  double zipf_s, std::uint64_t seed, Table& table) {
  Record rec;
  rec.dataset = ds.name;
  rec.n = ds.n_vertices();
  rec.cache_capacity_bytes = cache_bytes;
  rec.queries = n_queries;
  rec.zipf_exponent = zipf_s;
  rec.ok = true;

  serve::GraphMutator mutator(ds.adjacency);
  mutator.set_compaction_threshold(1024);
  serve::InferenceEngine engine(loader.model(), ds.features, mutator,
                                cache_bytes);

  Rng rng(seed);
  const ZipfSampler zipf(zipf_s, static_cast<std::uint64_t>(ds.n_vertices()));
  std::vector<std::pair<vid_t, vid_t>> inserted;

  auto random_vertex = [&] {
    return static_cast<vid_t>(
        rng.next_below(static_cast<std::uint64_t>(ds.n_vertices())));
  };

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(n_queries));
  const int check_every = std::max(1, n_queries / 25);
  WallTimer total;
  for (int q = 0; q < n_queries; ++q) {
    if (update_every > 0 && q > 0 && q % update_every == 0) {
      ++rec.updates;
      if (!inserted.empty() && rng.bernoulli(0.5)) {
        const auto idx = static_cast<std::size_t>(
            rng.next_below(static_cast<std::uint64_t>(inserted.size())));
        const auto [u, v] = inserted[idx];
        inserted.erase(inserted.begin() + static_cast<std::ptrdiff_t>(idx));
        mutator.erase_edge(u, v);
      } else {
        const vid_t u = random_vertex();
        const vid_t v = random_vertex();
        if (mutator.insert_edge(u, v, real_t{0.05f})) {
          inserted.emplace_back(u, v);
        }
      }
    }
    const auto target = static_cast<vid_t>(zipf.sample(rng));
    WallTimer t;
    const std::vector<real_t> logits = engine.infer_node(target);
    latencies.push_back(t.seconds());
    if (q % check_every == 0) {
      // Continuous exactness sampling: the cached answer must be bitwise
      // the bypass answer on the CURRENT graph (stale entries fail here).
      if (logits != engine.infer_node_bypass(target)) {
        std::cerr << "CACHED/BYPASS MISMATCH at query " << q << " (node "
                  << target << ", cache " << cache_bytes << "B)\n";
        rec.ok = false;
      }
    }
  }
  const double elapsed = total.seconds();

  // End-of-stream identity chain: batch answers vs the training kernels'
  // full-graph forward on the materialized graph, then across compaction.
  std::vector<vid_t> sample;
  for (int i = 0; i < 32; ++i) sample.push_back(random_vertex());
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  const Matrix before = engine.infer_batch(sample);
  const Matrix full = engine.full_forward();
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const real_t* a = before.row(static_cast<vid_t>(i));
    const real_t* b = full.row(sample[i]);
    if (!std::equal(a, a + before.n_cols(), b)) {
      std::cerr << "PER-NODE/FULL-FORWARD MISMATCH at node " << sample[i]
                << " (cache " << cache_bytes << "B)\n";
      rec.ok = false;
      break;
    }
  }
  const bool had_overlay = mutator.has_overlay();
  mutator.compact();
  const Matrix after = engine.infer_batch(sample);
  if (!(before == after)) {
    std::cerr << "COMPACTION CHANGED ANSWERS (cache " << cache_bytes
              << "B, overlay " << (had_overlay ? "present" : "empty") << ")\n";
    rec.ok = false;
  }

  const auto& cs = engine.cache_stats();
  rec.qps = elapsed > 0 ? static_cast<double>(n_queries) / elapsed : 0;
  rec.p50_ms = percentile(latencies, 0.50) * 1e3;
  rec.p99_ms = percentile(latencies, 0.99) * 1e3;
  rec.hit_rate = cs.hit_rate();
  rec.evictions = cs.evictions;
  rec.invalidations = cs.invalidations;
  rec.compactions = mutator.stats().compactions;
  if (!rec.ok) ++g_violations;
  g_records.push_back(rec);

  const std::string cap =
      cache_bytes == 0
          ? "off"
          : (cache_bytes >= (std::size_t{1} << 40)
                 ? "unbounded"
                 : std::to_string(cache_bytes / 1024) + " KiB");
  table.add_row({cap, std::to_string(n_queries), std::to_string(rec.updates),
                 Table::num(rec.qps, 4), ms(rec.p50_ms / 1e3),
                 ms(rec.p99_ms / 1e3),
                 Table::num(rec.hit_rate * 100.0, 3) + "%",
                 std::to_string(rec.evictions),
                 std::to_string(rec.compactions),
                 rec.ok ? "bitwise" : "FAIL"});
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  preamble("Serving — Zipf query stream over a mutating graph",
           "Loads a trained checkpoint WITHOUT a Trainer (serve::ModelLoader),\n"
           "then replays a Zipf-distributed per-node query stream interleaved\n"
           "with streaming edge updates, sweeping the aggregation-cache\n"
           "capacity. Cached, cache-bypassed, and post-compaction answers are\n"
           "asserted BITWISE identical to the training kernels' full-graph\n"
           "forward throughout. Exit 1 on violation.");

  const std::uint64_t seed = 20260809;
  std::cout << "workload seed: " << seed << (smoke ? " (smoke)" : "") << "\n";

  const DatasetScale scale = smoke ? DatasetScale::kTiny : DatasetScale::kSmall;
  const Dataset ds = make_amazon_sim(scale);
  const int n_queries = smoke ? 400 : 4000;
  const int update_every = 8;  // one edge update per 8 queries
  const double zipf_s = 1.1;

  const std::string snapshot = make_checkpoint(ds, smoke ? 2 : 5);
  std::istringstream in(snapshot);
  serve::ModelLoader loader(in);
  loader.require_compatible(ds);
  std::cout << "checkpoint: " << snapshot.size() << " bytes, "
            << loader.epochs_trained() << " epochs trained, skipped sections:";
  for (const std::string& s : loader.skipped_sections()) std::cout << " " << s;
  std::cout << "\n";

  // Capacity sweep: disabled / a few hot rows / everything fits. The tiny
  // capacity forces constant eviction pressure; the unbounded one shows
  // the update-invalidation rate as the only source of misses.
  const std::size_t row_bytes =
      static_cast<std::size_t>(ds.n_features()) * sizeof(real_t);
  print_banner(std::cout, ds.name + " — cache capacity sweep (row = " +
                              std::to_string(row_bytes) + " B)");
  Table table({"cache", "queries", "updates", "qps", "p50", "p99", "hit",
               "evict", "compact", "verdict"});
  run_scenario(ds, loader, 0, n_queries, update_every, zipf_s, seed, table);
  run_scenario(ds, loader, row_bytes * 64, n_queries, update_every, zipf_s,
               seed, table);
  run_scenario(ds, loader, std::size_t{1} << 40, n_queries, update_every,
               zipf_s, seed, table);
  table.print(std::cout);

  emit_json("BENCH_serving.json");
  if (g_violations > 0) {
    std::cerr << g_violations << " serving invariant violation(s)\n";
    return 1;
  }
  std::cout << "all serving identity invariants held\n";
  return 0;
}
