#include "gnn/sampled_trainer.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "ckpt/state_io.hpp"
#include "dense/gemm.hpp"

namespace sagnn {

SampledTrainer::SampledTrainer(const Dataset& dataset, GcnConfig config,
                               SamplingConfig sampling)
    : dataset_(dataset),
      config_(std::move(config)),
      sampling_(std::move(sampling)),
      model_(config_),
      rng_(sampling_.seed) {
  SAGNN_REQUIRE(config_.dims.front() == dataset.n_features(),
                "config input width must match dataset features");
  SAGNN_REQUIRE(config_.dims.back() == dataset.n_classes,
                "config output width must match dataset classes");
  SAGNN_REQUIRE(static_cast<int>(sampling_.fanouts.size()) == config_.n_layers(),
                "need one fanout per GCN layer");
  SAGNN_REQUIRE(sampling_.batch_size > 0, "batch size must be positive");
  for (vid_t f : sampling_.fanouts) {
    SAGNN_REQUIRE(f > 0, "fanouts must be positive");
  }
  for (vid_t v = 0; v < dataset.n_vertices(); ++v) {
    if (dataset.train_mask[static_cast<std::size_t>(v)]) {
      train_vertices_.push_back(v);
    }
  }
  SAGNN_REQUIRE(!train_vertices_.empty(), "dataset has no training vertices");
}

std::vector<SampledTrainer::SampledLayer> SampledTrainer::sample_batch(
    const std::vector<vid_t>& batch) {
  const int layers = config_.n_layers();
  std::vector<SampledLayer> out(static_cast<std::size_t>(layers));

  // Walk from the output layer inwards: the targets of layer l are the
  // sources of layer l+1; the innermost sources index the feature matrix.
  std::vector<vid_t> targets = batch;
  for (int l = layers - 1; l >= 0; --l) {
    const vid_t fanout = sampling_.fanouts[static_cast<std::size_t>(l)];

    // Sample up to `fanout` neighbors per target (plus the target itself —
    // Â has self-loops, and keeping them preserves the skip connection).
    std::vector<vid_t> sources;
    std::unordered_map<vid_t, vid_t> source_index;
    auto intern = [&](vid_t v) {
      auto [it, inserted] = source_index.try_emplace(v, static_cast<vid_t>(sources.size()));
      if (inserted) sources.push_back(v);
      return it->second;
    };

    // Collect triples with interned column ids, then build the block once
    // the source count is known.
    std::vector<CooEntry> entries;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const vid_t v = targets[t];
      const auto cols = dataset_.adjacency.row_cols(v);
      const auto vals = dataset_.adjacency.row_vals(v);
      const auto deg = static_cast<vid_t>(cols.size());
      if (deg <= fanout) {
        // Keep the exact neighborhood; no rescaling needed.
        for (vid_t k = 0; k < deg; ++k) {
          entries.push_back({static_cast<vid_t>(t), intern(cols[k]), vals[k]});
        }
      } else {
        // Uniform sample without replacement (Floyd's algorithm), value
        // rescaled by deg/fanout so the aggregate is unbiased.
        const real_t scale = static_cast<real_t>(deg) / static_cast<real_t>(fanout);
        std::unordered_map<vid_t, bool> chosen;
        for (vid_t j = deg - fanout; j < deg; ++j) {
          auto r = static_cast<vid_t>(rng_.next_below(static_cast<std::uint64_t>(j) + 1));
          if (chosen.count(r)) r = j;
          chosen[r] = true;
          entries.push_back(
              {static_cast<vid_t>(t), intern(cols[r]), vals[r] * scale});
        }
      }
    }

    CooMatrix coo(static_cast<vid_t>(targets.size()),
                  static_cast<vid_t>(sources.size()));
    for (const auto& e : entries) coo.add(e.row, e.col, e.val);
    out[static_cast<std::size_t>(l)].block = CsrMatrix::from_coo(coo);
    out[static_cast<std::size_t>(l)].sources = sources;
    targets = std::move(sources);
  }
  return out;
}

SampledEpochMetrics SampledTrainer::run_epoch_detailed() {
  SampledEpochMetrics metrics;
  // Shuffled pass over the training vertices.
  std::vector<vid_t> order = train_vertices_;
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng_.next_below(i + 1));
    std::swap(order[i], order[j]);
  }

  double loss_sum = 0;
  std::int64_t correct = 0, count = 0;
  for (std::size_t begin = 0; begin < order.size();
       begin += static_cast<std::size_t>(sampling_.batch_size)) {
    const std::size_t end =
        std::min(order.size(), begin + static_cast<std::size_t>(sampling_.batch_size));
    const std::vector<vid_t> batch(order.begin() + static_cast<std::ptrdiff_t>(begin),
                                   order.begin() + static_cast<std::ptrdiff_t>(end));
    auto layers = sample_batch(batch);
    for (const auto& l : layers) metrics.sampled_edges += l.block.nnz();

    // Forward through the sampled computation graph.
    Matrix h = dataset_.features.gather_rows(layers.front().sources);
    for (int l = 0; l < config_.n_layers(); ++l) {
      Matrix m = spmm(layers[static_cast<std::size_t>(l)].block, h);
      h = model_.layer(l).forward(std::move(m));
    }

    // Batch loss: every row of the final output is a batch vertex.
    std::vector<vid_t> labels(batch.size());
    std::vector<std::uint8_t> ones(batch.size(), 1);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      labels[i] = dataset_.labels[static_cast<std::size_t>(batch[i])];
    }
    const LossStats stats = softmax_xent_stats(h, labels, ones);
    loss_sum += stats.loss_sum;
    correct += stats.correct;
    count += stats.count;
    ++metrics.batches;

    // Backward + SGD step (per mini-batch, as mini-batch training does).
    Matrix d_h = softmax_xent_grad(h, labels, ones, stats.count);
    std::vector<Matrix> d_weights(static_cast<std::size_t>(config_.n_layers()));
    for (int l = config_.n_layers() - 1; l >= 0; --l) {
      auto back = model_.layer(l).backward(d_h);
      d_weights[static_cast<std::size_t>(l)] = std::move(back.d_weights);
      if (l > 0) {
        d_h = spmm(layers[static_cast<std::size_t>(l)].block.transpose(),
                   back.d_m);
      }
    }
    for (int l = 0; l < config_.n_layers(); ++l) {
      model_.layer(l).apply_gradient(d_weights[static_cast<std::size_t>(l)],
                                     config_.learning_rate);
    }
  }
  metrics.loss = count > 0 ? loss_sum / count : 0.0;
  metrics.train_accuracy = count > 0 ? static_cast<double>(correct) / count : 0.0;
  detailed_.push_back(metrics);
  metrics_.push_back({metrics.loss, metrics.train_accuracy});
  return metrics;
}

EpochMetrics SampledTrainer::run_epoch() {
  (void)run_epoch_detailed();
  return metrics_.back();
}

const std::vector<EpochMetrics>& SampledTrainer::train() {
  while (epochs_run() < config_.epochs) {
    (void)run_epoch_detailed();
    maybe_auto_checkpoint(epochs_run());
  }
  return metrics_;
}

const TrainResult& SampledTrainer::result() {
  result_.epochs = metrics_;
  return result_;
}

const std::vector<SampledEpochMetrics>& SampledTrainer::train_detailed() {
  while (epochs_run() < config_.epochs) {
    (void)run_epoch_detailed();
    maybe_auto_checkpoint(epochs_run());
  }
  return detailed_;
}

void SampledTrainer::save(std::ostream& out) {
  ckpt::Serializer s(out);
  TrainConfig cfg;
  cfg.gcn = config_;
  cfg.strategy = "sampled";
  cfg.sampling = sampling_;
  ckpt::write_prologue(s, cfg, dataset_);
  ckpt::write_progress(s, epochs_run(), metrics_);
  s.begin_section("model");
  ckpt::write_model(s, model_);
  s.end_section();
  s.begin_section("rng");
  ckpt::write_rng(s, rng_);
  s.end_section();
  s.begin_section("sampled_metrics");
  s.write_u64(detailed_.size());
  for (const SampledEpochMetrics& m : detailed_) {
    s.write_f64(m.loss);
    s.write_f64(m.train_accuracy);
    s.write_i64(m.sampled_edges);
    s.write_i64(m.batches);
  }
  s.end_section();
  s.finish();
}

void SampledTrainer::restore(ckpt::Deserializer& d, const TrainConfig& /*saved*/) {
  const int epoch = ckpt::read_progress(d, metrics_);
  d.enter_section("model");
  ckpt::read_model_into(d, model_);
  d.leave_section();
  d.enter_section("rng");
  rng_ = ckpt::read_rng(d);
  d.leave_section();
  d.enter_section("sampled_metrics");
  detailed_ =
      d.read_vector<SampledEpochMetrics>([](ckpt::Deserializer& x) {
        SampledEpochMetrics m;
        m.loss = x.read_f64();
        m.train_accuracy = x.read_f64();
        m.sampled_edges = x.read_i64();
        m.batches = x.read_i64();
        return m;
      });
  d.leave_section();
  if (detailed_.size() != static_cast<std::size_t>(epoch)) {
    throw ckpt::CheckpointFormatError(
        "section 'sampled_metrics': detailed trajectory length " +
        std::to_string(detailed_.size()) + " disagrees with epoch count " +
        std::to_string(epoch));
  }
}

LossStats SampledTrainer::evaluate() const {
  Matrix h = dataset_.features;
  GcnModel model_copy = model_;  // forward() caches; keep eval const
  for (int l = 0; l < model_copy.n_layers(); ++l) {
    Matrix m = spmm(dataset_.adjacency, h);
    h = model_copy.layer(l).forward(std::move(m));
  }
  return softmax_xent_stats(h, dataset_.labels, dataset_.train_mask);
}

}  // namespace sagnn
