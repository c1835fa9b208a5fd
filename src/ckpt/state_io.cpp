#include "ckpt/state_io.hpp"

namespace sagnn::ckpt {

void write_matrix(Serializer& s, const Matrix& m) {
  s.write_i32(m.n_rows());
  s.write_i32(m.n_cols());
  const real_t* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) s.write_f32(p[i]);
}

Matrix read_matrix(Deserializer& d) {
  const vid_t rows = d.read_i32();
  const vid_t cols = d.read_i32();
  if (rows < 0 || cols < 0) {
    throw CheckpointFormatError("negative matrix shape in section '" +
                                d.section_name() + "'");
  }
  // Division keeps the comparison overflow-proof for any corrupt count.
  const std::uint64_t cells =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  if (cells > d.remaining() / sizeof(real_t)) {
    throw CheckpointFormatError(
        "section '" + d.section_name() + "' declares a " +
        std::to_string(rows) + " x " + std::to_string(cols) +
        " matrix but holds only " + std::to_string(d.remaining()) + " bytes");
  }
  std::vector<real_t> data(static_cast<std::size_t>(cells));
  for (real_t& v : data) v = d.read_f32();
  return Matrix(rows, cols, std::move(data));
}

void write_rng(Serializer& s, const Rng& rng) {
  for (std::uint64_t v : rng.save_state()) s.write_u64(v);
}

Rng read_rng(Deserializer& d) {
  std::array<std::uint64_t, 5> state{};
  for (std::uint64_t& v : state) v = d.read_u64();
  Rng rng;
  rng.load_state(state);
  return rng;
}

void write_model(Serializer& s, const GcnModel& model) {
  s.write_i32(model.n_layers());
  for (int l = 0; l < model.n_layers(); ++l) {
    s.write_u8(model.layer(l).has_relu() ? 1 : 0);
    write_matrix(s, model.layer(l).weights());
  }
}

void read_model_into(Deserializer& d, GcnModel& model) {
  const int layers = d.read_i32();
  if (layers != model.n_layers()) {
    throw CheckpointMismatchError(
        "section '" + d.section_name() + "': checkpoint model has " +
        std::to_string(layers) + " layers, configuration builds " +
        std::to_string(model.n_layers()));
  }
  for (int l = 0; l < layers; ++l) {
    const bool relu = d.read_u8() != 0;
    Matrix w = read_matrix(d);
    GcnLayer& layer = model.layer(l);
    if (relu != layer.has_relu() || w.n_rows() != layer.weights().n_rows() ||
        w.n_cols() != layer.weights().n_cols()) {
      throw CheckpointMismatchError(
          "section '" + d.section_name() + "': layer " + std::to_string(l) +
          " shape/activation disagrees with the configured model");
    }
    layer.weights_mut() = std::move(w);
  }
}

void write_metrics(Serializer& s, const std::vector<EpochMetrics>& metrics) {
  s.write_u64(metrics.size());
  for (const EpochMetrics& m : metrics) {
    s.write_f64(m.loss);
    s.write_f64(m.train_accuracy);
  }
}

std::vector<EpochMetrics> read_metrics(Deserializer& d) {
  return d.read_vector<EpochMetrics>([](Deserializer& x) {
    EpochMetrics m;
    m.loss = x.read_f64();
    m.train_accuracy = x.read_f64();
    return m;
  });
}

void write_traffic(Serializer& s, const TrafficRecorder& traffic) {
  const auto names = traffic.phase_names();
  s.write_i32(traffic.p());
  s.write_u64(names.size());
  for (const std::string& name : names) {
    const PhaseTraffic tr = traffic.phase(name);
    s.write_string(name);
    s.write_u64(tr.bytes.size());
    for (std::uint64_t v : tr.bytes) s.write_u64(v);
    for (std::uint64_t v : tr.msgs) s.write_u64(v);
  }
}

TrafficRecorder read_traffic(Deserializer& d) {
  const int p = d.read_i32();
  if (p < 0) {
    throw CheckpointFormatError("negative rank count in section '" +
                                d.section_name() + "'");
  }
  // The recorder allocates one shard per rank up front, so bound p before
  // building it: each rank costs the runtime a fiber and a 1 MiB stack, and
  // no run writes a rank count anywhere near this.
  constexpr int kMaxRanks = 1 << 16;
  if (p > kMaxRanks) {
    throw CheckpointFormatError("rank count " + std::to_string(p) +
                                " in section '" + d.section_name() +
                                "' exceeds " + std::to_string(kMaxRanks));
  }
  TrafficRecorder traffic(p);
  const std::uint64_t n_phases = d.read_u64();
  for (std::uint64_t i = 0; i < n_phases; ++i) {
    const std::string name = d.read_string();
    const std::uint64_t cells = d.read_u64();
    if (cells != static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p)) {
      throw CheckpointFormatError("phase '" + name + "' in section '" +
                                  d.section_name() +
                                  "' has wrong counter-matrix size");
    }
    // byte + msg counters, 8 bytes each; division so p near 2^30 (cells
    // near 2^60) cannot wrap the bound and reach the allocation below.
    if (cells > d.remaining() / 16) {
      throw CheckpointFormatError("section '" + d.section_name() +
                                  "' is too small for phase '" + name +
                                  "' at p=" + std::to_string(p));
    }
    PhaseTraffic tr(p);
    for (std::uint64_t& v : tr.bytes) v = d.read_u64();
    for (std::uint64_t& v : tr.msgs) v = d.read_u64();
    traffic.set_phase(name, std::move(tr));
  }
  return traffic;
}

void write_train_config(Serializer& s, const TrainConfig& cfg) {
  // gcn
  s.write_u64(cfg.gcn.dims.size());
  for (vid_t dim : cfg.gcn.dims) s.write_i32(dim);
  s.write_f32(cfg.gcn.learning_rate);
  s.write_f32(cfg.gcn.weight_decay);
  s.write_f32(cfg.gcn.dropout);
  s.write_i32(cfg.gcn.epochs);
  s.write_u64(cfg.gcn.seed);
  // mode / geometry
  s.write_string(cfg.strategy);
  s.write_i32(cfg.threads);
  s.write_i32(cfg.p);
  s.write_i32(cfg.c);
  s.write_string(cfg.partitioner);
  s.write_f64(cfg.partitioner_options.epsilon);
  s.write_u8(cfg.partitioner_options.balance_edges ? 1 : 0);
  s.write_i32(cfg.partitioner_options.refine_passes);
  s.write_u64(cfg.partitioner_options.seed);
  s.write_i32(cfg.partitioner_options.coarsen_target_per_part);
  // cost model
  s.write_f64(cfg.cost_model.alpha_intra);
  s.write_f64(cfg.cost_model.alpha_inter);
  s.write_f64(cfg.cost_model.beta_intra);
  s.write_f64(cfg.cost_model.beta_inter);
  s.write_i32(cfg.cost_model.gpus_per_node);
  s.write_f64(cfg.cost_model.compute_scale);
  s.write_f64(cfg.cost_model.volume_scale);
  s.write_i32(cfg.pipeline_chunks);
  // sampling
  s.write_i32(cfg.sampling.batch_size);
  s.write_u64(cfg.sampling.fanouts.size());
  for (vid_t f : cfg.sampling.fanouts) s.write_i32(f);
  s.write_u64(cfg.sampling.seed);
}

TrainConfig read_train_config(Deserializer& d) {
  TrainConfig cfg;
  cfg.gcn.dims = d.read_vector<vid_t>([](Deserializer& x) { return x.read_i32(); });
  cfg.gcn.learning_rate = d.read_f32();
  cfg.gcn.weight_decay = d.read_f32();
  cfg.gcn.dropout = d.read_f32();
  cfg.gcn.epochs = d.read_i32();
  cfg.gcn.seed = d.read_u64();
  cfg.strategy = d.read_string();
  cfg.threads = d.read_i32();
  cfg.p = d.read_i32();
  cfg.c = d.read_i32();
  cfg.partitioner = d.read_string();
  cfg.partitioner_options.epsilon = d.read_f64();
  cfg.partitioner_options.balance_edges = d.read_u8() != 0;
  cfg.partitioner_options.refine_passes = d.read_i32();
  cfg.partitioner_options.seed = d.read_u64();
  cfg.partitioner_options.coarsen_target_per_part = d.read_i32();
  cfg.cost_model.alpha_intra = d.read_f64();
  cfg.cost_model.alpha_inter = d.read_f64();
  cfg.cost_model.beta_intra = d.read_f64();
  cfg.cost_model.beta_inter = d.read_f64();
  cfg.cost_model.gpus_per_node = d.read_i32();
  cfg.cost_model.compute_scale = d.read_f64();
  cfg.cost_model.volume_scale = d.read_f64();
  cfg.pipeline_chunks = d.read_i32();
  cfg.sampling.batch_size = d.read_i32();
  cfg.sampling.fanouts =
      d.read_vector<vid_t>([](Deserializer& x) { return x.read_i32(); });
  cfg.sampling.seed = d.read_u64();
  return cfg;
}

void DatasetFingerprint::require_matches(const Dataset& ds,
                                        bool allow_edge_drift) const {
  const bool nnz_ok = allow_edge_drift || nnz == ds.n_edges();
  if (name == ds.name && n == ds.n_vertices() && f == ds.n_features() &&
      classes == ds.n_classes && nnz_ok) {
    return;
  }
  throw CheckpointMismatchError(
      "checkpoint was taken on dataset '" + name + "' (n=" +
      std::to_string(n) + ", f=" + std::to_string(f) +
      ", classes=" + std::to_string(classes) + ", nnz=" + std::to_string(nnz) +
      "), this run targets '" + ds.name + "' (n=" +
      std::to_string(ds.n_vertices()) + ", f=" +
      std::to_string(ds.n_features()) + ", classes=" +
      std::to_string(ds.n_classes) + ", nnz=" + std::to_string(ds.n_edges()) +
      (allow_edge_drift ? ", edge drift allowed" : "") + ")");
}

void write_prologue(Serializer& s, const TrainConfig& cfg, const Dataset& ds) {
  s.begin_section("config");
  write_train_config(s, cfg);
  s.end_section();
  s.begin_section("dataset");
  s.write_string(ds.name);
  s.write_i32(ds.n_vertices());
  s.write_i32(ds.n_features());
  s.write_i32(ds.n_classes);
  s.write_i64(ds.n_edges());
  s.end_section();
}

Prologue read_prologue(Deserializer& d) {
  Prologue prologue;
  d.enter_section("config");
  prologue.config = read_train_config(d);
  d.leave_section();
  d.enter_section("dataset");
  DatasetFingerprint& fp = prologue.dataset;
  fp.name = d.read_string();
  fp.n = d.read_i32();
  fp.f = d.read_i32();
  fp.classes = d.read_i32();
  fp.nnz = d.read_i64();
  d.leave_section();
  return prologue;
}

void write_progress(Serializer& s, int epoch,
                    const std::vector<EpochMetrics>& metrics) {
  s.begin_section("progress");
  s.write_i32(epoch);
  write_metrics(s, metrics);
  s.end_section();
}

int read_progress(Deserializer& d, std::vector<EpochMetrics>& metrics) {
  d.enter_section("progress");
  const int epoch = d.read_i32();
  metrics = read_metrics(d);
  d.leave_section();
  if (epoch < 0 || metrics.size() != static_cast<std::size_t>(epoch)) {
    throw CheckpointFormatError(
        "section 'progress': epoch count " + std::to_string(epoch) +
        " disagrees with trajectory length " + std::to_string(metrics.size()));
  }
  return epoch;
}

}  // namespace sagnn::ckpt
