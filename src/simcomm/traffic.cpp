#include "simcomm/traffic.hpp"

#include <algorithm>

namespace sagnn {

std::uint64_t PhaseTraffic::total_bytes() const {
  std::uint64_t acc = 0;
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      if (s != d) acc += bytes[static_cast<std::size_t>(s) * p + d];
    }
  }
  return acc;
}

std::uint64_t PhaseTraffic::total_msgs() const {
  std::uint64_t acc = 0;
  for (int s = 0; s < p; ++s) {
    for (int d = 0; d < p; ++d) {
      if (s != d) acc += msgs[static_cast<std::size_t>(s) * p + d];
    }
  }
  return acc;
}

std::uint64_t PhaseTraffic::send_bytes(int src) const {
  std::uint64_t acc = 0;
  for (int d = 0; d < p; ++d) {
    if (d != src) acc += bytes[static_cast<std::size_t>(src) * p + d];
  }
  return acc;
}

std::uint64_t PhaseTraffic::recv_bytes(int dst) const {
  std::uint64_t acc = 0;
  for (int s = 0; s < p; ++s) {
    if (s != dst) acc += bytes[static_cast<std::size_t>(s) * p + dst];
  }
  return acc;
}

std::uint64_t PhaseTraffic::max_send_bytes() const {
  std::uint64_t m = 0;
  for (int s = 0; s < p; ++s) m = std::max(m, send_bytes(s));
  return m;
}

double PhaseTraffic::avg_send_bytes() const {
  if (p == 0) return 0;
  return static_cast<double>(total_bytes()) / p;
}

double PhaseTraffic::send_imbalance_percent() const {
  const double avg = avg_send_bytes();
  if (avg <= 0) return 0;
  return (static_cast<double>(max_send_bytes()) / avg - 1.0) * 100.0;
}

TrafficRecorder::TrafficRecorder(int p) : p_(p) {
  shards_.reserve(static_cast<std::size_t>(std::max(p, 0)));
  for (int s = 0; s < p; ++s) shards_.push_back(std::make_unique<Shard>());
}

TrafficRecorder::TrafficRecorder(const TrafficRecorder& other)
    : TrafficRecorder(other.p_) {
  std::lock_guard lock(other.mutex_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard shard_lock(other.shards_[s]->mutex);
    shards_[s]->rows = other.shards_[s]->rows;
  }
  overlap_ = other.overlap_;
  faults_ = other.faults_;
}

TrafficRecorder& TrafficRecorder::operator=(const TrafficRecorder& other) {
  if (this == &other) return *this;
  TrafficRecorder snapshot(other);
  std::lock_guard lock(mutex_);
  if (p_ != snapshot.p_) {
    p_ = snapshot.p_;
    shards_ = std::move(snapshot.shards_);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::lock_guard shard_lock(shards_[s]->mutex);
      shards_[s]->rows = std::move(snapshot.shards_[s]->rows);
      shards_[s]->last = nullptr;
    }
  }
  overlap_ = std::move(snapshot.overlap_);
  faults_ = snapshot.faults_;
  return *this;
}

void TrafficRecorder::record(const std::string& phase, int src, int dst,
                             std::uint64_t bytes) {
  Shard& shard = *shards_[static_cast<std::size_t>(src)];
  std::lock_guard lock(shard.mutex);
  if (shard.last == nullptr || shard.last->first != phase) {
    shard.last = &*shard.rows.try_emplace(phase, p_).first;
  }
  Shard::Row& row = shard.last->second;
  row.bytes[static_cast<std::size_t>(dst)] += bytes;
  row.msgs[static_cast<std::size_t>(dst)] += 1;
}

PhaseTraffic TrafficRecorder::fold(
    const std::function<bool(const std::string&)>& keep) const {
  PhaseTraffic acc(p_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard lock(shards_[s]->mutex);
    const std::size_t offset = s * static_cast<std::size_t>(p_);
    for (const auto& [name, row] : shards_[s]->rows) {
      if (!keep(name)) continue;
      for (std::size_t d = 0; d < row.bytes.size(); ++d) {
        acc.bytes[offset + d] += row.bytes[d];
        acc.msgs[offset + d] += row.msgs[d];
      }
    }
  }
  return acc;
}

std::vector<std::string> TrafficRecorder::names_locked() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (const auto& [name, row] : shard->rows) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

PhaseTraffic TrafficRecorder::phase(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return fold([&](const std::string& n) { return n == name; });
}

PhaseTraffic TrafficRecorder::total(const std::vector<std::string>& exclude) const {
  std::lock_guard lock(mutex_);
  return fold([&](const std::string& n) {
    return std::find(exclude.begin(), exclude.end(), n) == exclude.end();
  });
}

std::string TrafficRecorder::stage_phase(const std::string& base, int stage) {
  return base + "#" + std::to_string(stage);
}

std::string TrafficRecorder::base_name(const std::string& phase) {
  const std::size_t hash = phase.rfind('#');
  return hash == std::string::npos ? phase : phase.substr(0, hash);
}

int TrafficRecorder::stage_count(const std::string& base) const {
  std::lock_guard lock(mutex_);
  const std::vector<std::string> names = names_locked();
  return static_cast<int>(std::count_if(
      names.begin(), names.end(),
      [&](const std::string& n) { return base_name(n) == base; }));
}

PhaseTraffic TrafficRecorder::phase_total(const std::string& base) const {
  std::lock_guard lock(mutex_);
  return fold([&](const std::string& n) { return base_name(n) == base; });
}

std::vector<std::string> TrafficRecorder::phase_names() const {
  std::lock_guard lock(mutex_);
  return names_locked();
}

void TrafficRecorder::record_overlap(const std::string& phase, double hidden,
                                     double blocked, double max_blocked) {
  std::lock_guard lock(mutex_);
  OverlapSample& s = overlap_[phase];
  s.hidden += hidden;
  s.blocked += blocked;
  s.waits += 1;
  s.max_blocked = std::max(s.max_blocked, max_blocked);
}

void TrafficRecorder::record_fault_drop() {
  std::lock_guard lock(mutex_);
  ++faults_.drops;
}

void TrafficRecorder::record_fault_retry() {
  std::lock_guard lock(mutex_);
  ++faults_.retries;
}

void TrafficRecorder::record_straggler(double seconds) {
  std::lock_guard lock(mutex_);
  faults_.straggler_seconds += seconds;
}

FaultCounters TrafficRecorder::fault_counters() const {
  std::lock_guard lock(mutex_);
  return faults_;
}

OverlapSample TrafficRecorder::overlap_total(const std::string& base) const {
  std::lock_guard lock(mutex_);
  OverlapSample acc;
  for (const auto& [name, s] : overlap_) {
    if (base_name(name) != base) continue;
    acc.hidden += s.hidden;
    acc.blocked += s.blocked;
    acc.waits += s.waits;
    acc.max_blocked = std::max(acc.max_blocked, s.max_blocked);
  }
  return acc;
}

void TrafficRecorder::set_phase(const std::string& name, PhaseTraffic traffic) {
  SAGNN_REQUIRE(traffic.p == p_,
                "set_phase geometry mismatch: recorder p=" + std::to_string(p_) +
                    ", phase p=" + std::to_string(traffic.p));
  std::lock_guard lock(mutex_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto first = static_cast<std::ptrdiff_t>(s * static_cast<std::size_t>(p_));
    Shard::Row row(p_);
    std::copy_n(traffic.bytes.begin() + first, p_, row.bytes.begin());
    std::copy_n(traffic.msgs.begin() + first, p_, row.msgs.begin());
    std::lock_guard shard_lock(shards_[s]->mutex);
    shards_[s]->rows.insert_or_assign(name, std::move(row));
  }
}

void TrafficRecorder::reset() {
  std::lock_guard lock(mutex_);
  for (const auto& shard : shards_) {
    std::lock_guard shard_lock(shard->mutex);
    shard->rows.clear();
    shard->last = nullptr;
  }
  overlap_.clear();
  faults_ = FaultCounters{};
}

}  // namespace sagnn
