#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why) {
  ++failed_;
  std::cerr << "FAILED: " << why << "\n";
}

std::string Report::json(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (!metrics_.count(name)) fail("metric " + name + " was never measured");
  }
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::int64_t>(1, attempted_)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric m = metrics_.count(names[i]) ? metrics_.at(names[i]) : Metric{};
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out << (i ? ", " : "") << "\"" << names[i] << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

Tail tail(const std::vector<double>& v) {
  Tail t;
  const double n = static_cast<double>(v.size());
  if (n > 0) {
    const int pct = static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / n)));
    t.percentile = std::clamp(pct, 50, 99);
  }
  t.value = quantile(v, t.percentile / 100.0);
  return t;
}

double calibrate_host_ms() {
  std::vector<double> samples;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(rep);
    for (int i = 0; i < 4'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = sink + x;
    samples.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  return median(samples);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void CountGuard::put(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void CountGuard::settle(const std::string& path, Report& report) const {
  if (path.empty()) return;
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    for (const auto& [k, v] : values_) out << k << " " << v << "\n";
    return;
  }
  std::map<std::string, std::string> stored;
  std::string k, v;
  while (in >> k >> v) stored[k] = v;
  for (const auto& [key, value] : values_) {
    const auto it = stored.find(key);
    if (it == stored.end()) continue;  // recorded by the other run kind only
    report.check(it->second == value, "count drift on '" + key + "': " + value +
                                          " now, " + it->second + " in an earlier run");
  }
  // Keys first seen here join the record for later runs.
  bool grew = false;
  for (const auto& [key, value] : values_) grew |= stored.emplace(key, value).second;
  if (grew) {
    std::ofstream out(path);
    for (const auto& [key, value] : stored) out << key << " " << value << "\n";
  }
}

double wall_now() {
  static const auto origin = std::chrono::steady_clock::now();
  const auto elapsed = std::chrono::steady_clock::now() - origin;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace perfbench
