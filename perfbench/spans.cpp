#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "common/timer.hpp"

namespace perfbench {

Scope::Scope(SpanLog& log, int track, int step, const char* name, const char* cat)
    : out_(log.track(track)) {
  span_.name = name;
  span_.cat = cat;
  span_.track = track;
  span_.step = step;
  cpu0_ = sagnn::ThreadCpuTimer::now();
  span_.begin = wall_now();
}

Scope::~Scope() {
  span_.wall = wall_now() - span_.begin;
  span_.cpu = sagnn::ThreadCpuTimer::now() - cpu0_;
  out_.push_back(span_);
}

void SpanLog::write_chrome_trace(const std::string& path, int max_step) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t t = 0; t < tracks_.size(); ++t) {
    const bool is_host = static_cast<int>(t) == host();
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %zu, \"args\": {\"name\": \"%s%zu\"}}",
                  t, is_host ? "host " : "rank ", is_host ? std::size_t{0} : t);
    out << (t == 0 ? "" : ",\n") << buf;
    for (const Span& s : tracks_[t]) {
      if (s.step >= max_step) continue;
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                    "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"step\": %d, \"cpu_us\": %.3f, \"value\": %.9g}}",
                    s.name, s.cat, t, s.begin * 1e6, s.wall * 1e6, s.step,
                    s.cpu * 1e6, s.value);
      out << buf;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench
