#include "common/timer.hpp"

#include <ctime>

namespace sagnn {

namespace {
thread_local std::uint64_t t_fiber_switches = 0;
}  // namespace

// reset() and seconds() stay out of line: inlined into a caller that parks
// in between, the compiler could reuse one thread_local address for both.
void ThreadCpuTimer::reset() {
  switches_ = &t_fiber_switches;
  switch_count_ = t_fiber_switches;
  start_ = now();
}

double ThreadCpuTimer::seconds() const {
  const double elapsed = now() - start_;
  if (switches_ != &t_fiber_switches || switch_count_ != t_fiber_switches) {
    throw CpuTimerError();
  }
  return elapsed;
}

double ThreadCpuTimer::now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void note_fiber_switch() { ++t_fiber_switches; }

}  // namespace sagnn
