#pragma once
// Timing utilities.
//
// The simulated cluster runs many "GPU ranks" as fibers on few worker
// threads (simcomm/fiber.hpp), so wall-clock time on a rank is polluted by
// time-slicing. Compute phases are therefore measured with the per-thread
// CPU clock (CLOCK_THREAD_CPUTIME_ID), which only advances while *this*
// thread runs. A fiber switches only when it parks, so an interval that
// never parks runs on one worker from start to end and its thread-CPU time
// is the rank's own. ThreadCpuTimer enforces that: the runtime counts
// switches per thread, and seconds() refuses an interval that spans one.
// Communication time is never measured; it is modeled from recorded
// traffic by simcomm::CostModel.

#include <chrono>
#include <cstdint>

#include "common/types.hpp"

namespace sagnn {

/// Monotonic wall-clock timer (for whole-program / harness timing).
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = clock_t::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock_t::now() - start_).count();
  }

 private:
  using clock_t = std::chrono::steady_clock;
  clock_t::time_point start_;
};

/// A ThreadCpuTimer interval spanned a fiber switch, so its thread-CPU
/// time mixes other ranks' work (or another worker's clock).
class CpuTimerError : public Error {
 public:
  CpuTimerError()
      : Error("ThreadCpuTimer interval spans a fiber switch; time only code "
              "that never parks") {}
};

/// Per-thread CPU-time timer; immune to oversubscription.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { reset(); }
  void reset();
  /// CPU seconds consumed by the calling thread since reset(). Throws
  /// CpuTimerError if a fiber switch happened in between, or if the caller
  /// now runs on another thread.
  double seconds() const;

  /// Current per-thread CPU time in seconds.
  static double now();

 private:
  double start_ = 0.0;
  const std::uint64_t* switches_ = nullptr;  ///< the thread's counter at reset()
  std::uint64_t switch_count_ = 0;           ///< its value at reset()
};

/// Count one fiber switch on the calling thread. The fiber runtime calls it
/// on its worker at every switch into and out of a fiber.
void note_fiber_switch();

}  // namespace sagnn
