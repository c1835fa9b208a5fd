#pragma once
// The simulated ranks' runtime: p rank fibers on a few worker threads.
//
// Cluster::run runs every rank as a user-level fiber (a glibc ucontext on a
// pooled stack) on a fixed set of worker threads that the Cluster owns, so
// p ranks fold onto W = parallel_threads() cores (M:N scheduling). All
// runnable fibers share one run queue and any idle worker runs any of
// them, so a fiber may resume on a different worker after every park.
// Idle workers sleep on a condition variable until a fiber becomes
// runnable or the earliest timed park expires; nothing spins.
//
// The message runtime's one wait path (CommWorld::wait_recv) parks "the
// current waiter" through Waiter, the seam between the message runtime and
// this scheduler. The waiter is the running rank fiber, so a blocked
// receive costs a user-space context switch instead of a kernel sleep. Off
// a rank fiber there is no waiter: current_waiter() throws, and nothing
// but a fiber ever blocks on a mailbox. Sends need no waiter and may come
// from any thread.
//
// Rules for code that runs on a rank fiber:
//   * Never park while holding a lock. park_until() releases the one lock
//     it is handed; any other lock held across a park stays held while its
//     owner waits in the run queue, and a mutex that one worker locks and
//     another unlocks is undefined.
//   * Never park inside a catch handler. The C++ runtime keeps its stack of
//     caught exceptions per thread, and the fiber may resume on another
//     worker.
//   * Never read a thread_local across a park, for the same reason: a
//     value or address read before the park belongs to the worker the
//     fiber left.
//   * Block a worker in nothing but a park: no condition variable, sleep or
//     spin that waits for another rank. With fewer workers than ranks the
//     rank it waits for may be queued behind it. A rank that must sleep
//     calls sleep_until().

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>

namespace sagnn {

using SteadyTime = std::chrono::steady_clock::time_point;

/// What a blocked receive parks: the running rank fiber. Obtain it with
/// current_waiter(); a waker that found it recorded under the same lock
/// wakes it with unpark().
class Waiter {
 public:
  /// Park until unpark() or `deadline` (SteadyTime::max(): none),
  /// whichever comes first. `lock` is held on entry, released while parked
  /// and held again on return. A stale unpark meant for an earlier park
  /// may end this one early, so callers re-check their condition after
  /// every return.
  virtual void park_until(std::unique_lock<std::mutex>& lock,
                          SteadyTime deadline) = 0;
  /// Wake the waiter if it is parked or about to park; a waiter that is
  /// running ignores the call.
  virtual void unpark() = 0;

 protected:
  ~Waiter() = default;
};

/// The running rank fiber's waiter. Throws Error off a rank fiber: a plain
/// thread has nothing to park.
Waiter& current_waiter();

/// Sleep the calling rank until `deadline`. A fiber parks on the
/// scheduler's timer, leaving its worker free; a plain thread sleeps.
void sleep_until(SteadyTime deadline);

/// A fixed set of worker threads that runs batches of fibers. Workers
/// start in the constructor and are joined by the destructor. Stacks are
/// pooled: a run reuses the fibers and stacks of earlier runs and maps new
/// ones only when it has more fibers than any run before it.
class FiberRuntime {
 public:
  explicit FiberRuntime(int workers);
  ~FiberRuntime();
  FiberRuntime(const FiberRuntime&) = delete;
  FiberRuntime& operator=(const FiberRuntime&) = delete;

  /// Run body(i) for every i in [0, n), each on its own fiber, and return
  /// when all of them have finished. body must not throw. Not reentrant:
  /// one run at a time, never from a fiber.
  void run(int n, const std::function<void(int)>& body);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace sagnn
