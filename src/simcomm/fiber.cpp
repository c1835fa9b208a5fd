#include "simcomm/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <queue>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

namespace sagnn {

namespace {

/// Usable stack of one fiber. Mapped MAP_NORESERVE, so only the pages a
/// rank touches cost memory.
constexpr std::size_t kStackBytes = std::size_t{1} << 20;

/// A fiber's park state. Packed with the park's generation into one atomic
/// word, so a timer armed for an earlier park can never end a later one.
enum State : std::uint64_t {
  kRunning = 0,   ///< runnable or running
  kParking = 1,   ///< published as a waiter, not yet off its worker
  kParked = 2,    ///< off its worker; the next unpark or expiry requeues it
  kNotified = 3,  ///< woken while parking; its worker requeues it
};
constexpr std::uint64_t kStateMask = 3;

std::uint64_t pack(std::uint64_t gen, State s) { return gen << 2 | s; }
State state_of(std::uint64_t word) { return static_cast<State>(word & kStateMask); }

/// One fiber stack: kStackBytes above a PROT_NONE guard page, so an
/// overflow faults instead of running into the neighbouring stack.
class Stack {
 public:
  Stack()
      : guard_(static_cast<std::size_t>(sysconf(_SC_PAGESIZE))),
        total_(kStackBytes + guard_) {
    void* base = mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (base == MAP_FAILED) throw Error("fiber stack: mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_, guard_, PROT_NONE) != 0) {
      munmap(base_, total_);
      throw Error("fiber stack: guard page mprotect failed");
    }
  }
  ~Stack() { munmap(base_, total_); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  void* bottom() const { return base_ + guard_; }
  std::size_t size() const { return kStackBytes; }

 private:
  std::size_t guard_;
  std::size_t total_;
  char* base_ = nullptr;
};

/// What the sanitizers need to know about one side of a context switch.
struct SanitizerContext {
  void* asan_fake_stack = nullptr;  ///< saved while this context is off-CPU
  const void* asan_bottom = nullptr;
  std::size_t asan_size = 0;
  void* tsan_fiber = nullptr;
};

/// Announce a switch to `to`; call right before swapcontext. `fake_stack`
/// saves the leaving context's ASan fake stack (null: it never resumes).
inline void start_switch([[maybe_unused]] void** fake_stack,
                         [[maybe_unused]] const SanitizerContext& to) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(fake_stack, to.asan_bottom, to.asan_size);
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
}

/// Complete a switch in the context that was switched to; `from` learns
/// the bounds of the stack that was left (null: not needed).
inline void finish_switch([[maybe_unused]] void* fake_stack,
                          [[maybe_unused]] SanitizerContext* from) {
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, from ? &from->asan_bottom : nullptr,
                                  from ? &from->asan_size : nullptr);
#endif
}

struct Worker {
  ucontext_t ctx{};
  SanitizerContext san;
  std::thread thread;
};

struct Fiber;

/// The fiber running on this worker thread (null on any other thread).
/// Written by the worker around each switch; read by current_waiter() on
/// the fiber before it parks, never across a park.
thread_local Fiber* t_running = nullptr;

}  // namespace

struct FiberRuntime::Impl {
  explicit Impl(int n_workers);
  ~Impl();

  void run(int n, const std::function<void(int)>& body);
  /// A parked fiber was claimed by a waker (or a timer): queue it to run.
  void wake(Fiber& f);

 private:
  struct Timer {
    SteadyTime deadline;
    std::uint64_t gen;  ///< the park the timer was armed for
    Fiber* fiber;
    bool operator>(const Timer& o) const { return deadline > o.deadline; }
  };

  void worker_main(Worker& w);
  void resume(Worker& w, Fiber& f);
  void settle_locked(Fiber& f);
  void fire_timers_locked();
  void push_locked(Fiber& f);
  Fiber& pop_locked();
  void shutdown();

  std::mutex mu_;                    ///< guards everything below but fibers_
  std::condition_variable work_cv_;  ///< idle workers sleep here
  std::condition_variable done_cv_;  ///< run() waits here for running_ == 0
  std::vector<Fiber*> ring_;         ///< run queue, capacity = fibers_.size()
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  int running_ = 0;  ///< fibers of the current run that have not finished
  int idle_ = 0;     ///< workers asleep on work_cv_
  bool stop_ = false;
  /// Reused by every run; only run() touches it, between runs.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

namespace {

struct Fiber final : Waiter {
  explicit Fiber(FiberRuntime::Impl& owner) : rt(owner) {
    san.asan_bottom = stack.bottom();
    san.asan_size = stack.size();
    // One getcontext per fiber; every later run only re-makes it.
    if (getcontext(&ctx) != 0) throw Error("fiber: getcontext failed");
  }
  ~Fiber() {
#if defined(__SANITIZE_THREAD__)
    if (san.tsan_fiber != nullptr) __tsan_destroy_fiber(san.tsan_fiber);
#endif
  }

  /// Set up a fresh start of body(index) on this fiber's stack.
  void prepare(const std::function<void(int)>& fn, int i);

  void park_until(std::unique_lock<std::mutex>& lock, SteadyTime until) override {
    begin_park(until);  // step 1, under the caller's lock
    lock.unlock();      // step 2: the fiber releases its own lock
    switch_out();       // step 3; the worker settles the park (step 4)
    lock.lock();
  }

  void unpark() override {
    std::uint64_t w = word.load(std::memory_order_acquire);
    for (;;) {
      switch (state_of(w)) {
        case kParking:
          // Still on its worker: the worker sees kNotified and requeues.
          if (word.compare_exchange_weak(w, (w & ~kStateMask) | kNotified,
                                         std::memory_order_acq_rel)) {
            return;
          }
          break;
        case kParked:
          // Only the party that moves kParked -> kRunning queues it.
          if (word.compare_exchange_weak(w, w & ~kStateMask,
                                         std::memory_order_acq_rel)) {
            rt.wake(*this);
            return;
          }
          break;
        default:
          return;  // running (it re-checks under its lock) or already woken
      }
    }
  }

  void sleep(SteadyTime until) {
    while (std::chrono::steady_clock::now() < until) {
      begin_park(until);
      switch_out();
    }
  }

  void begin_park(SteadyTime until) {
    deadline = until;
    word.store(pack(++gen, kParking), std::memory_order_release);
  }

  /// Give the CPU back to the worker running this fiber; returns when a
  /// worker (maybe another one) resumes it.
  void switch_out() {
    Worker& from = *worker;
    start_switch(&san.asan_fake_stack, from.san);
    if (swapcontext(&ctx, &from.ctx) != 0) std::abort();
    // Resumed: `worker` is now the worker that switched back in.
    finish_switch(san.asan_fake_stack, &worker->san);
  }

  FiberRuntime::Impl& rt;
  Stack stack;
  ucontext_t ctx{};
  SanitizerContext san;
  std::atomic<std::uint64_t> word{0};
  // Written by the fiber before it switches out, read by its worker after.
  std::uint64_t gen = 0;  ///< park generation
  SteadyTime deadline;    ///< of the park in progress (max: none)
  bool done = false;      ///< body returned
  Worker* worker = nullptr;  ///< set by the worker before every switch in
  const std::function<void(int)>* body = nullptr;
  int index = 0;
};

/// makecontext passes int arguments only, so the Fiber* comes in halves.
void fiber_entry(unsigned hi, unsigned lo) noexcept {
  Fiber& f = *reinterpret_cast<Fiber*>(std::uintptr_t{hi} << 32 | lo);
  finish_switch(nullptr, &f.worker->san);
  (*f.body)(f.index);
  f.done = true;
  const Worker& to = *f.worker;
  start_switch(nullptr, to.san);
  setcontext(&to.ctx);
  std::abort();  // setcontext returns only on failure
}

void Fiber::prepare(const std::function<void(int)>& fn, int i) {
  body = &fn;
  index = i;
  done = false;
  word.store(pack(gen, kRunning), std::memory_order_relaxed);
#if defined(__SANITIZE_ADDRESS__)
  // The previous run never returned from its outermost frames, so their
  // redzones are still poisoned.
  __asan_unpoison_memory_region(stack.bottom(), stack.size());
#endif
#if defined(__SANITIZE_THREAD__)
  // A fresh TSan fiber per run: the old one still holds the frames of the
  // body that switched away instead of returning.
  if (san.tsan_fiber != nullptr) __tsan_destroy_fiber(san.tsan_fiber);
  san.tsan_fiber = __tsan_create_fiber(0);
#endif
  ctx.uc_stack.ss_sp = stack.bottom();
  ctx.uc_stack.ss_size = stack.size();
  ctx.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx, reinterpret_cast<void (*)()>(&fiber_entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
}

}  // namespace

Waiter& current_waiter() {
  if (t_running == nullptr) {
    throw Error("a blocking receive must run on a rank fiber (Cluster::run)");
  }
  return *t_running;
}

void sleep_until(SteadyTime deadline) {
  if (Fiber* f = t_running) {
    f->sleep(deadline);
  } else {
    std::this_thread::sleep_until(deadline);
  }
}

FiberRuntime::Impl::Impl(int n_workers) {
  SAGNN_REQUIRE(n_workers >= 1, "a fiber runtime needs at least one worker");
  try {
    for (int i = 0; i < n_workers; ++i) {
      workers_.push_back(std::make_unique<Worker>());
      Worker& w = *workers_.back();
      w.thread = std::thread([this, &w] { worker_main(w); });
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

FiberRuntime::Impl::~Impl() { shutdown(); }

void FiberRuntime::Impl::shutdown() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void FiberRuntime::Impl::run(int n, const std::function<void(int)>& body) {
  if (n <= 0) return;
  while (fibers_.size() < static_cast<std::size_t>(n)) {
    fibers_.push_back(std::make_unique<Fiber>(*this));
  }
  for (int i = 0; i < n; ++i) fibers_[static_cast<std::size_t>(i)]->prepare(body, i);
  std::unique_lock lock(mu_);
  if (ring_.size() < fibers_.size()) ring_.resize(fibers_.size());
  for (int i = 0; i < n; ++i) push_locked(*fibers_[static_cast<std::size_t>(i)]);
  running_ = n;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return running_ == 0; });
}

void FiberRuntime::Impl::wake(Fiber& f) {
  bool notify = false;
  {
    std::lock_guard lock(mu_);
    push_locked(f);
    notify = idle_ > 0;
  }
  if (notify) work_cv_.notify_one();
}

void FiberRuntime::Impl::push_locked(Fiber& f) {
  ring_[(head_ + queued_) % ring_.size()] = &f;
  ++queued_;
}

Fiber& FiberRuntime::Impl::pop_locked() {
  Fiber& f = *ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --queued_;
  return f;
}

void FiberRuntime::Impl::worker_main(Worker& w) {
  // Rank compute stays single-threaded on every worker (the nesting guard
  // of common/parallel.hpp), for the worker's whole life: a per-rank guard
  // would move its depth between workers with a migrating fiber.
  SerialRegion serial;
#if defined(__SANITIZE_THREAD__)
  w.san.tsan_fiber = __tsan_get_current_fiber();
#endif
  std::unique_lock lock(mu_);
  for (;;) {
    if (!timers_.empty()) fire_timers_locked();
    if (queued_ > 0) {
      Fiber& f = pop_locked();
      lock.unlock();
      resume(w, f);
      lock.lock();
      settle_locked(f);
      continue;
    }
    if (stop_) return;
    ++idle_;
    if (timers_.empty()) {
      work_cv_.wait(lock);
    } else {
      // A copy: wait_until reads its deadline while the lock is released,
      // when another worker's push may reallocate the heap.
      const SteadyTime earliest = timers_.top().deadline;
      work_cv_.wait_until(lock, earliest);
    }
    --idle_;
  }
}

void FiberRuntime::Impl::resume(Worker& w, Fiber& f) {
  f.worker = &w;
  t_running = &f;
  note_fiber_switch();
  start_switch(&w.san.asan_fake_stack, f.san);
  if (swapcontext(&w.ctx, &f.ctx) != 0) std::abort();
  finish_switch(w.san.asan_fake_stack, nullptr);
  note_fiber_switch();
  t_running = nullptr;
}

void FiberRuntime::Impl::settle_locked(Fiber& f) {
  if (f.done) {
    if (--running_ == 0) done_cv_.notify_all();
    return;
  }
  // Read what the park published before moving it to kParked: from then on
  // a waker may hand the fiber to another worker, which runs it and
  // overwrites these fields with its next park.
  const std::uint64_t gen = f.gen;
  const SteadyTime deadline = f.deadline;
  std::uint64_t expected = pack(gen, kParking);
  if (f.word.compare_exchange_strong(expected, pack(gen, kParked),
                                     std::memory_order_acq_rel)) {
    if (deadline != SteadyTime::max()) {
      const bool earliest = timers_.empty() || deadline < timers_.top().deadline;
      timers_.push({deadline, gen, &f});
      // A sleeping worker may be waiting for a later deadline; let one
      // recompute it while this worker goes on to run another fiber.
      if (earliest && idle_ > 0) work_cv_.notify_one();
    }
    return;
  }
  // Woken between publishing itself and switching out (kNotified).
  f.word.store(pack(gen, kRunning), std::memory_order_relaxed);
  push_locked(f);
}

void FiberRuntime::Impl::fire_timers_locked() {
  const SteadyTime now = std::chrono::steady_clock::now();
  int woken = 0;
  while (!timers_.empty() && timers_.top().deadline <= now) {
    const Timer t = timers_.top();
    timers_.pop();
    // Stale when the park it was armed for already ended: a wake won.
    std::uint64_t expected = pack(t.gen, kParked);
    if (t.fiber->word.compare_exchange_strong(expected, pack(t.gen, kRunning),
                                              std::memory_order_acq_rel)) {
      push_locked(*t.fiber);
      ++woken;
    }
  }
  // This worker takes one of them; idle ones take the rest.
  if (woken > 1 && idle_ > 0) work_cv_.notify_all();
}

FiberRuntime::FiberRuntime(int workers) : impl_(std::make_unique<Impl>(workers)) {}

FiberRuntime::~FiberRuntime() = default;

void FiberRuntime::run(int n, const std::function<void(int)>& body) {
  impl_->run(n, body);
}

}  // namespace sagnn
