#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace sagnn {

namespace {

thread_local int t_serial_depth = 0;
thread_local bool t_pool_worker = false;

int env_default_threads() {
  if (const char* env = std::getenv("SAGNN_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

/// The process-wide pool. Workers sleep on a condition variable between
/// jobs; a job is a chunk counter the workers and the submitting thread
/// drain together. Exactly one job runs at a time (parallel_for from
/// inside parallel work runs inline instead — see in_serial_region()).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int threads() {
    // Lock-free fast path: kernels on simulated ranks query the size per
    // call, and must never contend on the pool mutex.
    const int cached = size_cache_.load(std::memory_order_relaxed);
    if (cached != 0) return cached;
    std::lock_guard<std::mutex> lock(mu_);
    const int resolved = resolved_size_locked();
    size_cache_.store(resolved, std::memory_order_relaxed);
    return resolved;
  }

  void set_threads(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    desired_ = n;
    size_cache_.store(resolved_size_locked(), std::memory_order_relaxed);
    if (!workers_.empty() &&
        static_cast<int>(workers_.size()) + 1 != resolved_size_locked()) {
      shutdown_locked(lock);
    }
  }

  /// Run task(i) for i in [0, n_tasks), participating from the calling
  /// thread; returns when every task has finished.
  void run(std::int64_t n_tasks, const std::function<void(std::int64_t)>& task) {
    // One job at a time: a second top-level submitter queues here instead
    // of clobbering the active job's slots. (Nested submission from inside
    // a task never reaches run() — the serial-region guard runs it inline.)
    std::lock_guard<std::mutex> job_lock(job_mu_);
    std::uint64_t job_epoch = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      const int size = resolved_size_locked();
      if (size <= 1) {
        lock.unlock();
        for (std::int64_t i = 0; i < n_tasks; ++i) task(i);
        return;
      }
      if (workers_.empty()) start_locked(size);
      task_ = &task;
      n_tasks_ = n_tasks;
      done_ = 0;
      job_epoch = ++epoch_;
      next_.store(pack(job_epoch, 0), std::memory_order_relaxed);
      cv_work_.notify_all();
    }
    {
      // The submitting thread participates in the job; while it does, it
      // must refuse nested fan-out exactly like a worker would (nested
      // parallel_for inside a task runs inline).
      SerialRegion in_pool_work;
      drain(task, n_tasks, job_epoch);
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return done_ == n_tasks_; });
    task_ = nullptr;
  }

  ~Pool() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!workers_.empty()) shutdown_locked(lock);
  }

 private:
  int resolved_size_locked() const {
    return desired_ >= 1 ? desired_ : env_default_threads();
  }

  void start_locked(int size) {
    stop_ = false;
    workers_.reserve(static_cast<std::size_t>(size - 1));
    for (int i = 0; i < size - 1; ++i) {
      workers_.emplace_back([this] { worker_main(); });
    }
  }

  void shutdown_locked(std::unique_lock<std::mutex>& lock) {
    stop_ = true;
    cv_work_.notify_all();
    std::vector<std::thread> workers = std::move(workers_);
    workers_.clear();
    lock.unlock();
    for (auto& w : workers) w.join();
    lock.lock();
    stop_ = false;
  }

  // The claim counter packs (job epoch | chunk index) into one word so a
  // chunk claim is atomic WITH the job-identity check: a worker that went
  // to sleep holding job A's task pointer can never steal a chunk of job B
  // (its CAS fails on the epoch bits) and thus never runs a destroyed
  // std::function. 2^24 epochs and 2^40 chunks; an ABA wrap would need one
  // worker descheduled across 16M complete jobs.
  static constexpr int kEpochShift = 40;
  static constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kEpochShift) - 1;
  static std::uint64_t pack(std::uint64_t epoch, std::int64_t index) {
    return (epoch << kEpochShift) | static_cast<std::uint64_t>(index);
  }

  /// Claim and execute chunks of job `job_epoch` until the counter runs
  /// dry or a newer job replaces it.
  void drain(const std::function<void(std::int64_t)>& task, std::int64_t n_tasks,
             std::uint64_t job_epoch) {
    const std::uint64_t epoch_bits = pack(job_epoch, 0);
    std::int64_t finished = 0;
    std::uint64_t cur = next_.load(std::memory_order_relaxed);
    while (true) {
      if ((cur & ~kIndexMask) != epoch_bits) break;  // not our job anymore
      const auto i = static_cast<std::int64_t>(cur & kIndexMask);
      if (i >= n_tasks) break;
      if (!next_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed)) {
        continue;  // cur reloaded by the failed CAS
      }
      task(i);
      ++finished;
      cur = next_.load(std::memory_order_relaxed);
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(mu_);
      done_ += finished;
      if (done_ == n_tasks_) cv_done_.notify_all();
    }
  }

  void worker_main() {
    t_pool_worker = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_work_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      const auto* task = task_;
      const std::int64_t n_tasks = n_tasks_;
      if (task == nullptr) continue;  // job already fully drained
      lock.unlock();
      drain(*task, n_tasks, seen);
      lock.lock();
    }
  }

  std::mutex job_mu_;  ///< serializes whole jobs (held across run())
  std::mutex mu_;      ///< guards all pool state below
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int desired_ = 0;  ///< 0 = environment default
  bool stop_ = false;
  std::uint64_t epoch_ = 0;
  const std::function<void(std::int64_t)>* task_ = nullptr;
  std::int64_t n_tasks_ = 0;
  std::int64_t done_ = 0;  ///< guarded by mu_
  std::atomic<std::uint64_t> next_{0};  ///< packed (epoch, next chunk index)
  std::atomic<int> size_cache_{0};      ///< resolved pool size; 0 = stale
};

}  // namespace

int parallel_threads() { return Pool::instance().threads(); }

void set_parallel_threads(int n) { Pool::instance().set_threads(n); }

bool in_serial_region() { return t_pool_worker || t_serial_depth > 0; }

SerialRegion::SerialRegion() { ++t_serial_depth; }
SerialRegion::~SerialRegion() { --t_serial_depth; }

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (end <= begin) return;
  const std::int64_t g = grain < 1 ? 1 : grain;
  const std::int64_t n_chunks = ceil_div(end - begin, g);
  const auto chunk = [&](std::int64_t i) {
    const std::int64_t b = begin + i * g;
    const std::int64_t e = b + g < end ? b + g : end;
    fn(b, e);
  };
  if (n_chunks == 1 || in_serial_region()) {
    for (std::int64_t i = 0; i < n_chunks; ++i) chunk(i);
    return;
  }
  Pool::instance().run(n_chunks, chunk);
}

}  // namespace sagnn
