#pragma once
// Shared test helper: runs a concurrency scenario under a time budget so
// a deadlock fails the test instead of hanging the suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

namespace sagnn {

/// Run `body` on a helper thread and fail (instead of hanging the suite)
/// if it does not finish within five seconds.
inline void with_watchdog(const std::function<void()>& body) {
  std::atomic<bool> done{false};
  std::thread runner([&] {
    body();
    done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(done.load()) << "scenario hung (watchdog)";
  runner.join();
}

}  // namespace sagnn
