// A deadline for test bodies that can hang: a lost wakeup or a rank left
// waiting in a collective blocks forever, and such a test must fail, not
// stall the suite. The watchdog aborts the test binary with a message
// when the body outlives its limit.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <thread>

namespace drx::testing {

inline void with_watchdog(std::chrono::seconds limit, const char* what,
                          const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread dog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "watchdog: %s did not finish within %llds\n", what,
                   static_cast<long long>(limit.count()));
      std::fflush(stderr);
      std::abort();
    }
  });
  body();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  dog.join();
}

}  // namespace drx::testing
