#include "io/async_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "io/config.hpp"
#include "obs/opctx.hpp"
#include "util/knob.hpp"

namespace drx::io {
namespace {

TEST(AsyncIoPool, InlineModeRunsJobBeforeSubmitReturns) {
  AsyncIoPool pool({.threads = 0, .queue_capacity = 4});
  EXPECT_FALSE(pool.async());
  EXPECT_EQ(pool.threads(), 0);

  int ran = 0;
  Status seen;
  pool.submit(obs::OpContext{}, [&] { ++ran; return Status::ok(); },
              [&](const Status& st) { seen = st; ++ran; });
  // Inline execution: job and completion both finished already.
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(seen.is_ok());
  EXPECT_EQ(pool.stats().inline_runs, 1u);
  EXPECT_EQ(pool.stats().completed, 1u);
}

TEST(AsyncIoPool, WorkerModeCompletesAllJobs) {
  AsyncIoPool pool({.threads = 3, .queue_capacity = 8});
  EXPECT_TRUE(pool.async());
  EXPECT_EQ(pool.threads(), 3);

  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit(obs::OpContext{}, [&ran] { ran.fetch_add(1); return Status::ok(); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.stats().submitted, 100u);
  EXPECT_EQ(pool.stats().completed, 100u);
  EXPECT_EQ(pool.stats().inline_runs, 0u);
}

TEST(AsyncIoPool, FutureCarriesJobStatus) {
  AsyncIoPool pool({.threads = 1, .queue_capacity = 2});
  auto ok = pool.submit_with_future(obs::OpContext{}, [] { return Status::ok(); });
  auto bad = pool.submit_with_future(
      obs::OpContext{}, [] { return Status(ErrorCode::kIoError, "injected"); });
  EXPECT_TRUE(ok.get().is_ok());
  const Status st = bad.get();
  EXPECT_EQ(st.code(), ErrorCode::kIoError);
  EXPECT_EQ(st.message(), "injected");
  pool.drain();
  EXPECT_EQ(pool.stats().failed, 1u);
}

TEST(AsyncIoPool, CompletionRunsAfterJobWithItsStatus) {
  AsyncIoPool pool({.threads = 2, .queue_capacity = 4});
  std::atomic<int> order{0};
  std::atomic<int> job_at{-1};
  std::atomic<int> done_at{-1};
  std::atomic<bool> failed{false};
  pool.submit(
      obs::OpContext{},
      [&] {
        job_at = order.fetch_add(1);
        return Status(ErrorCode::kCorrupt, "x");
      },
      [&](const Status& st) {
        done_at = order.fetch_add(1);
        failed = !st.is_ok();
      });
  pool.drain();
  EXPECT_EQ(job_at.load(), 0);
  EXPECT_EQ(done_at.load(), 1);
  EXPECT_TRUE(failed.load());
}

TEST(AsyncIoPool, BoundedQueueAppliesBackpressureWithoutDeadlock) {
  // A tiny queue with slow jobs: the fast producer must block in submit()
  // rather than queueing unboundedly, and everything still completes.
  AsyncIoPool pool({.threads = 1, .queue_capacity = 2});
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit(obs::OpContext{}, [&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
      return Status::ok();
    });
    EXPECT_LE(pool.queue_depth(), 2u);
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 32);
}

TEST(AsyncIoPool, DrainIsABarrierFromManyProducers) {
  AsyncIoPool pool({.threads = 4, .queue_capacity = 16});
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  producers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&pool, &ran] {
      for (int i = 0; i < 50; ++i) {
        pool.submit(obs::OpContext{}, [&ran] { ran.fetch_add(1); return Status::ok(); });
      }
    });
  }
  for (std::thread& t : producers) t.join();
  pool.drain();
  EXPECT_EQ(ran.load(), 200);
}

TEST(AsyncIoPool, DestructorDrainsOutstandingJobs) {
  std::atomic<int> ran{0};
  {
    AsyncIoPool pool({.threads = 2, .queue_capacity = 8});
    for (int i = 0; i < 20; ++i) {
      pool.submit(obs::OpContext{}, [&ran] { ran.fetch_add(1); return Status::ok(); });
    }
  }  // dtor must complete every submitted job before joining
  EXPECT_EQ(ran.load(), 20);
}

TEST(AsyncIoPool, BackgroundJobsAreNotStarvedByAnUrgentStream) {
  AsyncIoPool pool({.threads = 1, .queue_capacity = 64});
  // Park the single worker so both queues fill up behind it, then watch
  // the dispatch interleaving: urgent first, but every 4th dispatch must
  // take the oldest background job (docs/SERVING.md anti-starvation).
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.submit(obs::OpContext{}, [opened] {
    opened.wait();
    return Status::ok();
  });

  constexpr int kUrgent = 12;
  constexpr int kBackground = 4;
  std::atomic<int> seq{0};
  std::atomic<int> first_background{-1};
  std::atomic<int> last_urgent{-1};
  for (int i = 0; i < kBackground; ++i) {
    pool.submit(
        obs::OpContext{}, [] { return Status::ok(); },
        [&seq, &first_background](const Status&) {
          const int pos = seq.fetch_add(1);
          int expected = -1;
          first_background.compare_exchange_strong(expected, pos);
        },
        AsyncIoPool::JobClass::kBackground);
  }
  for (int i = 0; i < kUrgent; ++i) {
    pool.submit(
        obs::OpContext{}, [] { return Status::ok(); },
        [&seq, &last_urgent](const Status&) {
          last_urgent.store(seq.fetch_add(1));
        });
  }
  gate.set_value();
  pool.drain();

  EXPECT_EQ(seq.load(), kUrgent + kBackground);
  EXPECT_EQ(pool.stats().background_submitted,
            static_cast<std::uint64_t>(kBackground));
  // Urgent jobs go first...
  EXPECT_GT(first_background.load(), 0);
  // ...but the first background job must be served well before the
  // urgent stream ends (every 4th dispatch), not starved to the tail.
  EXPECT_LT(first_background.load(), kUrgent - 1);
  EXPECT_EQ(last_urgent.load(), kUrgent + kBackground - 1);
}

TEST(IoConfig, OverridesBeatEnvironmentAndRestore) {
  set_io_threads(3);
  EXPECT_EQ(io_threads(), 3);
  set_prefetch_depth(7);
  EXPECT_EQ(prefetch_depth(), 7u);
  set_io_threads(-1);          // back to environment-derived value
  set_prefetch_depth(kPrefetchFromEnv);
  // No DRX_* vars in the test environment: both default to off.
  EXPECT_EQ(io_threads(), 0);
  EXPECT_EQ(prefetch_depth(), 0u);
}

// The env knobs accept a whole decimal in range and nothing else. The
// parser is tested directly: reading a bad DRX_IO_THREADS through the
// environment would size real pools from it.
TEST(IoConfig, KnobParserTakesOnlyWholeDecimalsInRange) {
  EXPECT_EQ(util::parse_knob("0", 0, 64), 0u);
  EXPECT_EQ(util::parse_knob("4", 0, 64), 4u);
  EXPECT_EQ(util::parse_knob("64", 0, 64), 64u);
  EXPECT_EQ(util::parse_knob("007", 0, 64), 7u);
  EXPECT_EQ(util::parse_knob("18446744073709551615", 0, ~std::uint64_t{0}),
            ~std::uint64_t{0});
  for (const char* bad : {"", "-1", "+4", " 4", "4 ", "4x", "0x10", "off",
                          "1.5", "65", "18446744073709551616"}) {
    EXPECT_EQ(util::parse_knob(bad, 0, 64), std::nullopt) << '"' << bad << '"';
  }
  // The lower bound holds too: a serve queue of depth 0 is no queue.
  EXPECT_EQ(util::parse_knob("0", 1, 1u << 20), std::nullopt);
  EXPECT_EQ(util::parse_knob("1048577", 1, 1u << 20), std::nullopt);
  EXPECT_EQ(util::parse_knob("1", 0, 1), 1u);
  EXPECT_EQ(util::parse_knob("2", 0, 1), std::nullopt);
}

}  // namespace
}  // namespace drx::io
