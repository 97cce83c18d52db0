// Wait stress: many short rounds of mixed collectives and point-to-point
// calls, with random busy delays on random ranks, so that waits both end
// while spinning and park on their condition variable. A lost wakeup
// hangs a rank forever, so every run is under a watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "../watchdog.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::simpi {
namespace {

constexpr int kRounds = 10000;
constexpr auto kLimit = std::chrono::seconds(30);

void busy_wait(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// One rank's rounds. Every rank draws the same op sequence from `ops`;
/// its own `delays` stream decides when it arrives late.
void stress_rounds(Comm& comm) {
  const int p = comm.size();
  const int me = comm.rank();
  SplitMix64 ops(42);
  SplitMix64 delays(1000 + static_cast<std::uint64_t>(me));
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t op = ops.next_below(6);
    const auto root =
        static_cast<int>(ops.next_below(static_cast<std::uint64_t>(p)));
    // About one round in eight has some rank arrive up to 100 us late:
    // longer than the spin budget about a third of the time.
    if (delays.next_below(static_cast<std::uint64_t>(8 * p)) == 0) {
      busy_wait(std::chrono::microseconds(delays.next_below(101)));
    }
    // Every thousandth round one rank arrives 2 ms late, so some wait
    // parks even when the machine is so loaded that a spinner's yields
    // outlast the short delays. It is the root's successor: the fan-in's
    // root waits for it, and every other op has all ranks wait for all.
    if (round % 1000 == 999 && me == (root + 1) % p) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto value = static_cast<std::uint64_t>(round) * 1000;
    switch (op) {
      case 0:
        comm.barrier();
        break;
      case 1: {
        std::uint64_t v = me == root ? value + 7 : 0;
        comm.bcast_value(v, root);
        ASSERT_EQ(v, value + 7);
        break;
      }
      case 2: {
        const std::uint64_t sum = comm.allreduce_value(
            value + static_cast<std::uint64_t>(me), ReduceOp::kSum);
        const auto np = static_cast<std::uint64_t>(p);
        ASSERT_EQ(sum, value * np + np * (np - 1) / 2);
        break;
      }
      case 3: {
        std::vector<std::vector<std::byte>> send(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
          send[static_cast<std::size_t>(d)].assign(
              static_cast<std::size_t>(1 + (me + d + round) % 5),
              static_cast<std::byte>(me));
        }
        const auto recv = comm.alltoallv_bytes(std::move(send));
        for (int s = 0; s < p; ++s) {
          ASSERT_EQ(recv[static_cast<std::size_t>(s)],
                    std::vector<std::byte>(
                        static_cast<std::size_t>(1 + (s + me + round) % 5),
                        static_cast<std::byte>(s)));
        }
        break;
      }
      case 4: {
        // Ring: probe for the left neighbour's message, then receive it.
        const int right = (me + 1) % p;
        const int left = (me + p - 1) % p;
        comm.send_value<std::uint64_t>(value + static_cast<std::uint64_t>(me),
                                       right, round);
        const RecvStatus st = comm.probe(left, kAnyTag);
        ASSERT_EQ(st.tag, round);
        ASSERT_EQ(st.bytes, sizeof(std::uint64_t));
        ASSERT_EQ(comm.recv_value<std::uint64_t>(left, st.tag),
                  value + static_cast<std::uint64_t>(left));
        break;
      }
      default: {
        // Fan-in from any source to the round's root; the tag keeps a
        // later round's sender from matching.
        const int tag = kRounds + round;
        if (me != root) {
          comm.send_value<std::uint64_t>(value, root, tag);
        } else {
          for (int n = 1; n < p; ++n) {
            ASSERT_EQ(comm.recv_value<std::uint64_t>(kAnySource, tag), value);
          }
        }
        break;
      }
    }
  }
}

struct WaitCounts {
  std::uint64_t spin_hits = 0;
  std::uint64_t parks = 0;
};

WaitCounts stress(int p) {
  const obs::MetricsSnapshot before = obs::process_registry().snapshot();
  drx::testing::with_watchdog(kLimit, "simpi wait stress",
                              [&] { run(p, stress_rounds); });
  const obs::MetricsSnapshot d =
      obs::snapshot_delta(obs::process_registry().snapshot(), before);
  return {d.counter("simpi.wait.spin_hits"), d.counter("simpi.wait.parks")};
}

class WaitStressP : public ::testing::TestWithParam<int> {};

TEST_P(WaitStressP, MixedRoundsFinishAndTakeBothWaitPaths) {
  const int p = GetParam();
  const WaitCounts c = stress(p);
  if (p == 1) {
    // A lone rank never waits for anyone.
    EXPECT_EQ(c.spin_hits, 0u);
    EXPECT_EQ(c.parks, 0u);
    return;
  }
  // Delays past the spin budget always park.
  EXPECT_GT(c.parks, 0u);
  if (detail::spin_waits(p)) {
    EXPECT_GT(c.spin_hits, 0u);
  } else {
    EXPECT_EQ(c.spin_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WaitStressP,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(WaitPolicy, MoreRanksThanHardwareThreadsNeverSpin) {
  const auto hw = std::thread::hardware_concurrency();
  const int p = static_cast<int>(std::max(1u, hw)) + 1;
  EXPECT_FALSE(detail::spin_waits(p));
  EXPECT_EQ(detail::spin_waits(p - 1), hw != 0);
  const obs::MetricsSnapshot before = obs::process_registry().snapshot();
  drx::testing::with_watchdog(kLimit, "oversubscribed rounds", [&] {
    run(p, [](Comm& comm) {
      for (int i = 0; i < 200; ++i) {
        comm.barrier();
        std::uint64_t v = comm.rank() == 0 ? 1u : 0u;
        comm.bcast_value(v, 0);
        ASSERT_EQ(v, 1u);
      }
    });
  });
  const obs::MetricsSnapshot d =
      obs::snapshot_delta(obs::process_registry().snapshot(), before);
  EXPECT_EQ(d.counter("simpi.wait.spin_hits"), 0u);
  EXPECT_GT(d.counter("simpi.wait.parks"), 0u);
}

}  // namespace
}  // namespace drx::simpi
