// Cross-rank metric totals: obs::live_snapshot() merges every live rank
// registry with the process registry, and each rank folds into the
// process registry when it exits, so the totals must equal the sum of
// the per-rank values both mid-run and after it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/drxmp.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"

namespace drx::obs {
namespace {

TEST(Aggregate, RankZeroTotalsEqualSumOfPerRank) {
  constexpr int kRanks = 5;
  constexpr std::uint64_t kMarkerTotal = kRanks * (kRanks + 1) / 2;
  pfs::PfsConfig cfg;
  cfg.num_servers = 2;
  pfs::Pfs fs(cfg);

  const MetricId marker = counter_id("test.agg.marker");
  // The process registry is shared with earlier tests: compare deltas.
  const MetricsSnapshot before = live_snapshot();
  std::atomic<std::uint64_t> expected_bytes_written{0};

  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kInt32;
    auto fr = core::DrxMpFile::create(comm, fs, "agg", core::Shape{20, 8},
                                      core::Shape{4, 4}, opts);
    ASSERT_TRUE(fr.is_ok());
    core::DrxMpFile file = std::move(fr).value();

    // A synthetic counter with a rank-dependent value: rank r adds r + 1,
    // so the cross-rank total must be 1 + 2 + ... + kRanks.
    registry().counter(marker).add(
        static_cast<std::uint64_t>(comm.rank()) + 1);

    const core::Distribution dist = file.block_distribution();
    std::vector<std::byte> buf(static_cast<std::size_t>(
        file.zone_buffer_bytes(dist, comm.rank())));
    ASSERT_TRUE(file
                    .write_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                   /*collective=*/true)
                    .is_ok());

    // Sum an organic counter across ranks for comparison against the
    // live totals (each rank reads its own registry).
    const std::uint64_t mine =
        registry().snapshot().counter("mpio.bytes_written");
    std::uint64_t total = 0;
    for (std::uint64_t v : comm.allgather_value(mine)) total += v;

    // Mid-run, with every rank's registry still live: rank 0 reads the
    // totals while its peers wait.
    if (comm.rank() == 0) {
      expected_bytes_written.store(total, std::memory_order_relaxed);
      const MetricsSnapshot live = live_snapshot();
      EXPECT_EQ(live.counter("test.agg.marker") -
                    before.counter("test.agg.marker"),
                kMarkerTotal);
      EXPECT_EQ(live.counter("mpio.bytes_written") -
                    before.counter("mpio.bytes_written"),
                total);
    }
    comm.barrier();
    ASSERT_TRUE(file.close().is_ok());
  });

  // After the run every rank has folded into the process registry.
  const MetricsSnapshot after = live_snapshot();
  EXPECT_EQ(after.counter("test.agg.marker") -
                before.counter("test.agg.marker"),
            kMarkerTotal);
  const std::uint64_t expected =
      expected_bytes_written.load(std::memory_order_relaxed);
  EXPECT_GT(expected, 0u);
  EXPECT_EQ(after.counter("mpio.bytes_written") -
                before.counter("mpio.bytes_written"),
            expected);
  EXPECT_GT(after.counter("mpio.collective_ops"),
            before.counter("mpio.collective_ops"));
}

}  // namespace
}  // namespace drx::obs
