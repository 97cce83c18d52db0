// Error propagation and data sieving in collective I/O: an
// aggregator-side failure must surface on EVERY rank, and the sieve gap
// (the cost model's break-even hole) must change access counts but never
// results.
#include <gtest/gtest.h>

#include <algorithm>

#include "../watchdog.hpp"
#include "mpio/file.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"

namespace drx::mpio {
namespace {

using simpi::Comm;
using simpi::Datatype;

pfs::PfsConfig cfg() {
  pfs::PfsConfig c;
  c.num_servers = 2;
  c.stripe_size = 64;
  return c;
}

/// A cost model whose requests cost nothing fixed: its sieve gap is 0.
pfs::CostModel no_fixed_costs() {
  pfs::CostModel m;
  m.seek_us = 0;
  m.request_overhead_us = 0;
  m.network_latency_us = 0;
  return m;
}

TEST(CollectiveErrors, ReadPastEofFailsOnAllRanks) {
  pfs::Pfs fs(cfg());
  simpi::run(4, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    if (comm.rank() == 0) {
      std::vector<std::byte> v(64, std::byte{1});
      ASSERT_TRUE(f.write_at(0, v.data(), 64, Datatype::bytes(1)).is_ok());
    }
    comm.barrier();
    // Every rank asks for bytes [128, 192) of a 64-byte file. The failing
    // device access happens on whichever aggregator owns the domain; the
    // error must come back everywhere.
    std::vector<std::byte> out(64);
    const Status s =
        f.read_at_all(128, out.data(), 64, Datatype::bytes(1));
    EXPECT_FALSE(s.is_ok()) << "rank " << comm.rank();
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(CollectiveErrors, DeleteOnCloseFailureReturnsOnEveryRank) {
  // Rank 0's removal fails (the file is already gone); every rank must
  // return rank 0's status instead of waiting for it in a barrier.
  pfs::Pfs fs(cfg());
  drx::testing::with_watchdog(std::chrono::seconds(30), "close", [&] {
    simpi::run(4, [&](Comm& comm) {
      File f = File::open(comm, fs, "gone",
                          kModeRdWr | kModeCreate | kModeDeleteOnClose)
                   .value();
      comm.barrier();
      if (comm.rank() == 0) {
        ASSERT_TRUE(fs.remove("gone").is_ok());
      }
      EXPECT_EQ(f.close().code(), ErrorCode::kNotFound)
          << "rank " << comm.rank();
      EXPECT_FALSE(f.is_open());
    });
  });
}

TEST(CollectiveErrors, MixedValidAndInvalidRequestsFailEverywhere) {
  pfs::Pfs fs(cfg());
  simpi::run(4, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    ASSERT_TRUE(f.set_size(256).is_ok());
    // Rank 3 reads out of range; everyone else is in range. Collective
    // semantics: the failure reaches every rank.
    const std::uint64_t offset =
        comm.rank() == 3 ? 10'000 : static_cast<std::uint64_t>(comm.rank()) * 64;
    std::vector<std::byte> out(64);
    const Status s = f.read_at_all(offset, out.data(), 64,
                                   Datatype::bytes(1));
    EXPECT_FALSE(s.is_ok()) << "rank " << comm.rank();
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(CollectiveErrors, SieveGapChangesAccessCountsNotResults) {
  // Strided read with 50% holes under a model with gap 0 and under the
  // default one (gap ~724 KiB): same bytes, different request counts.
  auto run_once = [](const pfs::CostModel& cost, std::uint64_t* requests) {
    pfs::PfsConfig c = cfg();
    c.cost = cost;
    pfs::Pfs fs(c);
    std::vector<std::byte> result;
    simpi::run(2, [&](Comm& comm) {
      File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
      if (comm.rank() == 0) {
        std::vector<std::byte> dense(4096);
        for (std::size_t i = 0; i < dense.size(); ++i) {
          dense[i] = static_cast<std::byte>(i * 13 & 0xFF);
        }
        ASSERT_TRUE(
            f.write_at(0, dense.data(), dense.size(), Datatype::bytes(1))
                .is_ok());
      }
      comm.barrier();
      // Both ranks read the SAME strided half of the file, so the
      // aggregate request pattern has genuine 32-byte holes.
      auto ft = Datatype::bytes(32).resized(64);
      f.set_view(0, Datatype::bytes(1), ft);
      std::vector<std::byte> mine(2048);
      const auto before = fs.total_stats();
      ASSERT_TRUE(
          f.read_at_all(0, mine.data(), mine.size(), Datatype::bytes(1))
              .is_ok());
      comm.barrier();
      if (comm.rank() == 0) {
        *requests = fs.total_stats().read_requests - before.read_requests;
        result = mine;
      }
      ASSERT_TRUE(f.close().is_ok());
    });
    return result;
  };

  std::uint64_t requests_nosieve = 0, requests_sieve = 0;
  const auto a = run_once(no_fixed_costs(), &requests_nosieve);
  const auto b = run_once(pfs::CostModel{}, &requests_sieve);
  EXPECT_EQ(a, b);
  EXPECT_GT(requests_nosieve, requests_sieve);
  EXPECT_EQ(requests_sieve, 2u);  // one per server
}

/// Byte `i` of the file the sieve tests read: nonzero everywhere, so a
/// hole byte copied into a reply shows.
std::byte image_byte(std::uint64_t i) {
  return static_cast<std::byte>((i * 131 + (i >> 8) * 7) % 255 + 1);
}

/// What a collective read cost the one server of a Pfs.
struct ReadCost {
  std::uint64_t requests = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t server_counter = 0;  ///< delta of pfs.server.0.bytes
};

/// On a one-server Pfs under `cost` holding the image, rank r reads the
/// `len` bytes at `offsets[r]` in one collective call and checks them.
ReadCost collective_read(const pfs::CostModel& cost,
                         const std::vector<std::uint64_t>& offsets,
                         std::uint64_t len) {
  pfs::PfsConfig c;
  c.num_servers = 1;
  c.cost = cost;
  pfs::Pfs fs(c);
  std::uint64_t file_end = 0;
  for (const std::uint64_t off : offsets) {
    file_end = std::max(file_end, off + len);
  }
  std::vector<std::byte> image(file_end);
  for (std::uint64_t i = 0; i < file_end; ++i) image[i] = image_byte(i);
  EXPECT_TRUE(fs.create("f").value().write_at(0, image).is_ok());

  const pfs::IoStats before = fs.total_stats();
  const obs::MetricsSnapshot counters_before =
      obs::process_registry().snapshot();
  simpi::run(static_cast<int>(offsets.size()), [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdOnly).value();
    const std::uint64_t off = offsets[static_cast<std::size_t>(comm.rank())];
    std::vector<std::byte> out(len);
    ASSERT_TRUE(
        f.read_at_all(off, out.data(), len, Datatype::bytes(1)).is_ok());
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           image.begin() + static_cast<std::ptrdiff_t>(off)))
        << "rank " << comm.rank();
    ASSERT_TRUE(f.close().is_ok());
  });
  const pfs::IoStats d = fs.total_stats() - before;
  const obs::MetricsSnapshot counters = obs::snapshot_delta(
      obs::process_registry().snapshot(), counters_before);
  return ReadCost{d.read_requests, d.bytes_read,
                  counters.counter("pfs.server.0.bytes")};
}

// The one data-sieving rule: an aggregator reads across a hole narrower
// than the model's break-even gap and seeks past one at least as wide.
TEST(CollectiveErrors, SieveGapIsTheCostModelBreakEven) {
  const pfs::CostModel model;
  const std::uint64_t gap = model.sieve_gap_bytes();
  ASSERT_GT(gap, 0u);
  constexpr std::uint64_t kLen = 4096;
  // Three ranks, three pieces, two holes of gap - 1 bytes: one request
  // that transfers the holes too.
  const std::uint64_t narrow = kLen + gap - 1;
  const ReadCost sieved =
      collective_read(model, {0, narrow, 2 * narrow}, kLen);
  EXPECT_EQ(sieved.requests, 1u);
  EXPECT_EQ(sieved.bytes_read, 3 * kLen + 2 * (gap - 1));
  // The server counter charges what the request transferred.
  EXPECT_EQ(sieved.server_counter, sieved.bytes_read);

  // Holes of exactly the gap: one request per piece, payload only.
  const std::uint64_t wide = kLen + gap;
  const ReadCost split = collective_read(model, {0, wide, 2 * wide}, kLen);
  EXPECT_EQ(split.requests, 3u);
  EXPECT_EQ(split.bytes_read, 3 * kLen);
  EXPECT_EQ(split.server_counter, split.bytes_read);
}

// Under a model with gap 0, fragments still merge when they touch or
// overlap (two ranks reading the same bytes), and a 1-byte hole splits.
TEST(CollectiveErrors, GapZeroStillMergesTouchingAndOverlapping) {
  const pfs::CostModel free_requests = no_fixed_costs();
  ASSERT_EQ(free_requests.sieve_gap_bytes(), 0u);
  constexpr std::uint64_t kLen = 1000;
  const ReadCost same = collective_read(free_requests, {0, 0}, kLen);
  EXPECT_EQ(same.requests, 1u);
  EXPECT_EQ(same.bytes_read, kLen);
  const ReadCost overlap = collective_read(free_requests, {0, kLen / 2}, kLen);
  EXPECT_EQ(overlap.requests, 1u);
  EXPECT_EQ(overlap.bytes_read, kLen + kLen / 2);
  const ReadCost touching = collective_read(free_requests, {0, kLen}, kLen);
  EXPECT_EQ(touching.requests, 1u);
  EXPECT_EQ(touching.bytes_read, 2 * kLen);
  const ReadCost hole = collective_read(free_requests, {0, kLen + 1}, kLen);
  EXPECT_EQ(hole.requests, 2u);
  EXPECT_EQ(hole.bytes_read, 2 * kLen);
}

}  // namespace
}  // namespace drx::mpio
