#include "pfs/block_device.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

namespace drx::pfs {
namespace {

CostModel test_model() {
  CostModel m;
  m.seek_us = 1000;
  m.disk_per_byte_us = 1;
  m.request_overhead_us = 10;
  m.network_latency_us = 0;
  m.network_per_byte_us = 0;
  return m;
}

TEST(BlockDevice, WriteThenReadBack) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> data(16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(dev.write(0, data).is_ok());
  std::vector<std::byte> out(16);
  ASSERT_TRUE(dev.read(0, out).is_ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.size(), 16u);
}

TEST(BlockDevice, ReadPastEndFails) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> out(4);
  EXPECT_EQ(dev.read(0, out).code(), ErrorCode::kOutOfRange);
  ASSERT_TRUE(dev.write(0, out).is_ok());
  EXPECT_EQ(dev.read(1, out).code(), ErrorCode::kOutOfRange);
}

TEST(BlockDevice, SparseWriteZeroFillsGap) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  const std::byte one[] = {std::byte{0xAA}};
  ASSERT_TRUE(dev.write(100, one).is_ok());
  EXPECT_EQ(dev.size(), 101u);
  std::vector<std::byte> out(101);
  ASSERT_TRUE(dev.read(0, out).is_ok());
  EXPECT_EQ(out[0], std::byte{0});
  EXPECT_EQ(out[99], std::byte{0});
  EXPECT_EQ(out[100], std::byte{0xAA});
}

TEST(BlockDevice, SequentialAccessAvoidsSeeks) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> slab(64);
  // First write from offset 0: head starts at 0, no seek.
  ASSERT_TRUE(dev.write(0, slab).is_ok());
  ASSERT_TRUE(dev.write(64, slab).is_ok());
  ASSERT_TRUE(dev.write(128, slab).is_ok());
  EXPECT_EQ(dev.stats().seeks, 0u);
  // Jump back: one seek.
  ASSERT_TRUE(dev.write(0, slab).is_ok());
  EXPECT_EQ(dev.stats().seeks, 1u);
}

TEST(BlockDevice, CostAccounting) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> slab(100);
  ASSERT_TRUE(dev.write(0, slab).is_ok());
  // No seek (head at 0), 10 overhead + 100 bytes * 1us.
  EXPECT_DOUBLE_EQ(dev.stats().busy_us, 110.0);
  std::vector<std::byte> out(50);
  ASSERT_TRUE(dev.read(0, out).is_ok());
  // Head was at 100 -> seek 1000 + 10 + 50.
  EXPECT_DOUBLE_EQ(dev.stats().busy_us, 110.0 + 1060.0);
  EXPECT_EQ(dev.stats().bytes_written, 100u);
  EXPECT_EQ(dev.stats().bytes_read, 50u);
  EXPECT_EQ(dev.stats().read_requests, 1u);
  EXPECT_EQ(dev.stats().write_requests, 1u);
}

TEST(BlockDevice, TruncateShrinksAndClampsHead) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> slab(128, std::byte{1});
  ASSERT_TRUE(dev.write(0, slab).is_ok());
  ASSERT_TRUE(dev.truncate(64).is_ok());
  EXPECT_EQ(dev.size(), 64u);
  std::vector<std::byte> out(64);
  ASSERT_TRUE(dev.read(0, out).is_ok());
  EXPECT_EQ(dev.read(1, out).code(), ErrorCode::kOutOfRange);
}

TEST(BlockDevice, TruncateGrowsWithZeros) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  const std::byte one[] = {std::byte{9}};
  ASSERT_TRUE(dev.write(0, one).is_ok());
  ASSERT_TRUE(dev.truncate(10).is_ok());
  std::vector<std::byte> out(10);
  ASSERT_TRUE(dev.read(0, out).is_ok());
  EXPECT_EQ(out[0], std::byte{9});
  EXPECT_EQ(out[9], std::byte{0});
}

// A range whose end wraps past 2^64 lies past the end of any device: it
// must be rejected before any byte is copied or any cost charged.
TEST(BlockDevice, RangeEndOverflowIsOutOfRange) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  ASSERT_TRUE(dev.write(0, std::vector<std::byte>(16, std::byte{7})).is_ok());
  const IoStats before = dev.stats();
  constexpr std::uint64_t kNearMax =
      std::numeric_limits<std::uint64_t>::max() - 1;

  std::vector<std::byte> out(4, std::byte{0xEE});
  EXPECT_EQ(dev.read(kNearMax, out).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(out, std::vector<std::byte>(4, std::byte{0xEE}));

  const std::vector<std::byte> data(4, std::byte{1});
  EXPECT_EQ(dev.write(kNearMax, data).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.size(), 16u);

  const GatherPiece wrapped[] = {{kNearMax, out}};
  EXPECT_EQ(dev.read_gather(0, 16, wrapped).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(dev.read_gather(kNearMax, 16, {}).code(), ErrorCode::kOutOfRange);

  const IoStats d = dev.stats() - before;
  EXPECT_EQ(d.read_requests + d.write_requests, 0u);
  std::vector<std::byte> all(16);
  ASSERT_TRUE(dev.read(0, all).is_ok());
  EXPECT_EQ(all, std::vector<std::byte>(16, std::byte{7}));
}

constexpr std::uint64_t kPage = BlockDevice::kPageBytes;

TEST(BlockDevice, WriteAndReadCrossAPageBoundary) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i + 1);
  }
  ASSERT_TRUE(dev.write(kPage - 50, data).is_ok());
  EXPECT_EQ(dev.size(), kPage + 50);
  EXPECT_EQ(dev.resident_bytes(), 2 * kPage);
  std::vector<std::byte> out(100);
  ASSERT_TRUE(dev.read(kPage - 50, out).is_ok());
  EXPECT_EQ(out, data);
  // One request each way, whatever the pages.
  EXPECT_EQ(dev.stats().write_requests, 1u);
  EXPECT_EQ(dev.stats().read_requests, 1u);
}

TEST(BlockDevice, TruncateDownMidPageThenGrowReadsZeros) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  ASSERT_TRUE(dev.write(0, std::vector<std::byte>(3 * kPage, std::byte{0xAB}))
                  .is_ok());
  ASSERT_TRUE(dev.truncate(kPage + 10).is_ok());
  EXPECT_EQ(dev.resident_bytes(), 2 * kPage);
  ASSERT_TRUE(dev.truncate(3 * kPage).is_ok());  // by truncate
  std::vector<std::byte> out(2 * kPage);
  ASSERT_TRUE(dev.read(kPage, out).is_ok());
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < 10 ? std::byte{0xAB} : std::byte{0}) << i;
  }

  ASSERT_TRUE(dev.truncate(kPage - 5).is_ok());
  const std::byte one[] = {std::byte{1}};
  ASSERT_TRUE(dev.write(2 * kPage, one).is_ok());  // by a write past the end
  std::vector<std::byte> tail(kPage + 5);
  ASSERT_TRUE(dev.read(kPage - 5, tail).is_ok());
  EXPECT_EQ(tail, std::vector<std::byte>(kPage + 5));
}

TEST(BlockDevice, GrowthAllocatesOnlyThePagesWritten) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  ASSERT_TRUE(dev.truncate(std::uint64_t{1} << 30).is_ok());
  EXPECT_EQ(dev.size(), std::uint64_t{1} << 30);
  EXPECT_EQ(dev.resident_bytes(), 0u);

  const std::byte one[] = {std::byte{5}};
  ASSERT_TRUE(dev.write(10 * kPage + 3, one).is_ok());
  EXPECT_EQ(dev.resident_bytes(), kPage);
  ASSERT_TRUE(dev.write((std::uint64_t{1} << 31) + 7, one).is_ok());
  EXPECT_EQ(dev.size(), (std::uint64_t{1} << 31) + 8);
  EXPECT_EQ(dev.resident_bytes(), 2 * kPage);

  // Reading a hole returns zeros and allocates nothing.
  std::vector<std::byte> hole(3 * kPage, std::byte{0xFF});
  ASSERT_TRUE(dev.read(20 * kPage - 1, hole).is_ok());
  EXPECT_EQ(hole, std::vector<std::byte>(3 * kPage));
  std::vector<std::byte> piece(2, std::byte{0xFF});
  const GatherPiece pieces[] = {{10 * kPage + 2, piece}};
  ASSERT_TRUE(dev.read_gather(10 * kPage, 12 * kPage, pieces).is_ok());
  EXPECT_EQ(piece[0], std::byte{0});
  EXPECT_EQ(piece[1], std::byte{5});
  EXPECT_EQ(dev.resident_bytes(), 2 * kPage);
}

TEST(BlockDevice, TruncateToZeroFreesEveryPage) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  ASSERT_TRUE(dev.write(0, std::vector<std::byte>(kPage + 1, std::byte{3}))
                  .is_ok());
  ASSERT_TRUE(dev.write(9 * kPage, std::vector<std::byte>(8)).is_ok());
  EXPECT_EQ(dev.resident_bytes(), 3 * kPage);
  ASSERT_TRUE(dev.truncate(0).is_ok());
  EXPECT_EQ(dev.size(), 0u);
  EXPECT_EQ(dev.resident_bytes(), 0u);
  ASSERT_TRUE(dev.truncate(2 * kPage).is_ok());
  std::vector<std::byte> out(2 * kPage, std::byte{0xFF});
  ASSERT_TRUE(dev.read(0, out).is_ok());
  EXPECT_EQ(out, std::vector<std::byte>(2 * kPage));
  EXPECT_EQ(dev.resident_bytes(), 0u);
}

// Data sieving: one request over [lo, hi) — at most one seek, busy time
// and bytes_read for all hi - lo bytes — that copies only the pieces.
TEST(BlockDevice, ReadGatherChargesTheRangeAndCopiesOnlyPieces) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i);
  }
  ASSERT_TRUE(dev.write(0, data).is_ok());
  const IoStats before = dev.stats();

  std::vector<std::byte> a(4, std::byte{0xEE});
  std::vector<std::byte> b(6, std::byte{0xEE});
  const GatherPiece pieces[] = {{10, a}, {40, b}};
  ASSERT_TRUE(dev.read_gather(10, 46, pieces).is_ok());
  const IoStats d = dev.stats() - before;
  EXPECT_EQ(d.read_requests, 1u);
  EXPECT_EQ(d.seeks, 1u);  // the head was at 100
  EXPECT_EQ(d.bytes_read, 36u);
  EXPECT_DOUBLE_EQ(d.busy_us, 1000.0 + 10.0 + 36.0);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], data[10 + i]);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], data[40 + i]);

  // The head ends at hi: the next gather from there does not seek.
  std::vector<std::byte> c(2);
  const GatherPiece next[] = {{50, c}};
  ASSERT_TRUE(dev.read_gather(46, 52, next).is_ok());
  EXPECT_EQ((dev.stats() - before).seeks, 1u);
  EXPECT_EQ(c[0], data[50]);
}

TEST(BlockDevice, ReadGatherRejectsBadRanges) {
  const CostModel m = test_model();
  BlockDevice dev(&m);
  ASSERT_TRUE(dev.write(0, std::vector<std::byte>(64)).is_ok());
  std::vector<std::byte> out(8);
  const GatherPiece inside[] = {{0, out}};
  EXPECT_EQ(dev.read_gather(0, 65, inside).code(), ErrorCode::kOutOfRange);
  const GatherPiece before_lo[] = {{4, out}};
  EXPECT_EQ(dev.read_gather(8, 32, before_lo).code(), ErrorCode::kOutOfRange);
  const GatherPiece past_hi[] = {{28, out}};
  EXPECT_EQ(dev.read_gather(8, 32, past_hi).code(), ErrorCode::kOutOfRange);
  // A rejected gather charges nothing.
  EXPECT_EQ(dev.stats().read_requests, 0u);
}

// The break-even hole of the cost model: joining pays while the hole's
// transfer costs less than a seek plus a request.
TEST(CostModel, SieveGapIsTheSeekAndRequestBreakEven) {
  EXPECT_EQ(CostModel{}.sieve_gap_bytes(), 740910u);  // 8150 us / 0.011
  const CostModel m = test_model();                   // 1010 us / 1 us
  EXPECT_EQ(m.sieve_gap_bytes(), 1010u);
  CostModel free_requests;
  free_requests.seek_us = 0;
  free_requests.request_overhead_us = 0;
  free_requests.network_latency_us = 0;
  EXPECT_EQ(free_requests.sieve_gap_bytes(), 0u);
}

}  // namespace
}  // namespace drx::pfs
