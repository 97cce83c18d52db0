#include "pfs/storage.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/rng.hpp"

namespace drx::pfs {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed = 3) {
  SplitMix64 rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xFF);
  return buf;
}

/// The Storage contract, run against every implementation.
void exercise_storage(Storage& s) {
  EXPECT_EQ(s.size(), 0u);
  const auto data = pattern(200);
  ASSERT_TRUE(s.write_at(0, data).is_ok());
  EXPECT_EQ(s.size(), 200u);
  std::vector<std::byte> out(200);
  ASSERT_TRUE(s.read_at(0, out).is_ok());
  EXPECT_EQ(out, data);

  // Partial read at offset.
  std::vector<std::byte> part(50);
  ASSERT_TRUE(s.read_at(100, part).is_ok());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(part[i], data[100 + i]);

  // Sparse write beyond EOF zero-fills.
  const std::byte one[] = {std::byte{0x7F}};
  ASSERT_TRUE(s.write_at(300, one).is_ok());
  EXPECT_EQ(s.size(), 301u);
  std::vector<std::byte> gap(100);
  ASSERT_TRUE(s.read_at(200, gap).is_ok());
  for (std::byte b : gap) EXPECT_EQ(b, std::byte{0});

  // Read past EOF errors.
  std::vector<std::byte> over(2);
  EXPECT_FALSE(s.read_at(300, over).is_ok());

  EXPECT_TRUE(s.flush().is_ok());
}

TEST(MemStorage, Contract) {
  MemStorage s;
  exercise_storage(s);
}

TEST(MemStorage, TracksStats) {
  MemStorage s;
  ASSERT_TRUE(s.write_at(0, pattern(64)).is_ok());
  EXPECT_EQ(s.stats().bytes_written, 64u);
  EXPECT_EQ(s.stats().write_requests, 1u);
}

TEST(PosixStorage, Contract) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drx_storage_test.bin")
          .string();
  std::remove(path.c_str());
  auto s = PosixStorage::open(path);
  ASSERT_TRUE(s.is_ok());
  exercise_storage(*s.value());
  std::remove(path.c_str());
}

TEST(PosixStorage, PersistsAcrossReopen) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drx_storage_persist.bin")
          .string();
  std::remove(path.c_str());
  const auto data = pattern(77);
  {
    auto s = PosixStorage::open(path);
    ASSERT_TRUE(s.is_ok());
    ASSERT_TRUE(s.value()->write_at(0, data).is_ok());
    ASSERT_TRUE(s.value()->flush().is_ok());
  }
  {
    auto s = PosixStorage::open(path);
    ASSERT_TRUE(s.is_ok());
    EXPECT_EQ(s.value()->size(), 77u);
    std::vector<std::byte> out(77);
    ASSERT_TRUE(s.value()->read_at(0, out).is_ok());
    EXPECT_EQ(out, data);
  }
  std::remove(path.c_str());
}

TEST(PfsStorage, Contract) {
  PfsConfig cfg;
  cfg.num_servers = 3;
  cfg.stripe_size = 32;
  Pfs fs(cfg);
  PfsStorage s(fs.create("x").value());
  exercise_storage(s);
}

/// read_gather over `s`: the pieces come back, the hole between them is
/// never copied, and ranges past EOF or pieces outside the range fail.
void exercise_gather(Storage& s) {
  const auto data = pattern(300, 5);
  ASSERT_TRUE(s.write_at(0, data).is_ok());
  std::vector<std::byte> a(20, std::byte{0xEE});
  std::vector<std::byte> b(30, std::byte{0xEE});
  const GatherPiece pieces[] = {{250, b}, {37, a}};  // any order
  ASSERT_TRUE(s.read_gather(37, 280, pieces).is_ok());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], data[37 + i]);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], data[250 + i]);
  EXPECT_EQ(s.read_gather(37, 301, pieces).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(s.read_gather(40, 280, pieces).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(s.read_gather(37, 279, pieces).code(), ErrorCode::kOutOfRange);

  // One piece spanning the whole range: a lone chunk's read.
  std::vector<std::byte> whole(60, std::byte{0xEE});
  const GatherPiece lone[] = {{120, whole}};
  ASSERT_TRUE(s.read_gather(120, 180, lone).is_ok());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i], data[120 + i]);
  }
  const GatherPiece past_eof[] = {{250, whole}};
  EXPECT_EQ(s.read_gather(250, 310, past_eof).code(), ErrorCode::kOutOfRange);
}

TEST(MemStorage, ReadGatherIsOneRequestOverTheRange) {
  MemStorage s;
  exercise_gather(s);
  const IoStats before = s.stats();
  std::vector<std::byte> a(10);
  std::vector<std::byte> b(10);
  const GatherPiece pieces[] = {{0, a}, {190, b}};
  ASSERT_TRUE(s.read_gather(0, 200, pieces).is_ok());
  const IoStats d = s.stats() - before;
  EXPECT_EQ(d.read_requests, 1u);
  EXPECT_LE(d.seeks, 1u);
  EXPECT_EQ(d.bytes_read, 200u);
  const CostModel m;
  EXPECT_DOUBLE_EQ(d.busy_us, m.seek_us + m.request_overhead_us +
                                  m.network_latency_us +
                                  200 * (m.disk_per_byte_us +
                                         m.network_per_byte_us));
}

TEST(MemStorage, SieveGapFollowsItsCostModel) {
  CostModel m;
  m.seek_us = 0;
  m.request_overhead_us = 0;
  m.network_latency_us = 0;
  EXPECT_EQ(MemStorage(m).sieve_gap_bytes(), 0u);
  EXPECT_EQ(MemStorage().sieve_gap_bytes(), CostModel{}.sieve_gap_bytes());
}

TEST(PosixStorage, ReadGatherFallback) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "drx_storage_gather.bin")
          .string();
  std::remove(path.c_str());
  auto s = PosixStorage::open(path);
  ASSERT_TRUE(s.is_ok());
  exercise_gather(*s.value());
  EXPECT_EQ(s.value()->sieve_gap_bytes(), 0u);  // no model charges a real file
  std::remove(path.c_str());
}

// The base-class fallback over a striped file: one read_at of the range
// (straight into a piece that spans it) and the same bytes as
// MemStorage's native gather. A striped read is one request per server,
// so PfsStorage reads no holes.
TEST(PfsStorage, ReadGatherFallback) {
  PfsConfig cfg;
  cfg.num_servers = 3;
  cfg.stripe_size = 32;
  Pfs fs(cfg);
  PfsStorage s(fs.create("x").value());
  exercise_gather(s);
  EXPECT_EQ(s.sieve_gap_bytes(), 0u);
}

}  // namespace
}  // namespace drx::pfs
