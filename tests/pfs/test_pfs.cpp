#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "util/rng.hpp"

namespace drx::pfs {
namespace {

PfsConfig small_config(int servers = 4, std::uint64_t stripe = 16) {
  PfsConfig cfg;
  cfg.num_servers = servers;
  cfg.stripe_size = stripe;
  return cfg;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed = 1) {
  SplitMix64 rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xFF);
  return buf;
}

TEST(Pfs, NamespaceOperations) {
  Pfs fs(small_config());
  EXPECT_FALSE(fs.exists("a"));
  ASSERT_TRUE(fs.create("a").is_ok());
  EXPECT_TRUE(fs.exists("a"));
  EXPECT_EQ(fs.create("a").status().code(), ErrorCode::kAlreadyExists);
  EXPECT_TRUE(fs.create("a", /*overwrite=*/true).is_ok());
  ASSERT_TRUE(fs.create("b").is_ok());
  EXPECT_EQ(fs.list(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(fs.remove("a").is_ok());
  EXPECT_EQ(fs.remove("zzz").code(), ErrorCode::kNotFound);
  EXPECT_EQ(fs.open("zzz").status().code(), ErrorCode::kNotFound);
}

TEST(Pfs, WriteReadRoundTripAcrossStripes) {
  Pfs fs(small_config(3, 10));
  auto f = fs.create("f").value();
  const auto data = pattern(95);
  ASSERT_TRUE(f.write_at(0, data).is_ok());
  EXPECT_EQ(f.size(), 95u);
  std::vector<std::byte> out(95);
  ASSERT_TRUE(f.read_at(0, out).is_ok());
  EXPECT_EQ(out, data);
}

TEST(Pfs, UnalignedOffsetsRoundTrip) {
  Pfs fs(small_config(4, 8));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(256, 7)).is_ok());
  // Overwrite a range crossing several stripe boundaries at odd offsets.
  const auto patch = pattern(51, 9);
  ASSERT_TRUE(f.write_at(13, patch).is_ok());
  std::vector<std::byte> out(51);
  ASSERT_TRUE(f.read_at(13, out).is_ok());
  EXPECT_EQ(out, patch);
}

TEST(Pfs, ReadPastEofFails) {
  Pfs fs(small_config());
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(10)).is_ok());
  std::vector<std::byte> out(11);
  EXPECT_EQ(f.read_at(0, out).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(f.read_at(10, std::span<std::byte>(out).first(1)).code(),
            ErrorCode::kOutOfRange);
}

TEST(Pfs, StripingBalancesBytesAcrossServers) {
  Pfs fs(small_config(4, 16));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(16 * 4 * 10)).is_ok());
  const auto stats = fs.server_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& s : stats) {
    EXPECT_EQ(s.bytes_written, 16u * 10);
  }
}

TEST(Pfs, SequentialWholeFileWriteIsOneRequestPerServer) {
  Pfs fs(small_config(4, 16));
  auto f = fs.create("f").value();
  // One 256-byte write: per server the stripes are locally contiguous, so
  // the client coalesces them into a single request per server.
  ASSERT_TRUE(f.write_at(0, pattern(256)).is_ok());
  for (const auto& s : fs.server_stats()) {
    EXPECT_EQ(s.write_requests, 1u);
    EXPECT_EQ(s.seeks, 0u);
  }
}

TEST(Pfs, LocalAccessHitsOneDatafileAndGrowsSize) {
  // 4 servers, 16-byte stripes: local bytes [16, 32) of server 1 are
  // global bytes [80, 96) (stripe 5).
  Pfs fs(small_config());
  FileHandle h = fs.create("f").value();
  const auto data = pattern(16);
  ASSERT_TRUE(h.write_local(1, 16, data, /*file_end=*/96).is_ok());
  EXPECT_EQ(h.size(), 96u);
  const auto stats = fs.server_stats();
  EXPECT_EQ(stats[1].write_requests, 1u);
  EXPECT_EQ(stats[0].write_requests + stats[2].write_requests +
                stats[3].write_requests,
            0u);

  std::vector<std::byte> global(16);
  ASSERT_TRUE(h.read_at(80, global).is_ok());
  EXPECT_EQ(global, data);
  // Server 0's datafile was never written: a hole reads as zeros.
  std::vector<std::byte> hole(32, std::byte{0xFF});
  const GatherPiece whole{0, hole};
  ASSERT_TRUE(h.read_local(0, 0, 32, {&whole, 1}).is_ok());
  EXPECT_EQ(hole, std::vector<std::byte>(32));
  EXPECT_EQ(h.size(), 96u);
}

TEST(Pfs, ScatteredAccessCausesSeeks) {
  Pfs fs(small_config(1, 16));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(1024)).is_ok());
  auto before = fs.server_stats();
  std::vector<std::byte> out(8);
  // Backwards reads force a seek each time on the single server.
  ASSERT_TRUE(f.read_at(512, out).is_ok());
  ASSERT_TRUE(f.read_at(256, out).is_ok());
  ASSERT_TRUE(f.read_at(0, out).is_ok());
  auto after = fs.server_stats();
  EXPECT_EQ(after[0].seeks - before[0].seeks, 3u);
}

TEST(Pfs, PhaseElapsedIsMaxServerDelta) {
  Pfs fs(small_config(2, 16));
  auto f = fs.create("f").value();
  auto before = fs.server_stats();
  // 16 bytes land entirely on server 0.
  ASSERT_TRUE(f.write_at(0, pattern(16)).is_ok());
  auto after = fs.server_stats();
  const double elapsed = Pfs::phase_elapsed_us(before, after);
  EXPECT_GT(elapsed, 0.0);
  EXPECT_DOUBLE_EQ(elapsed, after[0].busy_us - before[0].busy_us);
}

TEST(Pfs, TruncateGrowZeroFills) {
  Pfs fs(small_config(3, 8));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(8)).is_ok());
  ASSERT_TRUE(f.truncate(64).is_ok());
  EXPECT_EQ(f.size(), 64u);
  std::vector<std::byte> out(56);
  ASSERT_TRUE(f.read_at(8, out).is_ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte{0});
}

// The paper's claim at the storage layer: growing a file stores nothing.
// A 1 GiB truncate leaves every datafile empty, and a read of a stripe
// that was never written returns zeros without allocating it.
TEST(Pfs, GrowthMaterializesNoBytes) {
  PfsConfig cfg;
  cfg.num_servers = 8;
  Pfs fs(cfg);
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.truncate(std::uint64_t{1} << 30).is_ok());
  EXPECT_EQ(f.size(), std::uint64_t{1} << 30);
  for (std::size_t s = 0; s < 8; ++s) EXPECT_EQ(f.resident_bytes(s), 0u) << s;

  std::vector<std::byte> out(3 * cfg.stripe_size, std::byte{0xFF});
  ASSERT_TRUE(f.read_at(std::uint64_t{1} << 29, out).is_ok());
  EXPECT_EQ(out, std::vector<std::byte>(out.size()));
  std::vector<std::byte> local(cfg.stripe_size, std::byte{0xFF});
  const GatherPiece piece{1000 * cfg.stripe_size, local};
  ASSERT_TRUE(f.read_local(5, piece.offset, piece.offset + local.size(),
                           {&piece, 1})
                  .is_ok());
  EXPECT_EQ(local, std::vector<std::byte>(local.size()));
  for (std::size_t s = 0; s < 8; ++s) EXPECT_EQ(f.resident_bytes(s), 0u) << s;

  // One written stripe allocates on its own server only.
  ASSERT_TRUE(
      f.write_at(3 * cfg.stripe_size, pattern(cfg.stripe_size)).is_ok());
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(f.resident_bytes(s), s == 3 ? BlockDevice::kPageBytes : 0u) << s;
  }
}

TEST(Pfs, TruncateShrink) {
  Pfs fs(small_config(3, 8));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.write_at(0, pattern(100)).is_ok());
  ASSERT_TRUE(f.truncate(20).is_ok());
  EXPECT_EQ(f.size(), 20u);
  std::vector<std::byte> out(20);
  ASSERT_TRUE(f.read_at(0, out).is_ok());
  std::vector<std::byte> over(21);
  EXPECT_FALSE(f.read_at(0, over).is_ok());
}

TEST(Pfs, RandomOpSequenceMatchesReference) {
  // Property test: a random interleaving of writes and reads must behave
  // exactly like a plain in-memory byte vector.
  Pfs fs(small_config(5, 13));
  auto f = fs.create("f").value();
  std::vector<std::byte> reference;
  SplitMix64 rng(42);
  for (int op = 0; op < 300; ++op) {
    const std::uint64_t offset = rng.next_below(2000);
    const std::size_t len = static_cast<std::size_t>(rng.next_in(1, 97));
    if (rng.next() % 2 == 0) {
      const auto data = pattern(len, rng.next());
      ASSERT_TRUE(f.write_at(offset, data).is_ok());
      if (reference.size() < offset + len) {
        reference.resize(static_cast<std::size_t>(offset) + len,
                         std::byte{0});
      }
      std::copy(data.begin(), data.end(),
                reference.begin() + static_cast<std::ptrdiff_t>(offset));
    } else if (offset + len <= reference.size()) {
      std::vector<std::byte> out(len);
      ASSERT_TRUE(f.read_at(offset, out).is_ok());
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], reference[static_cast<std::size_t>(offset) + i]);
      }
    }
  }
  EXPECT_EQ(f.size(), reference.size());
}

TEST(Pfs, ConcurrentDisjointWritersAreSafe) {
  Pfs fs(small_config(4, 32));
  auto f = fs.create("f").value();
  ASSERT_TRUE(f.truncate(8 * 1024).is_ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto handle = fs.open("f").value();
      const auto data = pattern(1024, static_cast<std::uint64_t>(t));
      ASSERT_TRUE(handle
                      .write_at(static_cast<std::uint64_t>(t) * 1024, data)
                      .is_ok());
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) {
    std::vector<std::byte> out(1024);
    ASSERT_TRUE(f.read_at(static_cast<std::uint64_t>(t) * 1024, out).is_ok());
    EXPECT_EQ(out, pattern(1024, static_cast<std::uint64_t>(t)));
  }
}

}  // namespace
}  // namespace drx::pfs
