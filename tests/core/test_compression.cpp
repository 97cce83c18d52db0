// Compressed-array end-to-end tests (docs/COMPRESSION.md): the v2 slot
// table round-trips through create/flush/open, every DrxFile access path
// (element, box, chunk, cache, prefetch) sees the logical bytes, damage
// surfaces as a clean kCorrupt with a flight dump, and DRX_COMPRESS=off
// output stays byte-identical to the legacy v1 format.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "core/chunk_cache.hpp"
#include "core/drx_file.hpp"
#include "core/drxmp.hpp"
#include "obs/flight.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::core {
namespace {

DrxFile::Options compressed_opts(codec::CodecId c = codec::CodecId::kRle,
                                 ElementType dtype = ElementType::kDouble) {
  DrxFile::Options o;
  o.dtype = dtype;
  o.codec = c;
  return o;
}

DrxFile make_compressed(Shape bounds, Shape chunk,
                        DrxFile::Options opts = compressed_opts()) {
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<pfs::MemStorage>(),
                           std::move(bounds), std::move(chunk), opts);
  EXPECT_TRUE(f.is_ok()) << f.status();
  return std::move(f).value();
}

std::unique_ptr<pfs::MemStorage> copy_of(pfs::Storage& src) {
  auto dst = std::make_unique<pfs::MemStorage>();
  std::vector<std::byte> buf(static_cast<std::size_t>(src.size()));
  EXPECT_TRUE(src.read_at(0, buf).is_ok());
  EXPECT_TRUE(dst->write_at(0, buf).is_ok());
  return dst;
}

/// Row-constant values: long in-chunk runs, so RLE genuinely compresses.
double row_value(const Index& idx) { return 10.0 + static_cast<double>(idx[0]); }

TEST(Compression, CreateIsCompressedAndZeroed) {
  // Chunks well above the 64-byte slot-capacity granularity, so the
  // compression win is visible in the .xta size.
  DrxFile f = make_compressed(Shape{32, 32}, Shape{8, 8});
  EXPECT_TRUE(f.compressed());
  EXPECT_EQ(f.metadata().codec, codec::CodecId::kRle);
  EXPECT_EQ(f.metadata().chunk_table.size(), f.metadata().mapping.total_chunks());
  // Zero chunks compress hard: the .xta must be far below the dense size.
  EXPECT_LT(f.data_storage().size(), f.metadata().data_file_bytes() / 4);
  for_each_index(Box{{0, 0}, {32, 32}}, [&](const Index& idx) {
    ASSERT_EQ(f.get<double>(idx).value(), 0.0);
  });
}

TEST(Compression, BoxIoAndReopenRoundTrip) {
  std::unique_ptr<pfs::MemStorage> meta_copy, data_copy;
  std::uint64_t dense_bytes = 0;
  {
    DrxFile f = make_compressed(Shape{12, 10}, Shape{3, 5});
    std::vector<double> buf(12 * 10);
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      buf[static_cast<std::size_t>(idx[0] * 10 + idx[1])] = row_value(idx);
    });
    ASSERT_TRUE(f.write_box(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                            std::as_bytes(std::span<const double>(buf)))
                    .is_ok());
    ASSERT_TRUE(f.flush().is_ok());
    dense_bytes = f.metadata().data_file_bytes();
    EXPECT_LT(f.metadata().stored_live_bytes(), dense_bytes / 2)
        << "row-constant data should compress at least 2x";
    meta_copy = copy_of(f.meta_storage());
    data_copy = copy_of(f.data_storage());
  }
  auto reopened = DrxFile::open(std::move(meta_copy), std::move(data_copy));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_TRUE(reopened.value().compressed());
  std::vector<double> back(12 * 10);
  ASSERT_TRUE(reopened.value()
                  .read_box(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span<double>(back)))
                  .is_ok());
  for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
    ASSERT_EQ(back[static_cast<std::size_t>(idx[0] * 10 + idx[1])],
              row_value(idx));
  });
}

TEST(Compression, ElementRmwAcrossChunks) {
  DrxFile f = make_compressed(Shape{6, 6}, Shape{2, 2});
  for_each_index(Box{{0, 0}, {6, 6}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, row_value(idx)).is_ok());
  });
  for_each_index(Box{{0, 0}, {6, 6}}, [&](const Index& idx) {
    ASSERT_EQ(f.get<double>(idx).value(), row_value(idx));
  });
}

TEST(Compression, ExtendPreservesDataAndZerosNewRegion) {
  DrxFile f = make_compressed(Shape{4, 4}, Shape{2, 2});
  for_each_index(Box{{0, 0}, {4, 4}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, row_value(idx)).is_ok());
  });
  ASSERT_TRUE(f.extend(1, 4).is_ok());
  ASSERT_TRUE(f.extend(0, 2).is_ok());
  EXPECT_EQ(f.metadata().chunk_table.size(),
            f.metadata().mapping.total_chunks());
  for_each_index(Box{{0, 0}, {6, 8}}, [&](const Index& idx) {
    const double expect =
        (idx[0] < 4 && idx[1] < 4) ? row_value(idx) : 0.0;
    ASSERT_EQ(f.get<double>(idx).value(), expect);
  });
}

TEST(Compression, BitpackEndToEndOnIntegers) {
  DrxFile::Options o;
  o.dtype = ElementType::kInt64;
  o.codec = codec::CodecId::kBitPack;
  DrxFile f = make_compressed(Shape{16, 16}, Shape{4, 4}, o);
  std::vector<std::int64_t> buf(16 * 16);
  for_each_index(Box{{0, 0}, {16, 16}}, [&](const Index& idx) {
    // Small range (0..30): packs to ~5 bits per 64-bit element.
    buf[static_cast<std::size_t>(idx[0] * 16 + idx[1])] =
        static_cast<std::int64_t>(idx[0] + idx[1]);
  });
  ASSERT_TRUE(f.write_box(Box{{0, 0}, {16, 16}}, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const std::int64_t>(buf)))
                  .is_ok());
  ASSERT_TRUE(f.flush().is_ok());
  EXPECT_LT(f.metadata().stored_live_bytes(),
            f.metadata().data_file_bytes() / 4)
      << "narrow integers should bit-pack at least 4x";
  auto reopened = DrxFile::open(copy_of(f.meta_storage()),
                                copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  std::vector<std::int64_t> back(16 * 16);
  ASSERT_TRUE(reopened.value()
                  .read_box(Box{{0, 0}, {16, 16}}, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span<std::int64_t>(back)))
                  .is_ok());
  EXPECT_EQ(back, buf);
}

TEST(Compression, SlotRelocationKeepsDataIntact) {
  SplitMix64 rng(0x5107);
  DrxFile f = make_compressed(Shape{8, 8}, Shape{4, 4});
  // Pass 1: constant chunks (tiny slots).
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, 1.0).is_ok());
  });
  const std::uint64_t end_before = f.metadata().data_end;
  // Pass 2: incompressible chunks — stored size jumps past each slot's
  // capacity, forcing the relocate-and-leak path.
  std::vector<double> noisy(8 * 8);
  for (double& v : noisy) {
    v = static_cast<double>(rng.next()) * 1e-3;
  }
  ASSERT_TRUE(f.write_box(Box{{0, 0}, {8, 8}}, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const double>(noisy)))
                  .is_ok());
  ASSERT_TRUE(f.flush().is_ok());
  EXPECT_GT(f.metadata().data_end, end_before) << "expected slot relocation";

  auto reopened = DrxFile::open(copy_of(f.meta_storage()),
                                copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_EQ(reopened.value().get<double>(idx).value(),
              noisy[static_cast<std::size_t>(idx[0] * 8 + idx[1])]);
  });
}

TEST(Compression, AddressOrderRunsShowsLayoutOrder) {
  // Create allocates slots in address order: one sequential pass.
  DrxFile f = make_compressed(Shape{32, 32}, Shape{4, 4});  // 8x8 chunks
  const std::uint64_t total = f.metadata().mapping.total_chunks();
  EXPECT_EQ(f.metadata().address_order_runs(), 1u);
  // Rewriting in row bands relocates every slot in band order, while F*
  // addresses run down columns: address neighbours are a band apart.
  for (std::uint64_t r = 0; r < 32; r += 4) {
    const Box band{{r, 0}, {r + 4, 32}};
    std::vector<double> vals;
    for_each_index(band, [&](const Index& idx) {
      vals.push_back(static_cast<double>(idx[0] * 32 + idx[1]) + 0.5);
    });
    ASSERT_TRUE(f.write_box(band, MemoryOrder::kRowMajor,
                            std::as_bytes(std::span(vals)))
                    .is_ok());
  }
  EXPECT_EQ(f.metadata().address_order_runs(), total);
  // Storage order is row-major over the grid: chunk (0, c) is followed on
  // storage by chunk (0, c + 1), not by its address neighbour (1, c).
  const Metadata& m = f.metadata();
  EXPECT_TRUE(m.follows_on_storage(m.mapping.address_of(Index{0, 0}),
                                   m.mapping.address_of(Index{0, 1})));
  EXPECT_FALSE(m.follows_on_storage(m.mapping.address_of(Index{0, 0}),
                                    m.mapping.address_of(Index{1, 0})));

  // Raw chunks sit at address x chunk_bytes: always one run.
  auto raw = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                             std::make_unique<pfs::MemStorage>(),
                             Shape{32, 32}, Shape{4, 4},
                             compressed_opts(codec::CodecId::kNone));
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ(raw.value().metadata().address_order_runs(), 1u);
}

TEST(Compression, CorruptChunkIsCleanErrorAndDumpsFlight) {
  const std::string dump =
      (std::filesystem::temp_directory_path() / "drx-corrupt-flight.json")
          .string();
  std::filesystem::remove(dump);
  obs::set_flight_path(dump);

  DrxFile::Options o;
  o.dtype = ElementType::kInt64;
  o.codec = codec::CodecId::kBitPack;
  DrxFile f = make_compressed(Shape{8, 8}, Shape{4, 4}, o);
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_TRUE(
        f.set<std::int64_t>(idx, static_cast<std::int64_t>(idx[0] + idx[1]))
            .is_ok());
  });
  ASSERT_TRUE(f.flush().is_ok());

  // An implausible bitpack width in slot 0's header is deterministically
  // corrupt, whatever the payload.
  const ChunkSlot& slot = f.metadata().chunk_table[0];
  ASSERT_GT(slot.stored, 0u);
  const std::byte bad[1] = {std::byte{0xFF}};
  ASSERT_TRUE(f.data_storage().write_at(slot.offset, bad).is_ok());

  std::vector<std::byte> chunk(checked_size(f.chunk_bytes()));
  const Status st = f.read_chunk(0, chunk);
  EXPECT_EQ(st.code(), ErrorCode::kCorrupt) << st;
  EXPECT_TRUE(std::filesystem::exists(dump))
      << "corrupt chunk must trigger a flight dump";
  std::filesystem::remove(dump);
  obs::set_flight_path("drx-flight.json");
}

TEST(Compression, OffIsByteIdenticalToLegacy) {
  // Simulate DRX_COMPRESS=rle being set globally: an explicit
  // Options::codec = kNone must still produce the legacy v1 format,
  // byte-for-byte, and such files must reopen.
  const codec::CodecId before = codec::default_codec();
  codec::set_default_codec(codec::CodecId::kRle);

  const auto build = [](std::optional<codec::CodecId> c) {
    DrxFile::Options o;
    o.dtype = ElementType::kDouble;
    o.codec = c;
    auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                             std::make_unique<pfs::MemStorage>(),
                             Shape{6, 4}, Shape{2, 2}, o);
    EXPECT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {6, 4}}, [&](const Index& idx) {
      EXPECT_TRUE(f.value().set<double>(idx, row_value(idx)).is_ok());
    });
    EXPECT_TRUE(f.value().flush().is_ok());
    return std::move(f).value();
  };

  DrxFile off = build(codec::CodecId::kNone);
  EXPECT_FALSE(off.compressed());

  codec::set_default_codec(codec::CodecId::kNone);
  DrxFile legacy = build(std::nullopt);  // env off: the pre-codec default
  codec::set_default_codec(before);
  EXPECT_FALSE(legacy.compressed());

  const auto bytes_of = [](pfs::Storage& s) {
    std::vector<std::byte> buf(static_cast<std::size_t>(s.size()));
    EXPECT_TRUE(s.read_at(0, buf).is_ok());
    return buf;
  };
  EXPECT_EQ(bytes_of(off.meta_storage()), bytes_of(legacy.meta_storage()));
  EXPECT_EQ(bytes_of(off.data_storage()), bytes_of(legacy.data_storage()));
  // Dense layout: the data file is exactly chunks x chunk_bytes.
  EXPECT_EQ(off.data_storage().size(), off.metadata().data_file_bytes());

  // "Old" (v1) files open fine under the codec-aware reader.
  auto reopened = DrxFile::open(copy_of(off.meta_storage()),
                                copy_of(off.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_FALSE(reopened.value().compressed());
  EXPECT_EQ(reopened.value().get<double>(Index{5, 3}).value(),
            row_value(Index{5, 3}));
}

TEST(Compression, CacheRoundTripAndPrefetch) {
  DrxFile file = make_compressed(Shape{8, 8}, Shape{2, 2});
  const std::uint64_t chunks = file.metadata().mapping.total_chunks();
  {
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 4});
    ASSERT_TRUE(cache.async());
    for (std::uint64_t q = 0; q < chunks; ++q) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok()) << p.status();
      const double v = static_cast<double>(100 + q);
      for (std::size_t i = 0; i < p.value().size() / sizeof(double); ++i) {
        std::memcpy(p.value().data() + i * sizeof(double), &v, sizeof(v));
      }
      cache.unpin(q, /*dirty=*/true);
    }
    ASSERT_TRUE(cache.flush().is_ok());
  }
  // Fresh cache: prefetch the whole range, then pins must see the data.
  ChunkCache cache(file, 16, ChunkCache::AsyncOptions{2, 8});
  cache.prefetch(0, chunks);
  for (std::uint64_t q = 0; q < chunks; ++q) {
    auto p = cache.pin(q, /*writable=*/false);
    ASSERT_TRUE(p.is_ok()) << p.status();
    double v = 0;
    std::memcpy(&v, p.value().data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(100 + q));
    cache.unpin(q, /*dirty=*/false, /*writable=*/false);
  }
}

TEST(Compression, WriteBehindCodecStress) {
  // Satellite-6 regression: codec work runs outside every shard lock and
  // outside io_mu_, so concurrent writers + write-behind evictions must
  // neither deadlock nor corrupt data. Run under TSan to prove the locking
  // claim; the data check below proves correctness either way.
  DrxFile file = make_compressed(Shape{16, 16}, Shape{2, 2});
  const std::uint64_t chunks = file.metadata().mapping.total_chunks();
  constexpr int kThreads = 4;
  {
    // Tiny capacity: nearly every pin evicts, forcing write-behind.
    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 2});
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        // Disjoint chunk ranges keep the final contents deterministic.
        SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
        const std::uint64_t lo = chunks / kThreads * static_cast<std::uint64_t>(t);
        const std::uint64_t hi =
            t == kThreads - 1 ? chunks
                              : chunks / kThreads * static_cast<std::uint64_t>(t + 1);
        for (int iter = 0; iter < 200; ++iter) {
          const std::uint64_t q = rng.next_in(lo, hi - 1);
          auto p = cache.pin(q);
          ASSERT_TRUE(p.is_ok()) << p.status();
          const double v = static_cast<double>(q);
          for (std::size_t i = 0; i < p.value().size() / sizeof(double);
               ++i) {
            std::memcpy(p.value().data() + i * sizeof(double), &v,
                        sizeof(v));
          }
          cache.unpin(q, /*dirty=*/true);
        }
        for (std::uint64_t q = lo; q < hi; ++q) {
          auto p = cache.pin(q);
          ASSERT_TRUE(p.is_ok()) << p.status();
          const double v = static_cast<double>(q);
          std::memcpy(p.value().data(), &v, sizeof(v));
          cache.unpin(q, /*dirty=*/true);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    ASSERT_TRUE(cache.flush().is_ok());
  }
  std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
  for (std::uint64_t q = 0; q < chunks; ++q) {
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    double v = 0;
    std::memcpy(&v, chunk.data(), sizeof(v));
    ASSERT_EQ(v, static_cast<double>(q)) << "chunk " << q;
  }
}

// ---- DRX-MP: compressed arrays are read-only ------------------------------

TEST(CompressionMp, CollectiveReadOfSeriallyCompressedArray) {
  pfs::PfsConfig cfg;
  cfg.num_servers = 4;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);

  // Pre-create with the serial writer, straight onto the striped PFS.
  {
    auto meta_h = fs.create("carr.xmd", /*overwrite=*/true);
    auto data_h = fs.create("carr.xta", /*overwrite=*/true);
    ASSERT_TRUE(meta_h.is_ok());
    ASSERT_TRUE(data_h.is_ok());
    auto f = DrxFile::create(
        std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
        std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
        Shape{12, 10}, Shape{3, 2}, compressed_opts());
    ASSERT_TRUE(f.is_ok()) << f.status();
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      ASSERT_TRUE(f.value().set<double>(idx, row_value(idx)).is_ok());
    });
    ASSERT_TRUE(f.value().flush().is_ok());
  }

  simpi::run(4, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "carr");
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile& f = fr.value();
    ASSERT_TRUE(f.metadata().compressed());

    std::vector<double> out(12 * 10);
    ASSERT_TRUE(f.read_box_all(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    for_each_index(Box{{0, 0}, {12, 10}}, [&](const Index& idx) {
      ASSERT_EQ(out[static_cast<std::size_t>(idx[0] * 10 + idx[1])],
                row_value(idx));
    });

    // Writes and extension are rejected, not silently corrupted.
    EXPECT_EQ(f.write_box_all(Box{{0, 0}, {12, 10}}, MemoryOrder::kRowMajor,
                              std::as_bytes(std::span<const double>(out)))
                  .code(),
              ErrorCode::kUnsupported);
    EXPECT_EQ(f.extend_all(0, 3).code(), ErrorCode::kUnsupported);
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(CompressionMp, CollectiveCreateRejectsCodec) {
  pfs::Pfs fs(pfs::PfsConfig{});
  simpi::run(2, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::create(comm, fs, "nope", Shape{4, 4}, Shape{2, 2},
                                compressed_opts());
    ASSERT_FALSE(fr.is_ok());
    EXPECT_EQ(fr.status().code(), ErrorCode::kUnsupported);
  });
}

}  // namespace
}  // namespace drx::core
