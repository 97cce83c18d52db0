// Compressed-array end-to-end tests (docs/COMPRESSION.md): the v2 slot
// table round-trips through create/flush/open, every DrxFile access path
// (element, box, chunk, cache, prefetch) sees the logical bytes, damage
// surfaces as a clean kCorrupt with a flight dump, and DRX_COMPRESS=off
// output stays byte-identical to the legacy v1 format.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "core/chunk_cache.hpp"
#include "core/drx_file.hpp"
#include "core/drxmp.hpp"
#include "io/config.hpp"
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

// Every chunk read takes the one read path: a pin miss, read_chunk and
// read_chunk_stored each cost exactly one request of the chunk's live
// bytes (chunk_bytes() raw, the slot's stored bytes encoded), and decode.
TEST(Compression, EveryChunkReadIsOneRequestOfItsLiveBytes) {
  for (const codec::CodecId c : {codec::CodecId::kNone, codec::CodecId::kRle}) {
    SCOPED_TRACE(codec::codec_name(c));
    DrxFile f = make_compressed(Shape{8, 8}, Shape{4, 4}, compressed_opts(c));
    std::vector<double> values(64);
    for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
      values[static_cast<std::size_t>(idx[0] * 8 + idx[1])] = row_value(idx);
    });
    ASSERT_TRUE(f.write_box(Box{{0, 0}, {8, 8}}, MemoryOrder::kRowMajor,
                            std::as_bytes(std::span<const double>(values)))
                    .is_ok());
    const pfs::IoStats& stats =
        static_cast<pfs::MemStorage&>(f.data_storage()).stats();
    const std::uint64_t cb = f.chunk_bytes();
    const auto expect_one_request = [&](const pfs::IoStats& before,
                                        std::uint64_t q) {
      const Metadata::StorageExtent e = f.metadata().storage_extent(q);
      EXPECT_EQ(e.stored, c == codec::CodecId::kNone
                              ? cb
                              : f.metadata().chunk_table[q].stored);
      EXPECT_LT(e.stored, c == codec::CodecId::kNone ? cb + 1 : cb);
      EXPECT_EQ(stats.read_requests - before.read_requests, 1u);
      EXPECT_EQ(stats.bytes_read - before.bytes_read, e.stored);
    };
    /// Chunk q holds rows [4 * (q % 2), +4): row_value is 10 + row.
    const auto expect_chunk = [&](std::uint64_t q,
                                  std::span<const std::byte> bytes) {
      const Index chunk = f.metadata().mapping.index_of(q);
      const auto* v = reinterpret_cast<const double*>(bytes.data());
      for (std::size_t k = 0; k < 16; ++k) {
        ASSERT_EQ(v[k], 10.0 + static_cast<double>(chunk[0] * 4 + k / 4)) << q;
      }
    };

    std::vector<std::byte> raw(checked_size(cb));
    for (std::uint64_t q = 0; q < 4; ++q) {
      pfs::IoStats before = stats;
      ASSERT_TRUE(f.read_chunk(q, raw).is_ok());
      expect_one_request(before, q);
      expect_chunk(q, raw);

      before = stats;
      std::vector<std::byte> scratch;
      auto stored = f.read_chunk_stored(q, scratch);
      ASSERT_TRUE(stored.is_ok()) << stored.status();
      expect_one_request(before, q);
      EXPECT_EQ(stored.value().codec,
                f.metadata().storage_extent(q).codec);
      EXPECT_EQ(stored.value().bytes.size(), f.metadata().storage_extent(q).stored);
    }
    ChunkCache cache(f, 4, ChunkCache::AsyncOptions{0, 0, 1});
    for (std::uint64_t q = 0; q < 4; ++q) {
      const pfs::IoStats before = stats;
      auto p = cache.pin(q, /*writable=*/false);
      ASSERT_TRUE(p.is_ok()) << p.status();
      expect_one_request(before, q);
      expect_chunk(q, p.value());
      cache.unpin(q, /*dirty=*/false, /*writable=*/false);
    }
    EXPECT_EQ(cache.stats().misses, 4u);
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

/// Chunk-distinct values over 4x4 chunks: a chunk whose grid coordinates
/// sum to an even number holds row-constant runs (RLE stores it
/// encoded), any other all-distinct values (stored raw, per-chunk kNone).
double mp_value(const Index& idx) {
  const std::uint64_t c0 = idx[0] / 4;
  const std::uint64_t c1 = idx[1] / 4;
  return (c0 + c1) % 2 == 0
             ? 10.0 + 100.0 * static_cast<double>(c1) +
                   static_cast<double>(idx[0])
             : 1000.0 + 16.0 * static_cast<double>(idx[0]) +
                   static_cast<double>(idx[1]);
}

/// Writes `name` (16x16 doubles in 4x4 chunks, RLE) serially onto `fs`
/// so that every slot sits out of address order: each chunk is first
/// rewritten incompressibly, in descending address order, which relocates
/// it past all the higher addresses, then rewritten in place with
/// mp_value.
void write_relocated_rle(pfs::Pfs& fs, const std::string& name) {
  auto meta_h = fs.create(name + ".xmd", /*overwrite=*/true);
  auto data_h = fs.create(name + ".xta", /*overwrite=*/true);
  ASSERT_TRUE(meta_h.is_ok() && data_h.is_ok());
  auto created = DrxFile::create(
      std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
      std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
      Shape{16, 16}, Shape{4, 4}, compressed_opts());
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile& f = created.value();
  const std::uint64_t total = f.metadata().mapping.total_chunks();
  for (const bool final_values : {false, true}) {
    for (std::uint64_t q = total; q-- > 0;) {
      const Index c = f.metadata().mapping.index_of(q);
      const Box box{{c[0] * 4, c[1] * 4}, {c[0] * 4 + 4, c[1] * 4 + 4}};
      std::vector<double> v;
      for_each_index(box, [&](const Index& idx) {
        v.push_back(final_values ? mp_value(idx)
                                 : 5000.0 + 16.0 * static_cast<double>(idx[0]) +
                                       static_cast<double>(idx[1]));
      });
      ASSERT_TRUE(f.write_box(box, MemoryOrder::kRowMajor,
                              std::as_bytes(std::span<const double>(v)))
                      .is_ok());
    }
  }
  ASSERT_TRUE(f.flush().is_ok());
  const Metadata& m = f.metadata();
  EXPECT_EQ(m.address_order_runs(), total);
  for (std::uint64_t q = 1; q < total; ++q) {
    EXPECT_LT(m.chunk_table[q].offset, m.chunk_table[q - 1].offset);
  }
  const auto rle = static_cast<std::uint8_t>(codec::CodecId::kRle);
  EXPECT_TRUE(std::any_of(m.chunk_table.begin(), m.chunk_table.end(),
                          [&](const ChunkSlot& s) { return s.codec == rle; }));
  EXPECT_TRUE(std::any_of(m.chunk_table.begin(), m.chunk_table.end(),
                          [&](const ChunkSlot& s) { return s.codec != rle; }));
}

/// A striped PFS whose cost model makes a seek worth 128 bytes of
/// transfer, one chunk of the arrays below: the sieve gap is one chunk,
/// so any read split at one seek's worth would split every zone here.
pfs::PfsConfig one_chunk_sieve_gap() {
  pfs::PfsConfig cfg;
  cfg.stripe_size = 64;
  cfg.cost.seek_us = 0;
  cfg.cost.request_overhead_us = 0;
  cfg.cost.network_latency_us = 1;
  cfg.cost.disk_per_byte_us = 1.0 / 128;
  cfg.cost.network_per_byte_us = 0;
  return cfg;
}

/// Checks `out`, the element box `box` in row-major order, against mp_value.
void expect_mp_box(const Box& box, std::span<const double> out) {
  std::size_t k = 0;
  for_each_index(box, [&](const Index& idx) {
    ASSERT_EQ(out[k++], mp_value(idx)) << idx[0] << "," << idx[1];
  });
}

/// Sets the global io thread count (two-phase fan-out workers) in scope.
struct IoThreads {
  explicit IoThreads(int threads) { io::set_io_threads(threads); }
  ~IoThreads() { io::set_io_threads(-1); }
};

// A relocated RLE array reads back through every DRX-MP path: independent
// boxes, read_my_zone over BLOCK zones (one chunk-list transfer at any io
// thread count) and each rank's BLOCK_CYCLIC chunk list (read_my_zone
// needs a BLOCK distribution), collectively and independently.
TEST(CompressionMp, RelocatedRleReadsThroughEveryZonePath) {
  pfs::Pfs fs(one_chunk_sieve_gap());
  ASSERT_EQ(fs.config().cost.sieve_gap_bytes(), 128u);
  write_relocated_rle(fs, "reloc");
  for (const int threads : {0, 2}) {
    const IoThreads io_threads(threads);
    for (const int procs : {1, 2, 4}) {
      SCOPED_TRACE("io threads " + std::to_string(threads) + ", P " +
                   std::to_string(procs));
      simpi::run(procs, [&](simpi::Comm& comm) {
        auto opened = DrxMpFile::open(comm, fs, "reloc");
        ASSERT_TRUE(opened.is_ok()) << opened.status();
        DrxMpFile& f = opened.value();
        const int r = comm.rank();

        const Box box{{1 + static_cast<std::uint64_t>(r), 2},
                      {15, 11 + static_cast<std::uint64_t>(r)}};
        std::vector<double> out(checked_size(box.volume()));
        ASSERT_TRUE(f.read_box_independent(
                         box, MemoryOrder::kRowMajor,
                         std::as_writable_bytes(std::span<double>(out)))
                        .is_ok());
        expect_mp_box(box, out);

        const Distribution block = f.block_distribution();
        const Box zone = f.zone_element_box(block, r);
        for (const bool collective : {true, false}) {
          std::vector<double> mine(checked_size(zone.volume()), -1.0);
          ASSERT_TRUE(f.read_my_zone(block, MemoryOrder::kRowMajor,
                                     std::as_writable_bytes(std::span<double>(mine)),
                                     collective)
                          .is_ok());
          expect_mp_box(zone, mine);
        }

        const Distribution cyclic = Distribution::block_cyclic(
            f.metadata().mapping.bounds(), comm.size(), Shape{1, 2});
        const std::vector<Index> chunks = cyclic.chunks_of(r);
        for (const bool collective : {true, false}) {
          std::vector<double> staging(chunks.size() * 16, -1.0);
          ASSERT_TRUE(f.read_chunks(chunks,
                                    std::as_writable_bytes(std::span<double>(staging)),
                                    collective)
                          .is_ok());
          for (std::size_t i = 0; i < chunks.size(); ++i) {
            const Index& c = chunks[i];
            expect_mp_box(Box{{c[0] * 4, c[1] * 4}, {c[0] * 4 + 4, c[1] * 4 + 4}},
                          std::span<const double>(staging).subspan(i * 16, 16));
          }
        }
        ASSERT_TRUE(f.close().is_ok());
      });
    }
  }
}

// A damaged slot surfaces through the DRX-MP path as a clean kCorrupt and
// a flight dump, as it does through DrxFile, on the rank that owns it
// alone: the decode runs after the collective, so its peers' reads still
// complete, with or without io threads.
TEST(CompressionMp, CorruptSlotIsCleanErrorAndDumpsFlight) {
  pfs::Pfs fs(one_chunk_sieve_gap());
  write_relocated_rle(fs, "bad");
  std::uint64_t victim = 0;
  {
    auto meta_h = fs.open("bad.xmd");
    ASSERT_TRUE(meta_h.is_ok());
    std::vector<std::byte> image(checked_size(meta_h.value().size()));
    ASSERT_TRUE(meta_h.value().read_at(0, image).is_ok());
    auto meta = Metadata::from_bytes(image);
    ASSERT_TRUE(meta.is_ok());
    const auto& table = meta.value().chunk_table;
    while (table[victim].codec != static_cast<std::uint8_t>(codec::CodecId::kRle)) {
      ++victim;
    }
    // A run longer than the chunk: deterministically corrupt.
    auto data_h = fs.open("bad.xta");
    ASSERT_TRUE(data_h.is_ok());
    const std::byte bad[1] = {std::byte{0xFF}};
    ASSERT_TRUE(data_h.value().write_at(table[victim].offset, bad).is_ok());
  }
  const std::string dump =
      (std::filesystem::temp_directory_path() / "drx-corrupt-mp-flight.json")
          .string();
  obs::set_flight_path(dump);
  for (const int threads : {0, 2}) {
    const IoThreads io_threads(threads);
    for (const int procs : {1, 2}) {
      SCOPED_TRACE("io threads " + std::to_string(threads) + ", P " +
                   std::to_string(procs));
      simpi::run(procs, [&](simpi::Comm& comm) {
        auto opened = DrxMpFile::open(comm, fs, "bad");
        ASSERT_TRUE(opened.is_ok()) << opened.status();
        DrxMpFile& f = opened.value();
        const Index c = f.metadata().mapping.index_of(victim);
        const Distribution block = f.block_distribution();
        const bool mine = block.owner_of(c) == comm.rank();
        if (comm.rank() == 0) std::filesystem::remove(dump);
        comm.barrier();
        if (mine) {
          const Box box{{c[0] * 4, c[1] * 4}, {c[0] * 4 + 4, c[1] * 4 + 4}};
          std::vector<double> out(16);
          EXPECT_EQ(f.read_box_independent(
                         box, MemoryOrder::kRowMajor,
                         std::as_writable_bytes(std::span<double>(out)))
                        .code(),
                    ErrorCode::kCorrupt);
          EXPECT_TRUE(std::filesystem::exists(dump))
              << "corrupt chunk must trigger a flight dump";
        }
        std::vector<double> zone(
            checked_size(f.zone_element_box(block, comm.rank()).volume()));
        EXPECT_EQ(f.read_my_zone(block, MemoryOrder::kRowMajor,
                                 std::as_writable_bytes(std::span<double>(zone)))
                      .code(),
                  mine ? ErrorCode::kCorrupt : ErrorCode::kOk);
        ASSERT_TRUE(f.close().is_ok());
      });
    }
  }
  std::filesystem::remove(dump);
  obs::set_flight_path("drx-flight.json");
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
