// Async-engine tests for ChunkCache (docs/ASYNC_IO.md): read-ahead,
// write-behind, sticky deferred errors, exclusive writable pins, and
// thread-safety under many-rank hammering. Tests that need no I/O worker
// run on both engines (ChunkCacheEngine: inline at 0 threads, and one
// worker); the basic cache tests live in test_chunk_cache.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "codec/codec.hpp"
#include "core/chunk_cache.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::core {
namespace {

constexpr ChunkCache::AsyncOptions kAsync{/*io_threads=*/2,
                                          /*prefetch_depth=*/4};

DrxFile make_file(Shape bounds, Shape chunk) {
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<pfs::MemStorage>(),
                           std::move(bounds), std::move(chunk), options);
  EXPECT_TRUE(f.is_ok());
  return std::move(f).value();
}

/// Storage wrapper that injects write failures (and optional write
/// latency, or a gate that holds every write) over a MemStorage backing
/// store, and records where each sieved read gathered its pieces.
class FaultyStorage final : public pfs::Storage {
 public:
  struct Controls {
    std::atomic<int> fail_writes_after{-1};  ///< -1 = never fail
    std::atomic<int> write_delay_ms{0};
    std::atomic<bool> writes_open{true};  ///< false: writes block until true
    std::atomic<int> writes_seen{0};
    std::atomic<int> reads_seen{0};

    /// Storage offsets of every piece read_gather copied, in call order.
    [[nodiscard]] std::vector<std::uint64_t> gathered() const {
      util::MutexLock lock(mu);
      return gathered_offsets;
    }

    mutable util::Mutex mu;
    std::vector<std::uint64_t> gathered_offsets DRX_GUARDED_BY(mu);
  };

  explicit FaultyStorage(Controls& controls) : controls_(&controls) {}

  Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    controls_->reads_seen.fetch_add(1);
    return inner_.read_at(offset, out);
  }
  Status read_gather(std::uint64_t lo, std::uint64_t hi,
                     std::span<const pfs::GatherPiece> pieces) override {
    controls_->reads_seen.fetch_add(1);
    {
      util::MutexLock lock(controls_->mu);
      for (const pfs::GatherPiece& p : pieces) {
        controls_->gathered_offsets.push_back(p.offset);
      }
    }
    return inner_.read_gather(lo, hi, pieces);
  }
  Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    while (!controls_->writes_open.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const int seen = controls_->writes_seen.fetch_add(1);
    const int delay = controls_->write_delay_ms.load();
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    const int fail_after = controls_->fail_writes_after.load();
    if (fail_after >= 0 && seen >= fail_after) {
      return Status(ErrorCode::kIoError, "injected write failure");
    }
    return inner_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  Status truncate(std::uint64_t new_size) override {
    return inner_.truncate(new_size);
  }
  Status flush() override { return Status::ok(); }
  [[nodiscard]] std::uint64_t sieve_gap_bytes() const override {
    return inner_.sieve_gap_bytes();
  }

 private:
  Controls* controls_;
  pfs::MemStorage inner_;
};

/// Opens the write gate when it goes out of scope, so a failed assertion
/// never leaves a held write-back for the cache's destructor to wait on.
/// Declare it after the cache.
struct OpenGateAtExit {
  FaultyStorage::Controls& controls;
  ~OpenGateAtExit() { controls.writes_open = true; }
};

DrxFile make_faulty_file(FaultyStorage::Controls& controls, Shape bounds,
                         Shape chunk) {
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<FaultyStorage>(controls),
                           std::move(bounds), std::move(chunk), options);
  EXPECT_TRUE(f.is_ok());
  return std::move(f).value();
}

/// Write-behind and the sticky-error contract hold at every pool size:
/// these run inline (0 threads) and on one worker.
class ChunkCacheEngine : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] ChunkCache::AsyncOptions engine(
      std::uint64_t prefetch_depth = 4) const {
    return ChunkCache::AsyncOptions{GetParam(), prefetch_depth};
  }
};

INSTANTIATE_TEST_SUITE_P(IoThreads, ChunkCacheEngine, ::testing::Values(0, 1));

TEST_P(ChunkCacheEngine, RoundTripMatchesSynchronousSemantics) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  {
    ChunkCache cache(file, 4, engine());
    EXPECT_EQ(cache.async(), GetParam() > 0);
    for (std::uint64_t q = 0; q < 16; ++q) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok());
      const double v = static_cast<double>(100 + q);
      std::memcpy(p.value().data(), &v, sizeof(v));
      cache.unpin(q, /*dirty=*/true);
    }
    ASSERT_TRUE(cache.flush().is_ok());
  }
  for (std::uint64_t q = 0; q < 16; ++q) {
    double v = 0;
    std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    std::memcpy(&v, chunk.data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(100 + q));
  }
}

TEST(ChunkCacheAsync, SequentialScanPrefetchesAndCoalescesReads) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  ChunkCache cache(file, 16, kAsync);

  const std::uint64_t reads_before = io.read_requests;
  for (std::uint64_t q = 0; q < 64; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok());
    cache.unpin(q, false);
  }
  ASSERT_TRUE(cache.flush().is_ok());

  const ChunkCache::Stats stats = cache.stats();
  EXPECT_GT(stats.prefetch_issued, 0u);
  EXPECT_GT(stats.prefetch_useful, 0u);
  // The point of read-ahead under the Pfs cost model: K chunks per storage
  // request instead of one. A fully synchronous scan would issue 64.
  EXPECT_LT(io.read_requests - reads_before, 64u);
  EXPECT_EQ(stats.hits + stats.misses, 64u);
}

TEST(ChunkCacheAsync, SyncModeNeverPrefetches) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  ChunkCache cache(file, 16);  // env defaults: synchronous
  ASSERT_FALSE(cache.async());
  const std::uint64_t reads_before = io.read_requests;
  for (std::uint64_t q = 0; q < 64; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok());
    cache.unpin(q, false);
  }
  EXPECT_EQ(io.read_requests - reads_before, 64u);
  EXPECT_EQ(cache.stats().prefetch_issued, 0u);
}

TEST(ChunkCacheAsync, WriteBehindDefersEvictionWritebacks) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 2, kAsync);
  for (std::uint64_t q = 0; q < 8; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok());
    const double v = static_cast<double>(q) * 1.5;
    std::memcpy(p.value().data(), &v, sizeof(v));
    cache.unpin(q, /*dirty=*/true);
  }
  ASSERT_TRUE(cache.flush().is_ok());
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_GT(stats.deferred_writebacks, 0u);
  EXPECT_GE(stats.writebacks, stats.deferred_writebacks);
  for (std::uint64_t q = 0; q < 8; ++q) {
    std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
    ASSERT_TRUE(file.read_chunk(q, chunk).is_ok());
    double v = 0;
    std::memcpy(&v, chunk.data(), sizeof(v));
    EXPECT_EQ(v, static_cast<double>(q) * 1.5);
  }
}

TEST(ChunkCacheAsync, MissServedFromWriteBehindQueue) {
  FaultyStorage::Controls controls;
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  const std::size_t n = checked_size(file.chunk_bytes()) / sizeof(double);
  ChunkCache cache(file, 1, ChunkCache::AsyncOptions{1, 0});
  OpenGateAtExit gate{controls};

  auto p = cache.pin(0);
  ASSERT_TRUE(p.is_ok());
  const double v = 42.25;
  std::memcpy(p.value().data(), &v, sizeof(v));
  cache.unpin(0, /*dirty=*/true);

  // Hold every write-back: the evicted chunk 0 stays queued. Chunk 1 is
  // pinned to overwrite, which reads nothing, so from here on the test
  // thread never needs the storage the held write-back occupies.
  controls.writes_open = false;
  auto q = cache.pin_overwrite(1);  // evicts 0, queuing its write-back
  ASSERT_TRUE(q.is_ok());
  auto* ones = reinterpret_cast<double*>(q.value().data());
  std::fill(ones, ones + n, 1.0);
  cache.unpin(1, /*dirty=*/true);

  auto back = cache.pin(0);  // evicts 1; 0 comes from the queue
  ASSERT_TRUE(back.is_ok());
  double seen = 0;
  std::memcpy(&seen, back.value().data(), sizeof(seen));
  cache.unpin(0, false);
  EXPECT_EQ(seen, v);  // stale zeros would mean a lost write
  EXPECT_EQ(cache.stats().write_queue_hits, 1u);

  controls.writes_open = true;
  ASSERT_TRUE(cache.flush().is_ok());
  EXPECT_GT(cache.stats().deferred_writebacks, 0u);
  std::vector<std::byte> raw(checked_size(file.chunk_bytes()));
  ASSERT_TRUE(file.read_chunk(0, raw).is_ok());
  std::memcpy(&seen, raw.data(), sizeof(seen));
  EXPECT_EQ(seen, v);
  ASSERT_TRUE(file.read_chunk(1, raw).is_ok());
  std::memcpy(&seen, raw.data() + raw.size() - sizeof(seen), sizeof(seen));
  EXPECT_EQ(seen, 1.0);
}

TEST_P(ChunkCacheEngine, DeferredWriteErrorIsStickyAndSurfacedOnce) {
  FaultyStorage::Controls controls;
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  ChunkCache cache(file, 1, engine());

  auto p = cache.pin(0);
  ASSERT_TRUE(p.is_ok());
  const double v = 1.0;
  std::memcpy(p.value().data(), &v, sizeof(v));
  cache.unpin(0, /*dirty=*/true);

  controls.fail_writes_after = 0;  // every write from now on fails
  auto q = cache.pin(1);  // evicts 0, deferring a doomed write-back
  ASSERT_TRUE(q.is_ok());
  cache.unpin(1, false);

  // flush() is the barrier that surfaces the first deferred error...
  const Status first = cache.flush();
  EXPECT_FALSE(first.is_ok());
  EXPECT_EQ(first.code(), ErrorCode::kIoError);
  // ...exactly once...
  controls.fail_writes_after = -1;
  EXPECT_TRUE(cache.flush().is_ok());
  // ...while last_error() keeps the failure observable forever.
  EXPECT_FALSE(cache.last_error().is_ok());
  EXPECT_EQ(cache.last_error().code(), ErrorCode::kIoError);
}

TEST_P(ChunkCacheEngine, DestructorDoesNotLoseUnflushedError) {
  FaultyStorage::Controls controls;
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  {
    ChunkCache cache(file, 1, engine());
    auto p = cache.pin(0);
    ASSERT_TRUE(p.is_ok());
    const double v = 1.0;
    std::memcpy(p.value().data(), &v, sizeof(v));
    cache.unpin(0, /*dirty=*/true);
    controls.fail_writes_after = 0;
    auto q = cache.pin(1);  // deferred doomed write-back
    ASSERT_TRUE(q.is_ok());
    cache.unpin(1, false);
    // Destroyed without a flush(): the error must be logged, not dropped
    // silently (observable here as: no crash, clean teardown).
  }
}

TEST(ChunkCacheAsync, AllFramesPinnedFailsPinWithoutBlocking) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 2, kAsync);
  auto a = cache.pin(0);
  ASSERT_TRUE(a.is_ok());
  auto b = cache.pin(1);
  ASSERT_TRUE(b.is_ok());
  auto c = cache.pin(2);
  ASSERT_FALSE(c.is_ok());
  EXPECT_EQ(c.status().code(), ErrorCode::kFailedPrecondition);
  cache.unpin(1, false);
  auto c2 = cache.pin(2);
  ASSERT_TRUE(c2.is_ok());
  cache.unpin(2, false);
  cache.unpin(0, false);
}

TEST(ChunkCacheAsync, EvictionOrderRespectsInterleavedPins) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  ChunkCache cache(file, 3, ChunkCache::AsyncOptions{2, 0});  // no prefetch
  // Fill: 0, 1, 2 resident; re-pin 0 so LRU order becomes 1 < 2 < 0.
  for (std::uint64_t q : {0u, 1u, 2u}) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  ASSERT_TRUE(cache.pin(0).is_ok());  // 0 pinned: ineligible
  auto p3 = cache.pin(3);             // must evict 1 (least recent, unpinned)
  ASSERT_TRUE(p3.is_ok());
  cache.unpin(3, false);
  auto p1 = cache.pin(1);  // 1 was evicted: miss
  ASSERT_TRUE(p1.is_ok());
  cache.unpin(1, false);
  cache.unpin(0, false);
  const ChunkCache::Stats stats = cache.stats();
  // Misses: 0,1,2,3 cold + 1 re-faulted = 5; hits: the re-pin of 0.
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ChunkCacheAsync, ExplicitPrefetchIsAdvisoryAndNonBlocking) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});
  ChunkCache cache(file, 16, kAsync);
  cache.prefetch(0, 8);
  cache.prefetch(0, 8);      // overlapping request: reduced to nothing
  cache.prefetch(1000, 4);   // out of range: dropped
  for (std::uint64_t q = 0; q < 8; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok());
    cache.unpin(q, false);
  }
  ASSERT_TRUE(cache.flush().is_ok());
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_GE(stats.prefetch_issued, 8u);
  EXPECT_GE(stats.prefetch_useful, 8u);
  EXPECT_EQ(stats.misses, 0u);  // every pin landed on a prefetched frame
}

TEST(CachedDrxFileAsync, ReadBoxPrefetchesThroughTheHintChain) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 8x8 chunks
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  CachedDrxFile cached(file, 32, kAsync);

  // Seed known values through the uncached file.
  for_each_index(Box{{0, 0}, {16, 16}}, [&](const Index& idx) {
    ASSERT_TRUE(
        file.set<double>(idx, static_cast<double>(idx[0] * 16 + idx[1]))
            .is_ok());
  });

  const Box box{{2, 2}, {10, 10}};  // 16 chunks
  std::vector<std::byte> out(checked_size(
      checked_mul(box.volume(), file.element_bytes())));
  const std::uint64_t reads_before = io.read_requests;
  ASSERT_TRUE(cached.read_box(box, MemoryOrder::kRowMajor, out).is_ok());
  // The box hint coalesces chunk faults: strictly fewer storage requests
  // than the 16 chunks the box covers.
  EXPECT_LT(io.read_requests - reads_before, 16u);
  EXPECT_GT(cached.stats().prefetch_useful, 0u);

  const auto* values = reinterpret_cast<const double*>(out.data());
  std::size_t k = 0;
  for (std::uint64_t i = 2; i < 10; ++i) {
    for (std::uint64_t j = 2; j < 10; ++j) {
      EXPECT_EQ(values[k++], static_cast<double>(i * 16 + j));
    }
  }
}

TEST(CachedDrxFileAsync, ReadBoxMatchesSyncModeResult) {
  DrxFile file_async = make_file(Shape{12, 12}, Shape{3, 3});
  DrxFile file_sync = make_file(Shape{12, 12}, Shape{3, 3});
  SplitMix64 rng(7);
  for_each_index(Box{{0, 0}, {12, 12}}, [&](const Index& idx) {
    const double v = rng.next_double();
    ASSERT_TRUE(file_async.set<double>(idx, v).is_ok());
    ASSERT_TRUE(file_sync.set<double>(idx, v).is_ok());
  });
  CachedDrxFile a(file_async, 4, kAsync);
  CachedDrxFile s(file_sync, 4);
  const Box box{{1, 0}, {11, 12}};
  std::vector<std::byte> out_a(checked_size(
      checked_mul(box.volume(), file_async.element_bytes())));
  std::vector<std::byte> out_s = out_a;
  ASSERT_TRUE(a.read_box(box, MemoryOrder::kColMajor, out_a).is_ok());
  ASSERT_TRUE(s.read_box(box, MemoryOrder::kColMajor, out_s).is_ok());
  EXPECT_EQ(out_a, out_s);
}

TEST_P(ChunkCacheEngine, FlushSurfacesErrorFromItsOwnWritebacks) {
  FaultyStorage::Controls controls;
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  ChunkCache cache(file, 4, engine());

  // Dirty frames stay resident (capacity 4, no eviction): the failing
  // writes are queued by flush() itself, not by earlier evictions.
  for (std::uint64_t q = 0; q < 4; ++q) {
    auto p = cache.pin(q);
    ASSERT_TRUE(p.is_ok());
    const double v = static_cast<double>(q);
    std::memcpy(p.value().data(), &v, sizeof(v));
    cache.unpin(q, /*dirty=*/true);
  }
  controls.fail_writes_after = 0;

  const Status first = cache.flush();
  EXPECT_FALSE(first.is_ok());
  EXPECT_EQ(first.code(), ErrorCode::kIoError);
  // Surfaced once; sticky in last_error() afterwards.
  controls.fail_writes_after = -1;
  EXPECT_TRUE(cache.flush().is_ok());
  EXPECT_EQ(cache.last_error().code(), ErrorCode::kIoError);
}

// Regression test for the flush/set race: flush() used to write a
// frame's buffer to storage while a concurrent pinner was memcpy-ing
// into the same bytes (pin() hands out raw spans, written without any
// lock). flush now claims a frame only once its pin count drops to zero
// and holds a flushing mark across the unlocked write, so a writer and
// a flusher can never touch one buffer at the same time. Run under
// -fsanitize=thread (ctest -R Tsan / CI tsan job) this fails on the old
// code and is quiet on the new design.
TEST_P(ChunkCacheEngine, ConcurrentFlushAndSetDoNotRaceOnFrameBuffer) {
  FaultyStorage::Controls controls;
  controls.write_delay_ms = 1;  // widen the unlocked write-back window
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  ChunkCache cache(file, 2, engine(/*prefetch_depth=*/0));

  constexpr int kIters = 200;
  std::thread writer([&] {
    for (int i = 1; i <= kIters; ++i) {
      auto p = cache.pin(0);
      ASSERT_TRUE(p.is_ok());
      auto* slot = reinterpret_cast<double*>(p.value().data());
      slot[0] = static_cast<double>(i);
      cache.unpin(0, /*dirty=*/true);
    }
  });
  std::thread flusher([&] {
    for (int i = 0; i < kIters / 4; ++i) {
      ASSERT_TRUE(cache.flush().is_ok());
    }
  });
  writer.join();
  flusher.join();

  ASSERT_TRUE(cache.flush().is_ok());
  EXPECT_TRUE(cache.last_error().is_ok());
  std::vector<std::byte> chunk(checked_size(file.chunk_bytes()));
  ASSERT_TRUE(file.read_chunk(0, chunk).is_ok());
  double seen = 0;
  std::memcpy(&seen, chunk.data(), sizeof(seen));
  EXPECT_EQ(seen, static_cast<double>(kIters));
}

/// Writes `value(i, j)` over the whole array through the uncached file,
/// one chunk-row band at a time: a compressed array relocates every slot
/// in band order, so its slots are not in address order (F* addresses
/// run down columns).
template <typename F>
void write_row_bands(DrxFile& file, std::uint64_t band, F value) {
  const std::uint64_t rows = file.bounds()[0];
  const std::uint64_t cols = file.bounds()[1];
  for (std::uint64_t r = 0; r < rows; r += band) {
    const Box b{{r, 0}, {r + band, cols}};
    std::vector<double> vals;
    for_each_index(b, [&](const Index& idx) {
      vals.push_back(value(idx[0], idx[1]));
    });
    ASSERT_TRUE(
        file.write_box(b, MemoryOrder::kRowMajor, std::as_bytes(std::span(vals)))
            .is_ok());
  }
}

double unique_value(std::uint64_t i, std::uint64_t j) {
  return static_cast<double>(i * 1000 + j) + 0.25;  // incompressible
}

/// What a make_banded_file holds: each chunk row of 8 elements is one run
/// of a value no other chunk row has, so RLE shrinks every 512 B chunk
/// (into a 128 B slot) and a decode that drops or misplaces bytes shows.
double banded_value(std::uint64_t i, std::uint64_t j) {
  return static_cast<double>(i * 1000 + j / 8) + 0.25;
}

/// An array of doubles (64x64 unless `bounds` says otherwise) in 8x8
/// chunks (512 B each) over `data`, written one chunk-row band at a time
/// with banded_value. Every chunk of a compressed one is stored encoded.
DrxFile make_banded_file(codec::CodecId c, std::unique_ptr<pfs::Storage> data,
                         Shape bounds = Shape{64, 64}) {
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  options.codec = c;
  auto created = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                                 std::move(data), std::move(bounds),
                                 Shape{8, 8}, options);
  EXPECT_TRUE(created.is_ok()) << created.status();
  DrxFile file = std::move(created).value();
  write_row_bands(file, 8, banded_value);
  for (const core::ChunkSlot& slot : file.metadata().chunk_table) {
    EXPECT_EQ(slot.codec, static_cast<std::uint8_t>(c));
    EXPECT_LT(slot.stored, file.chunk_bytes());
  }
  return file;
}

/// Cold-reads the 3x3-chunk box {8..32}^2 of a make_banded_file through
/// an async cache and checks every value.
void read_box_cold(DrxFile& file) {
  CachedDrxFile cached(file, 32, kAsync);
  const Box box{{8, 8}, {32, 32}};  // chunks 1..3 x 1..3
  std::vector<double> out(checked_size(box.volume()));
  EXPECT_TRUE(cached
                  .read_box(box, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span(out)))
                  .is_ok());
  std::size_t k = 0;
  for_each_index(box, [&](const Index& idx) {
    EXPECT_EQ(out[k++], banded_value(idx[0], idx[1]));
  });
}

/// Read requests read_box_cold costs over a MemStorage.
std::uint64_t box_fill_requests(DrxFile& file) {
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  const std::uint64_t reads_before = io.read_requests;
  read_box_cold(file);
  return io.read_requests - reads_before;
}

// A box hint fills by storage position and reads across the holes
// between its chunks whenever that costs less than the seek it saves
// (data sieving). On a band-written compressed array the 3x3-chunk box
// is three storage rows of chunks a few KB apart; on a raw array it is
// three address runs. Either way the holes are far below the default
// model's ~724 KiB break-even, so the whole box is one request.
TEST(CachedDrxFileAsync, BoxFillsCoalesceByStoragePosition) {
  for (const codec::CodecId c : {codec::CodecId::kRle, codec::CodecId::kNone}) {
    DrxFile file = make_banded_file(c, std::make_unique<pfs::MemStorage>());
    EXPECT_EQ(box_fill_requests(file), 1u) << codec::codec_name(c);
  }
}

// The rule follows the device, not a constant: on storage whose requests
// and seeks cost nothing fixed, any hole costs more than the request it
// saves, so the same box splits back into its three storage-contiguous
// runs (rows of chunks when compressed, address runs when raw).
TEST(CachedDrxFileAsync, BoxFillSplitsWhereHolesCostMoreThanSeeks) {
  pfs::CostModel free_requests;
  free_requests.seek_us = 0;
  free_requests.request_overhead_us = 0;
  free_requests.network_latency_us = 0;
  for (const codec::CodecId c : {codec::CodecId::kRle, codec::CodecId::kNone}) {
    DrxFile file = make_banded_file(
        c, std::make_unique<pfs::MemStorage>(free_requests));
    EXPECT_EQ(box_fill_requests(file), 3u) << codec::codec_name(c);
  }
}

// A striped file splits a read at stripe boundaries into one request
// per server, so no single cost model prices a joined hole: PfsStorage
// never sieves, and the box transfers its nine chunks' slots and no
// hole: 9 x 512 B raw, 9 x 128 B compressed.
TEST(CachedDrxFileAsync, BoxFillOverStripedStorageReadsNoHoles) {
  pfs::Pfs fs(pfs::PfsConfig{});  // 4 servers x 64 KiB stripes
  for (const codec::CodecId c : {codec::CodecId::kRle, codec::CodecId::kNone}) {
    auto handle = fs.create("banded." + std::string(codec::codec_name(c)));
    ASSERT_TRUE(handle.is_ok());
    DrxFile file = make_banded_file(
        c, std::make_unique<pfs::PfsStorage>(std::move(handle).value()));
    EXPECT_EQ(file.data_storage().sieve_gap_bytes(), 0u);
    std::uint64_t slots = 0;
    for_each_index(Box{{1, 1}, {4, 4}}, [&](const Index& chunk) {
      const Metadata& m = file.metadata();
      slots += m.storage_extent(m.mapping.address_of(chunk)).capacity;
    });
    EXPECT_EQ(slots, (c == codec::CodecId::kRle ? 128u : 512u) * 9);
    const pfs::IoStats before = fs.total_stats();
    read_box_cold(file);
    EXPECT_EQ((fs.total_stats() - before).bytes_read, slots)
        << codec::codec_name(c);
  }
}

// A fill that reads across a hole copies only its own chunks: a chunk
// inside the hole whose newest bytes sit in the write-behind queue (or
// in a dirty frame) keeps them. The stale hole bytes are never cached.
TEST(CachedDrxFileAsync, SievedHoleNeverOverridesQueuedWriteBehind) {
  for (const codec::CodecId c : {codec::CodecId::kRle, codec::CodecId::kNone}) {
    FaultyStorage::Controls controls;
    DrxFile file =
        make_banded_file(c, std::make_unique<FaultyStorage>(controls));
    controls.write_delay_ms = 20;  // keep the write-back in flight
    // The first three chunks in storage order: the fill asks for the
    // outer two, so the middle one lies in the hole it reads across.
    std::vector<std::uint64_t> by_storage(
        checked_size(file.metadata().mapping.total_chunks()));
    std::iota(by_storage.begin(), by_storage.end(), std::uint64_t{0});
    std::sort(by_storage.begin(), by_storage.end(),
              [&](std::uint64_t a, std::uint64_t b) {
                return file.metadata().storage_extent(a).offset <
                       file.metadata().storage_extent(b).offset;
              });
    const std::uint64_t a = by_storage[0];
    const std::uint64_t hole = by_storage[1];
    const std::uint64_t b = by_storage[2];
    const std::size_t n = checked_size(file.chunk_bytes()) / sizeof(double);

    ChunkCache cache(file, 4, ChunkCache::AsyncOptions{2, 0});
    {
      auto p = cache.pin(hole);
      ASSERT_TRUE(p.is_ok());
      auto* v = reinterpret_cast<double*>(p.value().data());
      std::fill(v, v + n, 7.5);  // compresses: rewritten in place
      cache.unpin(hole, /*dirty=*/true);
    }
    for (std::size_t i = 3; i < 7; ++i) {  // evicts `hole`: write-behind
      ASSERT_TRUE(cache.pin(by_storage[i]).is_ok());
      cache.unpin(by_storage[i], false);
    }
    const int reads_before = controls.reads_seen.load();
    const std::uint64_t pair[] = {a, b};
    cache.prefetch(pair);
    ASSERT_TRUE(cache.flush().is_ok());
    EXPECT_EQ(controls.reads_seen.load() - reads_before, 1)
        << codec::codec_name(c);
    EXPECT_GT(cache.stats().deferred_writebacks, 0u);

    for (const std::uint64_t q : {a, hole, b}) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok());
      const auto* v = reinterpret_cast<const double*>(p.value().data());
      const Index chunk = file.metadata().mapping.index_of(q);
      // Element 0 of a chunk is its origin; the last is 7 rows and 7
      // columns further.
      EXPECT_EQ(v[0], q == hole ? 7.5 : banded_value(chunk[0] * 8, chunk[1] * 8))
          << codec::codec_name(c) << " chunk " << q;
      EXPECT_EQ(v[n - 1],
                q == hole ? 7.5 : banded_value(chunk[0] * 8 + 7, chunk[1] * 8 + 7))
          << codec::codec_name(c) << " chunk " << q;
      cache.unpin(q, false);
    }
    std::vector<std::byte> raw(checked_size(file.chunk_bytes()));
    ASSERT_TRUE(file.read_chunk(hole, raw).is_ok());
    double seen = 0;
    std::memcpy(&seen, raw.data() + raw.size() - sizeof(seen), sizeof(seen));
    EXPECT_EQ(seen, 7.5) << codec::codec_name(c);
  }
}

// The band-written array of the read-ahead tests: 16x16 chunks of 8x8
// doubles. F* addresses run down the 16-chunk columns while the slots sit
// in row bands, so a read-ahead window down a column is one sieved
// request across the rows it spans.
const Shape kBandedArray{128, 128};

/// Checks chunk `q` of a make_banded_file against banded_value.
void expect_chunk_values(const DrxFile& file, std::uint64_t q,
                         std::span<const std::byte> bytes) {
  const Index c = file.metadata().mapping.index_of(q);
  const auto* v = reinterpret_cast<const double*>(bytes.data());
  std::size_t k = 0;
  for_each_index(Box{{c[0] * 8, c[1] * 8}, {c[0] * 8 + 8, c[1] * 8 + 8}},
                 [&](const Index& idx) {
                   ASSERT_EQ(v[k++], banded_value(idx[0], idx[1])) << q;
                 });
}

/// Pins every chunk of `file` in address order through a cache of
/// `capacity` frames with read-ahead on, one fill job at a time (flush()
/// waits for it), and returns how many chunks each pin reserved. Each
/// pin holds its frame until its job has landed and checks the bytes
/// are still its own chunk's, so no job took the pinned frame. When
/// `controls` records the reads, a job read only chunks in
/// (q, q + capacity) for the pin at q. `stats` receives the cache's
/// totals.
std::vector<std::uint64_t> scan_windows(DrxFile& file, std::size_t capacity,
                                        FaultyStorage::Controls* controls,
                                        ChunkCache::Stats& stats) {
  const std::uint64_t total = file.metadata().mapping.total_chunks();
  std::map<std::uint64_t, std::uint64_t> address_at;  // by storage offset
  for (std::uint64_t q = 0; q < total; ++q) {
    address_at[file.metadata().storage_extent(q).offset] = q;
  }
  // Depth 1: the value only switches read-ahead on.
  ChunkCache cache(file, capacity, ChunkCache::AsyncOptions{1, 1, 1});
  std::vector<std::uint64_t> reserved;
  for (std::uint64_t q = 0; q < total; ++q) {
    const std::uint64_t issued = cache.stats().prefetch_issued;
    const std::uint64_t misses = cache.stats().misses;
    const std::size_t read = controls ? controls->gathered().size() : 0;
    auto p = cache.pin(q, /*writable=*/false);
    EXPECT_TRUE(p.is_ok());
    EXPECT_TRUE(cache.flush().is_ok());
    expect_chunk_values(file, q, p.value());
    cache.unpin(q, false, false);
    reserved.push_back(cache.stats().prefetch_issued - issued);
    EXPECT_LT(reserved.back(), capacity) << "pin " << q;
    if (controls == nullptr) continue;
    // A pin that missed reads its own chunk (one piece); every other
    // piece is its job's.
    const std::uint64_t missed = cache.stats().misses - misses;
    const std::vector<std::uint64_t> offsets = controls->gathered();
    EXPECT_EQ(offsets.size() - read, missed + reserved.back()) << "pin " << q;
    std::uint64_t own = 0;
    for (std::size_t k = read; k < offsets.size(); ++k) {
      const std::uint64_t c = address_at.at(offsets[k]);
      if (c == q) {
        ++own;
        continue;
      }
      EXPECT_GT(c, q);
      EXPECT_LT(c, q + capacity) << "pin " << q;
    }
    EXPECT_EQ(own, missed) << "pin " << q;
  }
  stats = cache.stats();
  return reserved;
}

/// Reservations a scan_windows of `total` chunks through `capacity`
/// frames makes: the misses at 0 and 1 start the run, the window after
/// 1 takes every frame but the pinned one, and each later miss lands
/// just past the previous window and reads ahead again. The last window
/// stops at the last chunk.
std::vector<std::uint64_t> pool_windows(std::uint64_t total,
                                        std::uint64_t capacity) {
  std::vector<std::uint64_t> expected(checked_size(total), 0);
  for (std::uint64_t q = 1; q + 1 < total; q += capacity) {
    expected[q] = std::min(capacity - 1, total - q - 1);
  }
  return expected;
}

// A read-ahead window takes every frame but the one its miss pins,
// whatever the storage's cost model says a seek is worth, and stops at
// the last chunk. Here the model prices a seek at four chunks of
// transfer; the windows still take the pool.
TEST(ChunkCacheAsync, ReadAheadWindowsTakeThePool) {
  constexpr std::size_t kCapacity = 512;
  pfs::CostModel four_chunks;
  four_chunks.seek_us = 4 * 512;  // 8x8 doubles per chunk
  four_chunks.request_overhead_us = 0;
  four_chunks.network_latency_us = 0;
  four_chunks.disk_per_byte_us = 1;
  four_chunks.network_per_byte_us = 0;
  ASSERT_EQ(four_chunks.sieve_gap_bytes(), 4u * 512);
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto created = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                                 std::make_unique<pfs::MemStorage>(four_chunks),
                                 Shape{256, 256}, Shape{8, 8}, options);
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile file = std::move(created).value();
  write_row_bands(file, 8, banded_value);
  const std::uint64_t total = file.metadata().mapping.total_chunks();
  ASSERT_EQ(total, 1024u);
  ChunkCache::Stats stats;
  const std::vector<std::uint64_t> reserved =
      scan_windows(file, kCapacity, nullptr, stats);
  const std::vector<std::uint64_t> expected = pool_windows(total, kCapacity);
  ASSERT_EQ(expected[1], kCapacity - 1);
  ASSERT_EQ(expected[513], total - 514);
  EXPECT_EQ(reserved, expected);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
}

// A window evicts nothing the scan still needs: no job takes a pinned or
// loading frame, reads a chunk behind the stream or one capacity or more
// ahead of it, or wastes a prefetch, on raw, compressed and striped
// storage alike.
TEST(ChunkCacheAsync, ReadAheadEvictsNothingTheScanNeeds) {
  constexpr std::size_t kCapacity = 48;
  const std::vector<std::uint64_t> expected = pool_windows(256, kCapacity);
  for (const codec::CodecId c : {codec::CodecId::kRle, codec::CodecId::kNone}) {
    SCOPED_TRACE(codec::codec_name(c));
    FaultyStorage::Controls controls;
    DrxFile file = make_banded_file(
        c, std::make_unique<FaultyStorage>(controls), kBandedArray);
    ChunkCache::Stats stats;
    EXPECT_EQ(scan_windows(file, kCapacity, &controls, stats), expected);
    EXPECT_EQ(stats.prefetch_wasted, 0u);
    EXPECT_EQ(stats.prefetch_useful, stats.prefetch_issued);
  }
  {
    SCOPED_TRACE("rle, band-written, striped storage");
    pfs::Pfs fs(pfs::PfsConfig{});
    auto handle = fs.create("banded");
    ASSERT_TRUE(handle.is_ok());
    DrxFile file = make_banded_file(
        codec::CodecId::kRle,
        std::make_unique<pfs::PfsStorage>(std::move(handle).value()),
        kBandedArray);
    ChunkCache::Stats stats;
    EXPECT_EQ(scan_windows(file, kCapacity, nullptr, stats), expected);
    EXPECT_EQ(stats.prefetch_wasted, 0u);
  }
}

// A window never evicts a chunk it covers: the stream is about to pin
// it, and evicting it would leave a hole the stream faults alone. The
// covered resident frames move to the LRU's front first, so the window
// takes every other frame before it runs into one of them. Here two
// covered chunks are the least recent frames of a full pool.
TEST(ChunkCacheAsync, WindowKeepsTheResidentChunksItCovers) {
  DrxFile file = make_file(Shape{64, 64}, Shape{8, 8});  // 64 chunks
  constexpr std::size_t kCapacity = 17;
  ChunkCache cache(file, kCapacity, ChunkCache::AsyncOptions{2, 1, 1});
  std::vector<std::uint64_t> order{5, 9};
  for (std::uint64_t f = 0; f < 13; ++f) order.push_back(63 - 2 * f);
  order.push_back(0);
  order.push_back(1);  // the run: reads ahead after 1
  for (const std::uint64_t q : order) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  ASSERT_TRUE(cache.flush().is_ok());
  // The window takes the 13 far frames and 0, so it reads 2..17 but the
  // two it keeps, and stops at 18, whose room would cost one of them.
  EXPECT_EQ(cache.stats().prefetch_issued, 14u);
  const std::uint64_t misses = cache.stats().misses;
  for (std::uint64_t q = 2; q < 18; ++q) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(cache.stats().prefetch_wasted, 0u);
}

// A box hint and the read-ahead window it starts are one fill job, and
// the window never evicts a chunk the hint asked for either. Here the
// hint {10, 11} continues a run with 10 resident, the least recent
// frame but one once the far chunks go: the window after 11 takes the
// far frames and 9's, then stops at the chunk whose room would cost 10.
TEST(ChunkCacheAsync, WindowKeepsTheResidentChunksOfItsHint) {
  DrxFile file = make_file(Shape{64, 64}, Shape{8, 8});  // 64 chunks
  constexpr std::size_t kCapacity = 16;
  ChunkCache cache(file, kCapacity, ChunkCache::AsyncOptions{2, 1, 1});
  // Misses that never run in sequence: 14 far chunks, then 10, then 9,
  // which leaves the detector's last miss at 9.
  std::vector<std::uint64_t> order;
  for (std::uint64_t f = 0; f < kCapacity - 2; ++f) order.push_back(63 - 2 * f);
  order.push_back(10);
  order.push_back(9);
  for (const std::uint64_t q : order) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  ASSERT_EQ(cache.resident(), kCapacity);
  const std::uint64_t hint[] = {10, 11};
  cache.prefetch_chunks(hint);
  ASSERT_TRUE(cache.flush().is_ok());
  // 11, then the window 12..25: 13 far frames and 9's, not 10's.
  EXPECT_EQ(cache.stats().prefetch_issued, 15u);
  const std::uint64_t misses = cache.stats().misses;
  for (std::uint64_t q = 10; q < 26; ++q) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_EQ(cache.stats().prefetch_wasted, 0u);
}

// Only a hint over consecutive addresses is a run. F* addresses run down
// the chunk columns, so a 2x2-chunk box covers two address pairs, and
// the next box down and to the right starts just past the first one's
// last address without being a scan: it reads ahead nothing.
TEST(CachedDrxFileAsync, BoxesThatAbutInAddressOrderDoNotReadAhead) {
  DrxFile file = make_file(Shape{64, 64}, Shape{8, 8});  // 64 chunks
  CachedDrxFile cached(file, 32, ChunkCache::AsyncOptions{2, 1, 1});
  std::vector<double> out(16 * 16);
  // Chunks (0..1, 0..1) are addresses 0, 1, 8, 9; chunks (2..3, 1..2)
  // are 10, 11, 18, 19.
  for (const Box& box : {Box{{0, 0}, {16, 16}}, Box{{16, 8}, {32, 24}}}) {
    ASSERT_TRUE(cached
                    .read_box(box, MemoryOrder::kRowMajor,
                              std::as_writable_bytes(std::span(out)))
                    .is_ok());
  }
  ASSERT_TRUE(cached.flush().is_ok());
  EXPECT_EQ(cached.stats().prefetch_issued, 8u);
}

// A scan of one-chunk boxes down the band-written array's columns. F*
// addresses run down the 16-chunk columns while the slots sit in row
// bands, so a window is one sieved request across the rows it spans.
// The hint reserves the scanned chunk and its window in one job, so
// each job is the chunk and the capacity - 1 after it: five requests
// for 256 chunks through 64 frames (the first is the run's start).
TEST(CachedDrxFileAsync, BandWrittenScanReadsOneRequestPerWindow) {
  constexpr std::size_t kCapacity = 64;
  DrxFile file = make_banded_file(codec::CodecId::kRle,
                                  std::make_unique<pfs::MemStorage>(),
                                  kBandedArray);
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  const std::uint64_t total = file.metadata().mapping.total_chunks();
  ASSERT_EQ(total, 256u);
  CachedDrxFile cached(file, kCapacity, ChunkCache::AsyncOptions{2, 1, 1});
  std::map<std::uint64_t, std::uint64_t> jobs;  // scanned chunk -> chunks
  std::vector<double> out(8 * 8);
  for (std::uint64_t q = 0; q < total; ++q) {
    const Index c = file.metadata().mapping.index_of(q);
    const Box box{{c[0] * 8, c[1] * 8}, {c[0] * 8 + 8, c[1] * 8 + 8}};
    const std::uint64_t issued = cached.stats().prefetch_issued;
    const std::uint64_t requests = io.read_requests;
    ASSERT_TRUE(cached
                    .read_box(box, MemoryOrder::kRowMajor,
                              std::as_writable_bytes(std::span(out)))
                    .is_ok());
    ASSERT_TRUE(cached.flush().is_ok());  // the job has landed
    expect_chunk_values(file, q, std::as_bytes(std::span(out)));
    if (cached.stats().prefetch_issued != issued) {
      jobs[q] = cached.stats().prefetch_issued - issued;
      EXPECT_EQ(io.read_requests - requests, 1u) << "box " << q;
    } else {
      EXPECT_EQ(io.read_requests, requests) << "box " << q;
    }
  }
  const std::map<std::uint64_t, std::uint64_t> expected{
      {0, 1}, {1, kCapacity}, {65, kCapacity}, {129, kCapacity}, {193, 63}};
  EXPECT_EQ(jobs, expected);
  EXPECT_EQ(cached.stats().prefetch_wasted, 0u);
}

// A box hint larger than the pool reserves what fits and stops at the
// first chunk that would need a frame another hinted chunk holds; the
// pins fault the rest on demand, each evicting a chunk already copied
// out. No hinted chunk is evicted before its pin.
TEST(CachedDrxFileAsync, BoxHintLargerThanThePoolWastesNothing) {
  constexpr std::size_t kCapacity = 16;
  DrxFile file = make_file(Shape{64, 64}, Shape{8, 8});  // 64 chunks
  write_row_bands(file, 8, unique_value);
  CachedDrxFile cached(file, kCapacity, ChunkCache::AsyncOptions{2, 1, 1});
  // Warm the pool with a row of chunks the box covers, so the hint has
  // resident frames to keep as well as stale ones to take.
  std::vector<double> row(8 * 64);
  const Box first_row{{0, 0}, {8, 64}};
  ASSERT_TRUE(cached
                  .read_box(first_row, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span(row)))
                  .is_ok());
  ASSERT_TRUE(cached.flush().is_ok());
  const Box whole{{0, 0}, {64, 64}};
  std::vector<double> out(checked_size(whole.volume()));
  ASSERT_TRUE(cached
                  .read_box(whole, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span(out)))
                  .is_ok());
  ASSERT_TRUE(cached.flush().is_ok());
  std::size_t k = 0;
  for_each_index(whole, [&](const Index& idx) {
    ASSERT_EQ(out[k++], unique_value(idx[0], idx[1]));
  });
  const ChunkCache::Stats stats = cached.stats();
  EXPECT_GE(stats.prefetch_issued, kCapacity);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  EXPECT_EQ(stats.prefetch_useful, stats.prefetch_issued);
}

// A window is reserved before its job reads, by the same check every fill
// uses, so a chunk whose newest bytes are not on storage yet is never
// filled from it. Here the chunk lies inside the window, once as a
// write-back held in the queue and once as a dirty resident frame.
TEST(CachedDrxFileAsync, ReadAheadNeverOverridesQueuedWriteBehind) {
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kHeld = 10;
  // Resident inside the window, which never evicts a chunk it covers:
  // the one frame the pin of the held chunk can take while the held
  // write-back keeps the window's job from reading.
  constexpr std::uint64_t kKept = 40;
  for (const bool queued : {true, false}) {
    SCOPED_TRACE(queued ? "queued write-back" : "dirty resident frame");
    FaultyStorage::Controls controls;
    DrxFile file = make_banded_file(
        codec::CodecId::kRle, std::make_unique<FaultyStorage>(controls),
        kBandedArray);
    const std::size_t n = checked_size(file.chunk_bytes()) / sizeof(double);

    ChunkCache cache(file, kCapacity, ChunkCache::AsyncOptions{2, 1, 1});
    OpenGateAtExit gate{controls};
    const auto touch = [&](std::uint64_t q) {
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok());
      if (q == kHeld) {
        auto* v = reinterpret_cast<double*>(p.value().data());
        std::fill(v, v + n, 7.5);  // compresses: rewritten in place
      }
      cache.unpin(q, /*dirty=*/q == kHeld);
    };
    // Misses that never run in sequence, far from the stream, then the
    // kept chunk fill the pool with the held one and chunk 0, the last
    // miss, which the hint for 1 continues. For the queued case the held
    // chunk goes first and one more chunk evicts it, with its write-back
    // held at the gate. That chunk takes an overwrite pin, which the
    // detector ignores: a read would wait on the io lock the held
    // write-back keeps.
    constexpr std::uint64_t kFar = kCapacity - 3;
    std::vector<std::uint64_t> order;
    for (std::uint64_t f = 0; f < kFar; ++f) order.push_back(254 - 2 * f);
    order.push_back(kKept);
    order.insert(queued ? order.begin() : order.end(), kHeld);
    order.push_back(0);
    for (const std::uint64_t q : order) touch(q);
    ASSERT_EQ(cache.resident(), kCapacity);
    controls.writes_open = false;
    if (queued) {
      constexpr std::uint64_t kZeroed = 254 - 2 * kFar;
      auto p = cache.pin_overwrite(kZeroed);
      ASSERT_TRUE(p.is_ok());
      std::fill(p.value().begin(), p.value().end(), std::byte{0});
      cache.unpin(kZeroed, /*dirty=*/true, /*writable=*/true);
    }

    const std::uint64_t second[] = {1};
    cache.prefetch_chunks(second);  // continues the run: reads ahead
    // 1 and a window of the frames the far misses, chunk 0 and (queued)
    // the zeroed chunk hold, which skips the held and the kept chunk:
    // 2..65 while the held chunk waits in the queue, 2..64 while it
    // keeps a frame.
    const std::uint64_t last = queued ? kCapacity + 1 : kCapacity;
    ASSERT_EQ(cache.stats().prefetch_issued, last - 2);

    // The newest bytes come back while the write-back is still held.
    auto p = cache.pin(kHeld, /*writable=*/false);
    ASSERT_TRUE(p.is_ok());
    const auto* v = reinterpret_cast<const double*>(p.value().data());
    EXPECT_EQ(v[0], 7.5);
    EXPECT_EQ(v[n - 1], 7.5);
    cache.unpin(kHeld, false, false);
    EXPECT_EQ(cache.stats().write_queue_hits, queued ? 1u : 0u);

    controls.writes_open = true;
    ASSERT_TRUE(cache.flush().is_ok());
    std::vector<std::byte> raw(checked_size(file.chunk_bytes()));
    ASSERT_TRUE(file.read_chunk(kHeld, raw).is_ok());
    double seen = 0;
    std::memcpy(&seen, raw.data() + raw.size() - sizeof(seen), sizeof(seen));
    EXPECT_EQ(seen, 7.5);
    for (std::uint64_t q = 2; q <= last; ++q) {
      if (q == kHeld || q == kKept) continue;
      auto r = cache.pin(q, /*writable=*/false);
      ASSERT_TRUE(r.is_ok());
      expect_chunk_values(file, q, r.value());
      cache.unpin(q, false, false);
    }
    EXPECT_EQ(cache.stats().prefetch_wasted, 0u);
  }
}

// Read-ahead under read_box: the box hint reserves the chunk a one-chunk
// read_box is about to pin, so the pin hits and the miss detector never
// sees the scan. Hinted runs feed the detector instead, so a scan of
// one-chunk boxes in address order reads ahead like a scan of misses.
TEST(CachedDrxFileAsync, ScanOfOneChunkBoxesReadsAhead) {
  DrxFile file = make_file(Shape{512, 512}, Shape{16, 16});  // 1024 chunks
  write_row_bands(file, 16, unique_value);
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  constexpr std::uint64_t kCapacity = 64;
  CachedDrxFile cached(file, kCapacity, ChunkCache::AsyncOptions{2, 1});
  const std::uint64_t total = file.metadata().mapping.total_chunks();
  ASSERT_EQ(total, 1024u);

  const std::uint64_t reads_before = io.read_requests;
  std::vector<double> out(16 * 16);
  for (std::uint64_t q = 0; q < total; ++q) {
    const Index c = file.metadata().mapping.index_of(q);
    const Box box{{c[0] * 16, c[1] * 16}, {c[0] * 16 + 16, c[1] * 16 + 16}};
    ASSERT_TRUE(cached
                    .read_box(box, MemoryOrder::kRowMajor,
                              std::as_writable_bytes(std::span(out)))
                    .is_ok());
    std::size_t k = 0;
    for_each_index(box, [&](const Index& idx) {
      ASSERT_EQ(out[k++], unique_value(idx[0], idx[1]));
    });
  }
  ASSERT_TRUE(cached.flush().is_ok());
  // One request per fill job, a hinted chunk and the window of the
  // capacity - 1 after it (plus the two that start the run), not one per
  // chunk.
  EXPECT_LE(io.read_requests - reads_before,
            (total + kCapacity - 1) / kCapacity + 2);
  EXPECT_GT(cached.stats().prefetch_useful, 0u);
}

// Hot-set hits never feed the detector: re-reading resident chunks
// reserves nothing, so it issues no read-ahead.
TEST(CachedDrxFileAsync, ResidentBoxesDoNotReadAhead) {
  DrxFile file = make_file(Shape{64, 64}, Shape{8, 8});  // 64 chunks
  CachedDrxFile cached(file, 64, ChunkCache::AsyncOptions{2, 8});
  const Box box{{0, 0}, {8, 64}};  // chunks (0, 0..7), addresses 0, 8, ...
  std::vector<double> out(checked_size(box.volume()));
  ASSERT_TRUE(cached
                  .read_box(box, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span(out)))
                  .is_ok());
  ASSERT_TRUE(cached.flush().is_ok());
  const std::uint64_t issued = cached.stats().prefetch_issued;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cached
                    .read_box(box, MemoryOrder::kRowMajor,
                              std::as_writable_bytes(std::span(out)))
                    .is_ok());
  }
  ASSERT_TRUE(cached.flush().is_ok());
  EXPECT_EQ(cached.stats().prefetch_issued, issued);
}

// Box hints and write-behind together over a compressed array: a writer
// keeps evicting dirty chunks whose first incompressible write-back
// outgrows the all-zero slot and relocates it on a pool worker, while a
// reader's box hints fill the same chunks. Grouping a fill by storage
// position reads the slot table, so it must happen under the same lock
// as those write-backs, never on the hinting thread.
TEST(CachedDrxFileAsync, BoxHintsDuringCompressedWriteBehind) {
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  options.codec = codec::CodecId::kRle;
  auto created = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                                 std::make_unique<pfs::MemStorage>(),
                                 Shape{128, 128}, Shape{8, 8}, options);
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile file = std::move(created).value();
  CachedDrxFile cached(file, 8, kAsync);
  constexpr int kIters = 8;
  // The writer's box is unaligned, so it has partially covered chunks to
  // prefetch as well as whole ones to overwrite.
  const Box written{{1, 1}, {127, 127}};
  const auto value_at = [](int iter, const Index& idx) {
    return unique_value(idx[0], idx[1]) + iter;  // incompressible
  };
  // The created zeros, or the version some write_box left there.
  const auto plausible = [](double v, const Index& idx) {
    if (v == 0.0) return true;
    const double iter = v - unique_value(idx[0], idx[1]);
    return iter >= 0 && iter < kIters && iter == static_cast<int>(iter);
  };
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (int i = 0; i < kIters; ++i) {
      std::vector<double> in;
      for_each_index(written, [&](const Index& idx) {
        in.push_back(value_at(i, idx));
      });
      EXPECT_TRUE(cached
                      .write_box(written, MemoryOrder::kRowMajor,
                                 std::as_bytes(std::span(in)))
                      .is_ok());
    }
    writing.store(false);
  });
  std::thread reader([&] {
    for (std::uint64_t i = 0; writing.load() || i < 64; ++i) {
      const std::uint64_t r = 8 * (i % 13);
      const std::uint64_t c = 8 * (i * 5 % 11);
      const Box box{{r, c}, {r + 16, c + 24}};
      std::vector<double> out(checked_size(box.volume()));
      ASSERT_TRUE(cached
                      .read_box(box, MemoryOrder::kRowMajor,
                                std::as_writable_bytes(std::span(out)))
                      .is_ok());
      std::size_t k = 0;
      for_each_index(box, [&](const Index& idx) {
        ASSERT_TRUE(plausible(out[k++], idx)) << idx[0] << "," << idx[1];
      });
    }
  });
  writer.join();
  reader.join();
  ASSERT_TRUE(cached.flush().is_ok());
  for_each_index(Box{{0, 0}, {128, 128}}, [&](const Index& idx) {
    const bool inside =
        idx[0] >= 1 && idx[0] < 127 && idx[1] >= 1 && idx[1] < 127;
    ASSERT_EQ(file.get<double>(idx).value(),
              inside ? value_at(kIters - 1, idx) : 0.0);
  });
}

// A write that covers a chunk whole replaces every byte, so its pin
// reads nothing: a chunk-aligned 2x2-chunk box on a cold cache costs no
// device read at all.
TEST_P(ChunkCacheEngine, AlignedWriteBoxReadsNothing) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  {
    CachedDrxFile cached(file, 8, engine());
    const Box box{{2, 4}, {6, 8}};  // chunks (1..2, 2..3)
    std::vector<double> in(checked_size(box.volume()));
    for (std::size_t k = 0; k < in.size(); ++k) in[k] = 7.0 + static_cast<double>(k);
    const std::uint64_t reads_before = io.read_requests;
    ASSERT_TRUE(cached
                    .write_box(box, MemoryOrder::kRowMajor,
                               std::as_bytes(std::span(in)))
                    .is_ok());
    ASSERT_TRUE(cached.flush().is_ok());
    EXPECT_EQ(io.read_requests - reads_before, 0u);
  }
  std::size_t k = 0;
  for_each_index(Box{{2, 4}, {6, 8}}, [&](const Index& idx) {
    EXPECT_EQ(file.get<double>(idx).value(), 7.0 + static_cast<double>(k++));
  });
}

// An unaligned box still reads (only) the chunks it covers in part, and
// the bytes of those chunks outside the box survive the write.
TEST_P(ChunkCacheEngine, UnalignedWriteBoxReadModifyWrites) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});  // 4x4 chunks
  const auto before = [](const Index& idx) {
    return static_cast<double>(idx[0] * 8 + idx[1]);
  };
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    ASSERT_TRUE(file.set<double>(idx, before(idx)).is_ok());
  });
  auto& io = static_cast<pfs::MemStorage&>(file.data_storage()).stats();
  const Box box{{1, 1}, {7, 7}};  // 16 chunks: 4 whole, 12 in part
  const auto after = [](const Index& idx) {
    return -1.0 - static_cast<double>(idx[0] * 8 + idx[1]);
  };
  {
    CachedDrxFile cached(file, 16, engine());
    std::vector<double> in;
    for_each_index(box, [&](const Index& idx) { in.push_back(after(idx)); });
    const std::uint64_t reads_before = io.read_requests;
    ASSERT_TRUE(cached
                    .write_box(box, MemoryOrder::kRowMajor,
                               std::as_bytes(std::span(in)))
                    .is_ok());
    ASSERT_TRUE(cached.flush().is_ok());
    const std::uint64_t reads = io.read_requests - reads_before;
    EXPECT_GT(reads, 0u);
    // Inline, every partial chunk faults alone; a worker coalesces them
    // into runs that are contiguous on storage. The 4 whole chunks never
    // read.
    EXPECT_LE(reads, 12u);
    if (GetParam() == 0) {
      EXPECT_EQ(reads, 12u);
    }
  }
  for_each_index(Box{{0, 0}, {8, 8}}, [&](const Index& idx) {
    const bool inside = idx[0] >= 1 && idx[0] < 7 && idx[1] >= 1 && idx[1] < 7;
    EXPECT_EQ(file.get<double>(idx).value(), inside ? after(idx) : before(idx));
  });
}

// Overwriting a chunk whose older contents still sit in the write-behind
// queue: the overwrite pin skips copying the queued bytes (it replaces
// them all), and the queued write lands before the newer frame is
// written back, so the last writer wins.
TEST_P(ChunkCacheEngine, OverwriteOfQueuedWriteBehindIsLastWriterWins) {
  FaultyStorage::Controls controls;
  controls.write_delay_ms = 20;  // keep the write-back job in flight
  DrxFile file = make_faulty_file(controls, Shape{4, 4}, Shape{2, 2});
  CachedDrxFile cached(file, 1, engine(/*prefetch_depth=*/0));
  const Box chunk0{{0, 0}, {2, 2}};
  const Box chunk1{{2, 0}, {4, 2}};
  const auto fill = [&cached](const Box& b, double v) {
    const std::vector<double> in(4, v);
    ASSERT_TRUE(
        cached.write_box(b, MemoryOrder::kRowMajor, std::as_bytes(std::span(in)))
            .is_ok());
  };
  // Whether the write is still queued when the overwrite arrives is
  // timing-dependent, so a worker retries until it sees one queue hit.
  const int attempts = GetParam() > 0 ? 20 : 1;
  bool queue_hit = false;
  for (int attempt = 0; attempt < attempts && !queue_hit; ++attempt) {
    const double newest = 100.0 + attempt;
    fill(chunk0, newest - 50.0);
    fill(chunk1, -1.0);  // evicts chunk 0: its write-back is queued
    fill(chunk0, newest);  // overwrites the queued chunk
    ASSERT_TRUE(cached.flush().is_ok());
    for_each_index(chunk0, [&](const Index& idx) {
      EXPECT_EQ(file.get<double>(idx).value(), newest);
    });
    for_each_index(chunk1, [&](const Index& idx) {
      EXPECT_EQ(file.get<double>(idx).value(), -1.0);
    });
    queue_hit = cached.stats().write_queue_hits > 0;
  }
  // Inline write-behind completes before the next pin; only a worker
  // leaves the write queued.
  EXPECT_EQ(queue_hit, GetParam() > 0);
}

// Unused read-ahead must not strand capacity: a loaded speculative frame
// joins the LRU, so it is evictable (and counted as wasted) before anyone
// pins it, and a later pin finds room.
TEST(ChunkCacheAsync, UnpinnedReadAheadIsEvictable) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 4, ChunkCache::AsyncOptions{1, 0, 1});
  cache.prefetch(0, 2);
  ASSERT_TRUE(cache.flush().is_ok());  // read-ahead landed
  for (std::uint64_t q = 10; q < 20; ++q) {
    ASSERT_TRUE(cache.pin(q).is_ok());
    cache.unpin(q, false);
  }
  cache.prefetch(2, 2);
  ASSERT_TRUE(cache.flush().is_ok());
  auto p = cache.pin(30);
  ASSERT_TRUE(p.is_ok()) << p.status();
  cache.unpin(30, false);
  EXPECT_EQ(cache.stats().prefetch_wasted, 2u);
}

// Two writers gather whole-chunk patterns into one chunk while a reader
// scatters it out. A writable pin is exclusive, so the reader sees one
// pattern (or the initial zeros), never a mix. Runs inline (0 threads),
// the engine drx::serve uses by default.
TEST(CachedDrxFileAsync, WritablePinIsExclusive) {
  DrxFile file = make_file(Shape{32, 32}, Shape{32, 32});  // one chunk
  CachedDrxFile cached(file, 2, ChunkCache::AsyncOptions{0, 0});
  const Box whole{{0, 0}, {32, 32}};
  constexpr std::size_t kElems = 32 * 32;
  constexpr int kIters = 1000;
  const auto writer = [&cached, &whole](double value) {
    const std::vector<double> pattern(kElems, value);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(cached
                      .write_box(whole, MemoryOrder::kRowMajor,
                                 std::as_bytes(std::span(pattern)))
                      .is_ok());
    }
  };
  std::atomic<bool> torn{false};
  std::thread a(writer, 1.0);
  std::thread b(writer, 2.0);
  std::thread reader([&cached, &whole, &torn] {
    std::vector<double> out(kElems);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(cached
                      .read_box(whole, MemoryOrder::kRowMajor,
                                std::as_writable_bytes(std::span(out)))
                      .is_ok());
      if (std::any_of(out.begin(), out.end(),
                      [&out](double v) { return v != out[0]; })) {
        torn.store(true);
      }
    }
  });
  a.join();
  b.join();
  reader.join();
  EXPECT_FALSE(torn.load());
}

// Many simpi rank-threads hammering ONE shared cache: the TSan target.
// Each rank owns a disjoint slice of chunk addresses (pin contents are
// unsynchronized between pinners, so only owners touch bytes), but all
// ranks contend on the cache structures, LRU, and write-behind queue.
TEST(ChunkCacheAsync, ManyRanksHammerOneCache) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});  // 64 chunks
  ChunkCache cache(file, 8, kAsync);
  constexpr int kRanks = 4;
  constexpr int kIters = 300;

  simpi::run(kRanks, [&](simpi::Comm& comm) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    SplitMix64 rng(1234 + r);
    for (int i = 0; i < kIters; ++i) {
      // Owned addresses: r, r+kRanks, r+2*kRanks, ... (disjoint per rank).
      const std::uint64_t q =
          r + kRanks * rng.next_below(64 / kRanks);
      auto p = cache.pin(q);
      ASSERT_TRUE(p.is_ok());
      auto* slot = reinterpret_cast<double*>(p.value().data());
      if (rng.next() % 2 == 0) {
        slot[0] = static_cast<double>(q);
        slot[1] = static_cast<double>(i);
        cache.unpin(q, /*dirty=*/true);
      } else {
        if (slot[0] != 0.0) {
          EXPECT_EQ(slot[0], static_cast<double>(q));
        }
        cache.unpin(q, false);
      }
    }
    comm.barrier();
  });

  ASSERT_TRUE(cache.flush().is_ok());
  EXPECT_TRUE(cache.last_error().is_ok());
  const ChunkCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kRanks) * kIters);
}

}  // namespace
}  // namespace drx::core
