// The one DRX-MP box path: read_my_zone and write_my_zone are the box
// read and write bodies over the rank's zone box. So every zone or box
// read is one chunk-list transfer, one MPI-IO call, at any io thread
// count and under any cost model, and a box write reads all of its partly
// covered chunks in one independent call. These tests check call counts
// and bit-exact values, and restore the io config for sibling tests.
#include "core/drxmp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"

namespace drx::core {
namespace {

/// Sets the global io thread count for one scope, restoring the
/// env-derived default on exit.
class IoThreads {
 public:
  explicit IoThreads(int threads) { io::set_io_threads(threads); }
  ~IoThreads() { io::set_io_threads(-1); }
  IoThreads(const IoThreads&) = delete;
  IoThreads& operator=(const IoThreads&) = delete;
};

/// A cost model that values one seek at `chunks` chunks of `chunk_bytes`
/// in transfer (its sieve gap). A reader that split a transfer into
/// rounds of one seek's worth would split every zone here.
pfs::CostModel rounds_of(std::uint64_t chunks, std::uint64_t chunk_bytes) {
  pfs::CostModel m;
  m.seek_us = static_cast<double>(chunks * chunk_bytes);
  m.request_overhead_us = 0;
  m.network_latency_us = 0;
  m.disk_per_byte_us = 1;
  m.network_per_byte_us = 0;
  return m;
}

pfs::PfsConfig cfg(const pfs::CostModel& cost = pfs::CostModel{}) {
  pfs::PfsConfig c;
  c.num_servers = 4;
  c.stripe_size = 256;
  c.cost = cost;
  return c;
}

/// One mpio counter of the calling rank's registry.
std::uint64_t rank_counter(const char* name) {
  return obs::registry().counter(obs::counter_id(name)).value();
}

/// MPI-IO calls (collective and independent) made in the whole process,
/// on rank threads and on any worker thread alike.
std::uint64_t mpio_calls() {
  const obs::MetricsSnapshot live = obs::live_snapshot();
  return live.counter("mpio.collective_ops") +
         live.counter("mpio.independent_ops");
}

DrxFile::Options dbl_opts() {
  DrxFile::Options o;
  o.dtype = ElementType::kDouble;
  return o;
}

double cell_value(const Index& idx) {
  double v = 0;
  for (std::uint64_t x : idx) v = v * 1000 + static_cast<double>(x) + 1;
  return v;
}

std::size_t position(const Box& box, MemoryOrder order, const Index& idx) {
  Index rel(idx.size());
  for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
  return static_cast<std::size_t>(linearize(rel, box.shape(), order));
}

void fill_box(const Box& box, MemoryOrder order, std::span<double> buf,
              double sign = 1) {
  for_each_index(box, [&](const Index& idx) {
    buf[position(box, order, idx)] = sign * cell_value(idx);
  });
}

void check_box(const Box& box, MemoryOrder order,
               std::span<const double> buf) {
  for_each_index(box, [&](const Index& idx) {
    ASSERT_EQ(buf[position(box, order, idx)], cell_value(idx));
  });
}

/// Every rank reads its `box` in `order` through `read`; expects one
/// MPI-IO call per rank (none for an independent read of no chunks) and
/// the values write_my_zone wrote. The barriers keep the calls of one
/// read apart from the next.
template <typename Read>
void expect_one_call(simpi::Comm& comm, const Box& box, MemoryOrder order,
                     bool collective, Read read) {
  std::vector<double> out(static_cast<std::size_t>(box.volume()), -1);
  comm.barrier();
  const std::uint64_t before = mpio_calls();
  comm.barrier();
  EXPECT_TRUE(read(std::as_writable_bytes(std::span<double>(out))).is_ok());
  const std::uint64_t mine = collective || !box.empty() ? 1 : 0;
  std::uint64_t expected = 0;
  for (const std::uint64_t calls : comm.allgather_value(mine)) {
    expected += calls;
  }
  EXPECT_EQ(mpio_calls() - before, expected);
  comm.barrier();
  check_box(box, order, out);
}

/// Writes every rank's zone, then reads through each box-path front
/// door: read_my_zone of the rank's zone, read_box_all of the mirrored
/// rank's zone in column-major order, and read_box_independent of the
/// whole array.
void read_each_way(int p, const Shape& bounds, const Shape& chunk,
                   bool collective, const pfs::CostModel& cost) {
  pfs::Pfs fs(cfg(cost));
  simpi::run(p, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::create(comm, fs, "arr", bounds, chunk, dbl_opts());
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile f = std::move(fr).value();

    const Distribution dist = f.block_distribution();
    const Box zone = f.zone_element_box(dist, comm.rank());
    std::vector<double> buf(static_cast<std::size_t>(zone.volume()));
    fill_box(zone, MemoryOrder::kRowMajor, buf);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(buf)),
                                collective)
                    .is_ok());
    comm.barrier();

    expect_one_call(comm, zone, MemoryOrder::kRowMajor, collective,
                    [&](std::span<std::byte> out) {
                      return f.read_my_zone(dist, MemoryOrder::kRowMajor,
                                            out, collective);
                    });
    const Box mirror = f.zone_element_box(dist, p - 1 - comm.rank());
    expect_one_call(comm, mirror, MemoryOrder::kColMajor,
                    /*collective=*/true,
                    [&](std::span<std::byte> out) {
                      return f.read_box_all(mirror, MemoryOrder::kColMajor,
                                            out);
                    });
    const Box whole{Index(bounds.size(), 0), bounds};
    expect_one_call(comm, whole, MemoryOrder::kRowMajor,
                    /*collective=*/false,
                    [&](std::span<std::byte> out) {
                      return f.read_box_independent(
                          whole, MemoryOrder::kRowMajor, out);
                    });
    ASSERT_TRUE(f.close().is_ok());
  });
}

/// read_each_way at io threads 0 and 2, under the default cost model
/// (a seek is worth 740,910 B) and one whose seek is worth one chunk.
void expect_one_call_per_read(int p, const Shape& bounds, const Shape& chunk,
                              bool collective) {
  std::uint64_t chunk_bytes = sizeof(double);
  for (const std::uint64_t c : chunk) chunk_bytes *= c;
  for (const int threads : {0, 2}) {
    const IoThreads io(threads);
    for (const bool one_chunk_gap : {false, true}) {
      SCOPED_TRACE("io threads " + std::to_string(threads) +
                   (one_chunk_gap ? ", one-chunk sieve gap" : ""));
      read_each_way(p, bounds, chunk, collective,
                    one_chunk_gap ? rounds_of(1, chunk_bytes)
                                  : pfs::CostModel{});
    }
  }
}

TEST(DrxMpBoxPath, IndependentZoneReadIsOneCall) {
  expect_one_call_per_read(3, Shape{12, 10}, Shape{3, 2},
                           /*collective=*/false);
}

TEST(DrxMpBoxPath, CollectiveZoneReadIsOneCall) {
  expect_one_call_per_read(4, Shape{12, 10}, Shape{3, 2},
                           /*collective=*/true);
}

TEST(DrxMpBoxPath, UnevenZonesReadInOneCall) {
  // 5 chunk rows and 3 chunk columns over 4 ranks: zone chunk counts
  // differ per rank, and each rank still makes exactly one call.
  expect_one_call_per_read(4, Shape{10, 9}, Shape{2, 3},
                           /*collective=*/true);
  expect_one_call_per_read(4, Shape{10, 9}, Shape{2, 3},
                           /*collective=*/false);
}

TEST(DrxMpBoxPath, SingleRankAndSingleChunkEdges) {
  expect_one_call_per_read(1, Shape{6, 6}, Shape{2, 2}, /*collective=*/true);
  // One chunk over three ranks: two of them own nothing and still make
  // the collective calls.
  expect_one_call_per_read(3, Shape{2, 2}, Shape{2, 2}, /*collective=*/true);
  // A model whose requests cost nothing fixed has no sieve gap at all.
  const pfs::CostModel free_requests = rounds_of(0, 0);
  ASSERT_EQ(free_requests.sieve_gap_bytes(), 0u);
  const IoThreads io(2);
  read_each_way(1, Shape{6, 6}, Shape{2, 2}, /*collective=*/true,
                free_requests);
}

/// PFS read requests of one collective read_my_zone of E4's array
/// (bench_collective_io): 512x512 doubles in 16x16 chunks, BLOCK over
/// `p` ranks, on 8 servers with 64 KiB stripes.
std::uint64_t e4_zone_read_requests(int p) {
  pfs::PfsConfig c;
  c.num_servers = 8;
  c.stripe_size = 64 * 1024;
  pfs::Pfs fs(c);
  std::uint64_t requests = 0;
  simpi::run(p, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::create(comm, fs, "e4", Shape{512, 512},
                                Shape{16, 16}, dbl_opts());
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile f = std::move(fr).value();
    const Distribution dist = f.block_distribution();
    const Box zone = f.zone_element_box(dist, comm.rank());
    std::vector<double> buf(static_cast<std::size_t>(zone.volume()));
    fill_box(zone, MemoryOrder::kRowMajor, buf);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(buf)),
                                /*collective=*/true)
                    .is_ok());
    std::vector<double> out(buf.size(), -1);
    comm.barrier();
    const pfs::IoStats before = fs.total_stats();
    comm.barrier();
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)),
                               /*collective=*/true)
                    .is_ok());
    comm.barrier();
    if (comm.rank() == 0) {
      requests = fs.total_stats().read_requests - before.read_requests;
    }
    check_box(zone, MemoryOrder::kRowMajor, out);
    ASSERT_TRUE(f.close().is_ok());
  });
  return requests;
}

// E4's shape: one aggregator per server, one request each, so a
// collective zone read costs 8 requests at every P and io thread count.
TEST(DrxMpBoxPath, E4CollectiveZoneReadIsOneRequestPerServer) {
  for (const int threads : {0, 2}) {
    const IoThreads io(threads);
    for (const int p : {1, 2}) {
      SCOPED_TRACE("io threads " + std::to_string(threads) + ", P " +
                   std::to_string(p));
      EXPECT_EQ(e4_zone_read_requests(p), 8u);
    }
  }
}

// Each rank writes a box that covers none of its 10 chunks whole: the
// read-modify-write reads all of them in one independent call, and the
// array reads back element for element as written.
TEST(DrxMpBoxPath, PartlyCoveredChunksAreReadInOneCall) {
  const Shape bounds{12, 10};
  const Box whole{Index{0, 0}, bounds};
  for (const bool collective : {false, true}) {
    SCOPED_TRACE(collective ? "write_box_all" : "write_box_independent");
    pfs::Pfs fs(cfg());
    simpi::run(2, [&](simpi::Comm& comm) {
      auto fr = DrxMpFile::create(comm, fs, "rmw", bounds, Shape{3, 2},
                                  dbl_opts());
      ASSERT_TRUE(fr.is_ok()) << fr.status();
      DrxMpFile f = std::move(fr).value();
      std::vector<double> image(static_cast<std::size_t>(whole.volume()));
      fill_box(whole, MemoryOrder::kRowMajor, image);
      if (comm.rank() == 0) {
        ASSERT_TRUE(f.write_box_independent(
                         whole, MemoryOrder::kRowMajor,
                         std::as_bytes(std::span<const double>(image)))
                        .is_ok());
      }
      comm.barrier();

      // Rank r's box spans chunk rows 2r and 2r + 1 and all 5 chunk
      // columns, one element short of each chunk edge it touches.
      const std::uint64_t r = static_cast<std::uint64_t>(comm.rank());
      const Box box{Index{6 * r + 1, 1}, Index{6 * r + 5, 9}};
      std::vector<double> in(static_cast<std::size_t>(box.volume()));
      fill_box(box, MemoryOrder::kColMajor, in, /*sign=*/-1);
      const std::uint64_t independent = rank_counter("mpio.independent_ops");
      const std::uint64_t coll = rank_counter("mpio.collective_ops");
      const auto bytes = std::as_bytes(std::span<const double>(in));
      ASSERT_TRUE((collective
                       ? f.write_box_all(box, MemoryOrder::kColMajor, bytes)
                       : f.write_box_independent(box, MemoryOrder::kColMajor,
                                                 bytes))
                      .is_ok());
      // One independent read for the read-modify-write, then the write.
      EXPECT_EQ(rank_counter("mpio.independent_ops") - independent,
                collective ? 1u : 2u);
      EXPECT_EQ(rank_counter("mpio.collective_ops") - coll,
                collective ? 1u : 0u);
      comm.barrier();

      std::vector<double> out(image.size());
      ASSERT_TRUE(f.read_box_independent(
                       whole, MemoryOrder::kRowMajor,
                       std::as_writable_bytes(std::span<double>(out)))
                      .is_ok());
      for_each_index(whole, [&](const Index& idx) {
        const bool written = (idx[0] % 6) >= 1 && (idx[0] % 6) < 5 &&
                             idx[1] >= 1 && idx[1] < 9;
        ASSERT_EQ(out[position(whole, MemoryOrder::kRowMajor, idx)],
                  (written ? -1 : 1) * cell_value(idx))
            << idx[0] << "," << idx[1];
      });
      ASSERT_TRUE(f.close().is_ok());
    });
  }
}

}  // namespace
}  // namespace drx::core
