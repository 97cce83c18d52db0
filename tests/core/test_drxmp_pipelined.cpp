// Round-pipelined zone reads (docs/ASYNC_IO.md): when the async I/O
// engine is enabled, DrxMpFile::read_my_zone overlaps the storage read
// of batch r+1 with the scatter of batch r, each round as many chunks as
// one seek is worth in transfer under the file system's cost model. These
// tests flip the global io config on, vary the cost model to vary the
// round size, check bit-exact equivalence with the synchronous path, and
// restore the config so sibling tests keep legacy semantics.
#include "core/drxmp.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"

namespace drx::core {
namespace {

/// Flips the async engine on for one test, restoring the env-derived
/// default on scope exit (other tests rely on synchronous semantics).
class AsyncIoOn {
 public:
  explicit AsyncIoOn(int threads) { io::set_io_threads(threads); }
  ~AsyncIoOn() { io::set_io_threads(-1); }
  AsyncIoOn(const AsyncIoOn&) = delete;
  AsyncIoOn& operator=(const AsyncIoOn&) = delete;
};

/// A cost model that values one seek at `chunks` chunks of `chunk_bytes`
/// in transfer, so a pipelined zone read takes that many per round.
pfs::CostModel rounds_of(std::uint64_t chunks, std::uint64_t chunk_bytes) {
  pfs::CostModel m;
  m.seek_us = static_cast<double>(chunks * chunk_bytes);
  m.request_overhead_us = 0;
  m.network_latency_us = 0;
  m.disk_per_byte_us = 1;
  m.network_per_byte_us = 0;
  return m;
}

/// The default model values a seek at 740,910 B: one round per zone here.
pfs::PfsConfig cfg(const pfs::CostModel& cost = pfs::CostModel{}) {
  pfs::PfsConfig c;
  c.num_servers = 4;
  c.stripe_size = 256;
  c.cost = cost;
  return c;
}

/// MPI-IO calls (collective and independent) the process made so far.
std::uint64_t mpio_calls() {
  obs::Registry& reg = obs::process_registry();
  return reg.counter(obs::counter_id("mpio.collective_ops")).value() +
         reg.counter(obs::counter_id("mpio.independent_ops")).value();
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

void fill_zone(const Box& box, MemoryOrder order, std::span<double> buf) {
  const Shape shape = box.shape();
  for_each_index(box, [&](const Index& idx) {
    Index rel(idx.size());
    for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
    buf[static_cast<std::size_t>(linearize(rel, shape, order))] =
        cell_value(idx);
  });
}

void check_zone(const Box& box, MemoryOrder order,
                std::span<const double> buf) {
  const Shape shape = box.shape();
  for_each_index(box, [&](const Index& idx) {
    ASSERT_EQ(buf[static_cast<std::size_t>(linearize(
                  [&] {
                    Index rel(idx.size());
                    for (std::size_t d = 0; d < idx.size(); ++d) {
                      rel[d] = idx[d] - box.lo[d];
                    }
                    return rel;
                  }(),
                  shape, order))],
              cell_value(idx));
  });
}

/// Writes every rank's zone, reads it back through read_my_zone and
/// checks it; returns the MPI-IO calls both took.
std::uint64_t write_then_read(int p, Shape bounds, Shape chunk,
                              bool collective,
                              const pfs::CostModel& cost = pfs::CostModel{}) {
  const std::uint64_t calls_before = mpio_calls();
  pfs::Pfs fs(cfg(cost));
  simpi::run(p, [&](simpi::Comm& comm) {
    auto fr =
        DrxMpFile::create(comm, fs, "arr", bounds, chunk, dbl_opts());
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile f = std::move(fr).value();

    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)),
                                collective)
                    .is_ok());
    comm.barrier();

    std::vector<double> out(zone.size(), -1);
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)),
                               collective)
                    .is_ok());
    check_zone(box, MemoryOrder::kRowMajor, out);
    ASSERT_TRUE(f.close().is_ok());
  });
  return mpio_calls() - calls_before;
}

/// Runs write_then_read with rounds of `chunks` chunks of 8-byte
/// elements and expects more MPI-IO calls than with one round per zone.
void expect_rounds(int p, Shape bounds, Shape chunk, bool collective,
                   std::uint64_t chunks) {
  std::uint64_t chunk_bytes = sizeof(double);
  for (const std::uint64_t c : chunk) chunk_bytes *= c;
  const std::uint64_t one_round = write_then_read(p, bounds, chunk, collective);
  const std::uint64_t several = write_then_read(
      p, bounds, chunk, collective, rounds_of(chunks, chunk_bytes));
  EXPECT_GT(several, one_round);
}

TEST(DrxMpPipelined, IndependentReadMatchesSynchronous) {
  AsyncIoOn io(2);
  expect_rounds(3, Shape{12, 10}, Shape{3, 2}, /*collective=*/false, 2);
}

TEST(DrxMpPipelined, CollectiveReadMatchesSynchronous) {
  AsyncIoOn io(2);
  expect_rounds(4, Shape{12, 10}, Shape{3, 2}, /*collective=*/true, 2);
}

TEST(DrxMpPipelined, CollectiveUnevenZonesAgreeOnRoundCount) {
  AsyncIoOn io(2);
  // 5 chunk columns across 4 ranks: zone chunk counts differ per rank,
  // so ranks must locally agree on the max round count or the
  // collective read_chunks calls deadlock.
  expect_rounds(4, Shape{10, 9}, Shape{2, 3}, /*collective=*/true, 2);
}

TEST(DrxMpPipelined, BatchLargerThanZoneIsOneRound) {
  std::uint64_t inline_calls = 0;
  {
    AsyncIoOn io(0);
    inline_calls =
        write_then_read(2, Shape{8, 8}, Shape{2, 2}, /*collective=*/true);
  }
  AsyncIoOn io(2);  // the default model: 740,910 B per round
  EXPECT_EQ(write_then_read(2, Shape{8, 8}, Shape{2, 2}, /*collective=*/true),
            inline_calls);
}

TEST(DrxMpPipelined, SingleRankAndSingleChunkEdges) {
  AsyncIoOn io(1);
  // One-chunk rounds, the maximal round count. A model whose requests
  // cost nothing fixed has no sieve gap and still reads one per round.
  pfs::CostModel free_requests = rounds_of(0, 0);
  ASSERT_EQ(free_requests.sieve_gap_bytes(), 0u);
  expect_rounds(1, Shape{6, 6}, Shape{2, 2}, /*collective=*/true, 1);
  write_then_read(1, Shape{6, 6}, Shape{2, 2}, /*collective=*/true,
                  free_requests);
  write_then_read(3, Shape{2, 2}, Shape{2, 2}, /*collective=*/true,
                  rounds_of(1, 32));
}

}  // namespace
}  // namespace drx::core
