// Server-aligned two-phase aggregation: every PFS server belongs to one
// aggregator, which issues one request per locally contiguous run of the
// server's datafile, in ascending order. Swept over server counts, rank
// counts (including P > S and S not a multiple of P) and stripe sizes.
#include <gtest/gtest.h>

#include "io/config.hpp"
#include "mpio/file.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::mpio {
namespace {

using simpi::Comm;
using simpi::Datatype;

struct Grid {
  int servers;
  int ranks;
  std::uint64_t stripe;
};

std::vector<Grid> grid() {
  std::vector<Grid> g;
  for (const int s : {1, 3, 8}) {
    for (const int p : {1, 2, 4, 8, 16}) {
      for (const std::uint64_t stripe : {64u, 4096u}) {
        g.push_back(Grid{s, p, stripe});
      }
    }
  }
  return g;
}

pfs::PfsConfig cfg(const Grid& g) {
  pfs::PfsConfig c;
  c.num_servers = g.servers;
  c.stripe_size = g.stripe;
  return c;
}

std::string label(const Grid& g) {
  return "S=" + std::to_string(g.servers) + " P=" + std::to_string(g.ranks) +
         " stripe=" + std::to_string(g.stripe);
}

/// Byte `i` of the reference file image.
std::byte image_byte(std::uint64_t i) {
  return static_cast<std::byte>((i * 131 + (i >> 8) * 7 + 1) & 0xFF);
}

/// Round-robin cells of kCell bytes (rank r owns cells r, r+P, ...): the
/// cell size divides no stripe, so pieces straddle stripe and server
/// boundaries.
constexpr std::uint64_t kCell = 40;

std::uint64_t cells_per_rank(const Grid& g) {
  const std::uint64_t target =
      g.stripe * static_cast<std::uint64_t>(g.servers) * 3 + 17;
  const std::uint64_t per_round = kCell * static_cast<std::uint64_t>(g.ranks);
  return (target + per_round - 1) / per_round;
}

void set_cell_view(File& f, int owner, int ranks) {
  f.set_view(static_cast<std::uint64_t>(owner) * kCell, Datatype::bytes(1),
             Datatype::bytes(kCell).resized(
                 kCell * static_cast<std::uint64_t>(ranks)));
}

/// The bytes `owner` holds under the cell view, from the reference image.
std::vector<std::byte> cells_of(int owner, int ranks, std::uint64_t n) {
  std::vector<std::byte> out;
  out.reserve(n * kCell);
  for (std::uint64_t c = 0; c < n; ++c) {
    const std::uint64_t base =
        (c * static_cast<std::uint64_t>(ranks) +
         static_cast<std::uint64_t>(owner)) *
        kCell;
    for (std::uint64_t b = 0; b < kCell; ++b) {
      out.push_back(image_byte(base + b));
    }
  }
  return out;
}

TEST(ServerAligned, RoundTripMatchesIndependentPath) {
  for (const Grid& g : grid()) {
    SCOPED_TRACE(label(g));
    pfs::Pfs fs(cfg(g));
    const std::uint64_t n = cells_per_rank(g);
    simpi::run(g.ranks, [&](Comm& comm) {
      const int peer = (comm.rank() + 1) % comm.size();
      const auto mine = cells_of(comm.rank(), comm.size(), n);
      File coll = File::open(comm, fs, "c", kModeRdWr | kModeCreate).value();
      File indep = File::open(comm, fs, "i", kModeRdWr | kModeCreate).value();
      set_cell_view(coll, comm.rank(), comm.size());
      set_cell_view(indep, comm.rank(), comm.size());
      ASSERT_TRUE(coll.write_at_all(0, mine.data(), mine.size(),
                                    Datatype::bytes(1))
                      .is_ok());
      ASSERT_TRUE(
          indep.write_at(0, mine.data(), mine.size(), Datatype::bytes(1))
              .is_ok());
      comm.barrier();

      // Each rank reads its neighbour's cells: collectively from the
      // collective file, independently from the independent one.
      set_cell_view(coll, peer, comm.size());
      set_cell_view(indep, peer, comm.size());
      std::vector<std::byte> via_coll(mine.size());
      std::vector<std::byte> via_indep(mine.size());
      ASSERT_TRUE(coll.read_at_all(0, via_coll.data(), via_coll.size(),
                                   Datatype::bytes(1))
                      .is_ok());
      ASSERT_TRUE(indep.read_at(0, via_indep.data(), via_indep.size(),
                                Datatype::bytes(1))
                      .is_ok());
      EXPECT_EQ(via_coll, via_indep);
      EXPECT_EQ(via_coll, cells_of(peer, comm.size(), n));
      EXPECT_EQ(coll.get_size(), indep.get_size());
      ASSERT_TRUE(coll.close().is_ok());
      ASSERT_TRUE(indep.close().is_ok());
    });
  }
}

/// Per-server (write requests, read requests, seeks) deltas.
struct ServerCounts {
  std::vector<std::uint64_t> writes, reads, seeks;
  bool operator==(const ServerCounts&) const = default;
};

ServerCounts delta(const std::vector<pfs::IoStats>& before,
                   const std::vector<pfs::IoStats>& after) {
  ServerCounts c;
  for (std::size_t s = 0; s < after.size(); ++s) {
    const pfs::IoStats d = after[s] - before[s];
    c.writes.push_back(d.write_requests);
    c.reads.push_back(d.read_requests);
    c.seeks.push_back(d.seeks);
  }
  return c;
}

/// Every rank collectively writes one contiguous, stripe-unaligned block
/// of a fresh file; returns the per-server counts of that one call.
ServerCounts whole_file_write(const Grid& g, std::uint64_t* file_bytes) {
  pfs::Pfs fs(cfg(g));
  const std::uint64_t block =
      (g.stripe * static_cast<std::uint64_t>(g.servers) * 2 + 29) /
          static_cast<std::uint64_t>(g.ranks) +
      1;
  *file_bytes = block * static_cast<std::uint64_t>(g.ranks);
  std::vector<pfs::IoStats> before, after;
  simpi::run(g.ranks, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    const auto r = static_cast<std::uint64_t>(comm.rank());
    std::vector<std::byte> mine;
    for (std::uint64_t i = 0; i < block; ++i) {
      mine.push_back(image_byte(r * block + i));
    }
    comm.barrier();
    if (comm.rank() == 0) before = fs.server_stats();
    comm.barrier();
    ASSERT_TRUE(
        f.write_at_all(r * block, mine.data(), block, Datatype::bytes(1))
            .is_ok());
    if (comm.rank() == 0) after = fs.server_stats();
    EXPECT_EQ(f.get_size(), *file_bytes);
    ASSERT_TRUE(f.close().is_ok());
  });
  return delta(before, after);
}

TEST(ServerAligned, WholeFileWriteIsOneRequestPerServer) {
  for (const Grid& g : grid()) {
    SCOPED_TRACE(label(g));
    std::uint64_t file_bytes = 0;
    const ServerCounts c = whole_file_write(g, &file_bytes);
    for (std::size_t s = 0; s < c.writes.size(); ++s) {
      const bool holds_data = file_bytes > s * g.stripe;
      EXPECT_EQ(c.writes[s], holds_data ? 1u : 0u) << "server " << s;
      EXPECT_LE(c.seeks[s], 1u) << "server " << s;
    }
  }
}

/// Whole-file write, then a strided collective read of every other cell
/// under a cost model with no fixed request cost (sieve gap 0), so each
/// server serves many runs.
ServerCounts write_then_strided_read(const Grid& g) {
  pfs::PfsConfig c = cfg(g);
  c.cost.seek_us = 0;
  c.cost.request_overhead_us = 0;
  c.cost.network_latency_us = 0;
  pfs::Pfs fs(c);
  const std::uint64_t n = cells_per_rank(g);
  std::vector<pfs::IoStats> before;
  simpi::run(g.ranks, [&](Comm& comm) {
    if (comm.rank() == 0) before = fs.server_stats();
    comm.barrier();
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    set_cell_view(f, comm.rank(), comm.size());
    const auto mine = cells_of(comm.rank(), comm.size(), n);
    ASSERT_TRUE(
        f.write_at_all(0, mine.data(), mine.size(), Datatype::bytes(1))
            .is_ok());
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * kCell,
               Datatype::bytes(1),
               Datatype::bytes(kCell).resized(
                   2 * kCell * static_cast<std::uint64_t>(comm.size())));
    std::vector<std::byte> out((n + 1) / 2 * kCell);
    ASSERT_TRUE(
        f.read_at_all(0, out.data(), out.size(), Datatype::bytes(1)).is_ok());
    ASSERT_TRUE(f.close().is_ok());
  });
  return delta(before, fs.server_stats());
}

TEST(ServerAligned, FanOutKeepsPerServerRequestsAndSeeks) {
  for (const Grid& g : grid()) {
    SCOPED_TRACE(label(g));
    io::set_io_threads(0);
    const ServerCounts inline_counts = write_then_strided_read(g);
    io::set_io_threads(4);
    const ServerCounts fanned_counts = write_then_strided_read(g);
    EXPECT_EQ(inline_counts, fanned_counts);
  }
  io::set_io_threads(-1);
}

}  // namespace
}  // namespace drx::mpio
