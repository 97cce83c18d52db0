// Ablation A1 — data sieving in the two-phase collective read
// (DESIGN.md §4.2 supporting analysis). An aggregator reads across a hole
// of one server's datafile in the same request when the hole is narrower
// than the cost model's break-even gap (pfs::CostModel::sieve_gap_bytes:
// the hole's transfer costs less than the seek and request it saves),
// the same rule cache fills use (core::plan_reads).
//
// Workload: 4 ranks on 4 servers collectively read the first half of
// every stripe, with the stripe twice the swept hole size, so each
// server's datafile alternates a wanted cell and a hole of exactly that
// size (50% holes). Rank r reads stripe row r, so every server serves one
// cell of each rank: 4 cells and 3 holes per server.
// Expected shape: below the gap, one request per server and ~2x payload
// bytes (7 cell lengths read for 4 wanted); at and above it, one request
// per cell and payload bytes only. The plan taken is never the dearer one.
#include <vector>

#include "bench_util.hpp"
#include "mpio/file.hpp"
#include "simpi/runtime.hpp"
#include "util/checked.hpp"

using namespace drx;  // NOLINT: bench brevity
using simpi::Datatype;

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kServers = 4;
constexpr std::uint64_t kCellsPerServer = kRanks;

struct Sample {
  double read_us = 0;
  std::uint64_t requests = 0;
  std::uint64_t bytes_read = 0;
};

std::byte image_byte(std::uint64_t i) {
  return static_cast<std::byte>((i * 131 + (i >> 8) * 7) % 255 + 1);
}

Sample run(std::uint64_t hole) {
  pfs::PfsConfig c;
  c.num_servers = static_cast<int>(kServers);
  c.stripe_size = 2 * hole;
  pfs::Pfs fs(c);
  const std::uint64_t row = kServers * c.stripe_size;
  {
    // Only the wanted cells are written: the holes stay sparse.
    pfs::FileHandle h = fs.create("f").value();
    std::vector<std::byte> cell(checked_size(hole));
    for (std::uint64_t s = 0; s < kServers * kCellsPerServer; ++s) {
      const std::uint64_t off = s * c.stripe_size;
      for (std::uint64_t i = 0; i < hole; ++i) cell[i] = image_byte(off + i);
      DRX_CHECK(h.write_at(off, cell).is_ok());
    }
  }
  Sample sample;
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    auto f = mpio::File::open(comm, fs, "f", mpio::kModeRdOnly).value();
    const auto r = static_cast<std::uint64_t>(comm.rank());
    f.set_view(r * row, Datatype::bytes(1),
               Datatype::vector(kServers, 1, 2, Datatype::bytes(hole))
                   .resized(kRanks * row));
    std::vector<std::byte> buf(checked_size(kServers * hole));
    const bench::PfsPhase phase(fs, comm);
    DRX_CHECK(
        f.read_at_all(0, buf.data(), buf.size(), Datatype::bytes(1)).is_ok());
    for (std::uint64_t i = 0; i < buf.size(); ++i) {
      const std::uint64_t off = r * row + i / hole * c.stripe_size + i % hole;
      DRX_CHECK(buf[i] == image_byte(off));
    }
    comm.barrier();
    if (comm.rank() == 0) {
      sample.read_us = phase.elapsed_ms() * 1000.0;
      const pfs::IoStats delta = phase.delta();
      sample.requests = delta.read_requests;
      sample.bytes_read = delta.bytes_read;
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

/// Simulated us of one server's share of a plan, from the model's terms.
/// Every request seeks: the write leaves the head past the last cell, and
/// each next cell lies a hole away.
double plan_us(const pfs::CostModel& m, std::uint64_t requests,
               std::uint64_t bytes) {
  const double fixed = m.seek_us + m.request_overhead_us + m.network_latency_us;
  const double per_byte = m.disk_per_byte_us + m.network_per_byte_us;
  return static_cast<double>(requests) * fixed +
         static_cast<double>(bytes) * per_byte;
}

}  // namespace

int main() {
  const pfs::CostModel model;
  const std::uint64_t gap = model.sieve_gap_bytes();
  std::printf("A1 (ablation): data sieving in two-phase collective reads; "
              "4 ranks on 4 servers read every other cell (50%% holes)\n"
              "sieve gap (CostModel::sieve_gap_bytes, default model): "
              "%llu B\n\n",
              static_cast<unsigned long long>(gap));
  bench::Table table({"hole B", "plan taken", "requests", "MB read",
                      "payload MB", "sim us", "other plan sim us"});
  bool dearer = false;
  for (const std::uint64_t hole :
       {std::uint64_t{1} << 10, std::uint64_t{1} << 12, std::uint64_t{1} << 14,
        std::uint64_t{1} << 16, std::uint64_t{1} << 18, gap - 1, gap,
        std::uint64_t{1} << 20, std::uint64_t{1} << 21}) {
    const Sample s = run(hole);
    const bool sieved = s.requests == kServers;
    const double sieve_us =
        plan_us(model, 1, (2 * kCellsPerServer - 1) * hole);
    const double per_cell_us =
        plan_us(model, kCellsPerServer, kCellsPerServer * hole);
    const double other_us = sieved ? per_cell_us : sieve_us;
    dearer = dearer || s.read_us > other_us;
    table.add_row(
        {bench::strf("%llu", static_cast<unsigned long long>(hole)),
         sieved ? "sieve (1 request/server)" : "one request per cell",
         bench::strf("%llu", static_cast<unsigned long long>(s.requests)),
         bench::strf("%.3f", static_cast<double>(s.bytes_read) / 1e6),
         bench::strf("%.3f", static_cast<double>(kServers * kCellsPerServer *
                                                 hole) /
                                 1e6),
         bench::strf("%.3f", s.read_us), bench::strf("%.3f", other_us)});
  }
  table.print();
  bench::write_json_report("bench_sieve_ablation", table);
  std::printf("\nexpected shape: one request per server and ~2x payload "
              "bytes for holes under the gap, one request per cell at or "
              "above it; the plan taken is never the dearer one: %s\n",
              dearer ? "VIOLATED" : "holds");
  return dearer ? 1 : 0;
}
