// Ablation A1 — data-sieving gap in the two-phase collective read
// (DESIGN.md §4.2 supporting analysis; the design choice in
// mpio::transfer_collective of reading across small holes in one device
// access instead of issuing one access per requested piece).
//
// Workload: 4 ranks collectively read every other cell of a file (50%
// density holes) through a strided view, sweeping the sieve gap from 0
// (no sieving: one access per piece) upward.
// Expected shape: with the gap below the hole size the aggregator issues
// per-piece requests and pays per-request overhead; once the gap covers
// the hole, runs coalesce to one request per server (sieving stays inside
// one server's datafile), and time drops to the sequential-scan floor —
// at the cost of reading ~2x the payload bytes.
#include <vector>

#include "bench_util.hpp"
#include "util/checked.hpp"
#include "mpio/file.hpp"
#include "simpi/runtime.hpp"

using namespace drx;  // NOLINT: bench brevity
using simpi::Datatype;

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kCell = 1024;
constexpr std::uint64_t kCellsPerRank = 512;

struct Sample {
  double read_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t bytes_read = 0;
};

Sample run(std::uint64_t gap) {
  mpio::set_read_sieve_gap(gap);
  pfs::PfsConfig c;
  c.num_servers = 4;
  c.stripe_size = 64 * 1024;
  pfs::Pfs fs(c);
  Sample sample;
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    auto f = mpio::File::open(comm, fs, "f",
                              mpio::kModeRdWr | mpio::kModeCreate)
                 .value();
    // Lay down a dense file first.
    const std::uint64_t total =
        kCell * kCellsPerRank * kRanks * 2;  // x2: half will be holes
    if (comm.rank() == 0) {
      std::vector<std::byte> dense(checked_size(total), std::byte{1});
      DRX_CHECK(
          f.write_at(0, dense.data(), total, Datatype::bytes(1)).is_ok());
    }
    comm.barrier();

    // View: rank r sees cell 2*(kRanks*i + r) — every other cell globally,
    // ranks interleaved (holes of kCell bytes between consecutive pieces).
    auto ft = Datatype::bytes(kCell).resized(kCell * 2 * kRanks);
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * kCell * 2,
               Datatype::bytes(1), ft);
    std::vector<std::byte> buf(checked_size(kCell * kCellsPerRank));
    comm.barrier();
    const bench::PfsPhase phase(fs, comm);
    DRX_CHECK(
        f.read_at_all(0, buf.data(), buf.size(), Datatype::bytes(1)).is_ok());
    comm.barrier();
    if (comm.rank() == 0) {
      sample.read_ms = phase.elapsed_ms();
      const pfs::IoStats delta = phase.delta();
      sample.requests = delta.read_requests;
      sample.bytes_read = delta.bytes_read;
    }
    DRX_CHECK(f.close().is_ok());
  });
  mpio::set_read_sieve_gap(64 * 1024);  // restore default
  return sample;
}

}  // namespace

int main() {
  std::printf("A1 (ablation): data-sieving gap in two-phase collective "
              "reads; 4 ranks read every other 1 KiB cell (50%% holes)\n\n");
  bench::Table table({"sieve gap", "read ms", "requests", "MB read",
                      "payload MB"});
  const double payload_mb =
      static_cast<double>(kCell * kCellsPerRank * kRanks) / 1e6;
  for (const std::uint64_t gap :
       {0ull, 256ull, 1024ull, 4096ull, 65536ull, 1048576ull}) {
    const Sample s = run(gap);
    table.add_row(
        {gap == 0 ? "0 (no sieving)"
                  : bench::strf("%llu", static_cast<unsigned long long>(gap)),
         bench::strf("%.1f", s.read_ms),
         bench::strf("%llu", static_cast<unsigned long long>(s.requests)),
         bench::strf("%.2f", static_cast<double>(s.bytes_read) / 1e6),
         bench::strf("%.2f", payload_mb)});
  }
  table.print();
  std::printf("\nexpected shape: requests collapse to one per server and "
              "time drops once the gap reaches the hole size (1 KiB); the "
              "price is ~2x payload bytes read — the canonical sieving "
              "trade.\n");
  return 0;
}
