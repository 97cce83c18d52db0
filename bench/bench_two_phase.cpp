// Experiment E5 — two-phase collective I/O vs independent I/O on
// interleaved (non-contiguous) access patterns (DESIGN.md §4.2; paper
// Sec. II-A: "The effect is that the linear ordering in memory direct
// accesses to disk that are random").
//
// Workload: P = 4 ranks write and read round-robin-interleaved cells
// through an MPI-IO file view (rank r owns every P-th cell). The cell
// size sweeps from fine to chunk-sized grains.
// Expected shape: for small cells independent I/O explodes in requests
// and seeks while two-phase stays flat at one request per server (each
// server's aggregator sees its whole datafile range); the gap narrows as
// cells grow, but two-phase still wins at chunk-sized cells because it
// never pays more seeks than the independent path.
#include <vector>

#include "bench_util.hpp"
#include "mpio/file.hpp"
#include "simpi/runtime.hpp"

using namespace drx;  // NOLINT: bench brevity
using simpi::Datatype;

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kTotalBytes = 8 * 1024 * 1024;

pfs::PfsConfig cfg() {
  pfs::PfsConfig c;
  c.num_servers = 4;
  c.stripe_size = 64 * 1024;
  return c;
}

struct Sample {
  double write_ms = 0, read_ms = 0;
  std::uint64_t write_reqs = 0, read_reqs = 0, seeks = 0;
};

Sample run(std::uint64_t cell_bytes, bool collective) {
  pfs::Pfs fs(cfg());
  Sample sample;
  const std::uint64_t cells_per_rank = kTotalBytes / kRanks / cell_bytes;
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    auto f = mpio::File::open(comm, fs, "f",
                              mpio::kModeRdWr | mpio::kModeCreate)
                 .value();
    auto ft = Datatype::bytes(cell_bytes).resized(cell_bytes * kRanks);
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * cell_bytes,
               Datatype::bytes(1), ft);
    std::vector<std::byte> mine(
        static_cast<std::size_t>(cells_per_rank * cell_bytes),
        static_cast<std::byte>(comm.rank() + 1));

    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK((collective
                     ? f.write_at_all(0, mine.data(), mine.size(),
                                      Datatype::bytes(1))
                     : f.write_at(0, mine.data(), mine.size(),
                                  Datatype::bytes(1)))
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) {
        sample.write_ms = phase.elapsed_ms();
        sample.write_reqs = phase.delta().write_requests;
      }
    }
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK((collective
                     ? f.read_at_all(0, mine.data(), mine.size(),
                                     Datatype::bytes(1))
                     : f.read_at(0, mine.data(), mine.size(),
                                 Datatype::bytes(1)))
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) {
        sample.read_ms = phase.elapsed_ms();
        const auto d = phase.delta();
        sample.read_reqs = d.read_requests;
        sample.seeks = d.seeks;
      }
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

}  // namespace

int main() {
  std::printf("E5: 4 ranks, round-robin interleaved cells over an 8 MB "
              "file (two-phase vs independent)\n\n");
  bench::Table table({"cell bytes", "mode", "write ms", "read ms",
                      "write reqs", "read reqs", "read seeks"});
  for (const std::uint64_t cell : {256u, 1024u, 4096u, 16384u, 65536u}) {
    for (const bool collective : {true, false}) {
      const Sample s = run(cell, collective);
      table.add_row(
          {bench::strf("%llu", static_cast<unsigned long long>(cell)),
           collective ? "two-phase" : "independent",
           bench::strf("%.1f", s.write_ms), bench::strf("%.1f", s.read_ms),
           bench::strf("%llu", static_cast<unsigned long long>(s.write_reqs)),
           bench::strf("%llu", static_cast<unsigned long long>(s.read_reqs)),
           bench::strf("%llu", static_cast<unsigned long long>(s.seeks))});
    }
  }
  table.print();
  bench::write_json_report("bench_two_phase", table);
  std::printf("\nexpected shape: independent cost explodes as cells shrink "
              "(requests ~ 1/cell); two-phase stays flat at one request "
              "per server and wins at every cell size.\n");
  return 0;
}
