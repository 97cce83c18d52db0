// Experiment E13 — throughput scaling with PFS I/O server count (the
// cluster-track axis: the paper's testbed is PVFS2, whose throughput
// comes from striping over data servers).
//
// Workload: 8 ranks collectively read the whole 1024x1024 double array
// (BLOCK zones) while the number of simulated I/O servers sweeps 1..16.
// Expected shape: simulated time ~ 1/servers while bandwidth-bound,
// flattening once per-request overheads and the fixed seek floor
// dominate — the standard striping speedup curve. Each server gets one
// request per phase from its own aggregator, so the curve is monotonic.
#include <vector>

#include "bench_util.hpp"
#include "core/drxmp.hpp"
#include "simpi/runtime.hpp"

using namespace drx;  // NOLINT: bench brevity
using core::Box;
using core::Distribution;
using core::DrxFile;
using core::DrxMpFile;
using core::MemoryOrder;
using core::Shape;

namespace {

struct Sample {
  double read_ms = 0;
  double write_ms = 0;
};

Sample run(int servers) {
  pfs::PfsConfig c;
  c.num_servers = servers;
  c.stripe_size = 64 * 1024;
  pfs::Pfs fs(c);
  Sample sample;
  simpi::run(8, [&](simpi::Comm& comm) {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    auto f = DrxMpFile::create(comm, fs, "a", Shape{1024, 1024},
                               Shape{32, 32}, options)
                 .value();
    const Distribution dist = f.block_distribution();
    const Box zone = f.zone_element_box(dist, comm.rank());
    std::vector<double> buf(static_cast<std::size_t>(zone.volume()), 1.0);
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(buf)))
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) sample.write_ms = phase.elapsed_ms();
    }
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(buf)))
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) sample.read_ms = phase.elapsed_ms();
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

}  // namespace

int main() {
  std::printf("E13: collective whole-array read+write (8 MB of doubles, 8 "
              "ranks) vs number of PFS I/O servers\n\n");
  bench::Table table({"servers", "read ms", "write ms", "read speedup"});
  double base_read = 0;
  for (const int s : {1, 2, 4, 8, 16}) {
    const Sample sample = run(s);
    if (s == 1) base_read = sample.read_ms;
    table.add_row({bench::strf("%d", s), bench::strf("%.1f", sample.read_ms),
                   bench::strf("%.1f", sample.write_ms),
                   bench::strf("%.2fx", base_read / sample.read_ms)});
  }
  table.print();
  std::printf("\nexpected shape: speedup grows monotonically with server "
              "count (each server: one request and one seek per phase), "
              "sublinear because the per-call seek and request overhead "
              "do not shrink with the bytes per server.\n");
  return 0;
}
