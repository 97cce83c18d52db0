// Experiment E9 — DRX-MP vs a DRA-like fixed array (DESIGN.md §4.2; paper
// Sec. II-A: "The functionalities of DRX-MP subsumes those of the Disk
// Residents Array (DRA)").
//
// Workload: identical BLOCK zone write+read of a 512x512 double array
// through DRX-MP (axial mapping, extendible) and through the DRA-like
// fixed row-major chunk layout. No extensions are performed, so any gap
// is pure overhead of extendibility.
// Expected shape: overhead ratio ~1.0x — the axial mapping costs CPU
// arithmetic, not I/O.
#include <vector>

#include "baselines/dra_like.hpp"
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

pfs::PfsConfig cfg() {
  pfs::PfsConfig c;
  c.num_servers = 8;
  c.stripe_size = 64 * 1024;
  return c;
}

struct Sample {
  double write_ms = 0, read_ms = 0;
};

Sample run_drx(int nprocs, std::uint64_t n, std::uint64_t chunk) {
  pfs::Pfs fs(cfg());
  Sample sample;
  simpi::run(nprocs, [&](simpi::Comm& comm) {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    auto f = DrxMpFile::create(comm, fs, "a", Shape{n, n},
                               Shape{chunk, chunk}, options)
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

Sample run_dra(int nprocs, std::uint64_t n, std::uint64_t chunk) {
  pfs::Pfs fs(cfg());
  Sample sample;
  simpi::run(nprocs, [&](simpi::Comm& comm) {
    auto f = baselines::DraLikeFile::create(comm, fs, "a", Shape{n, n},
                                            Shape{chunk, chunk},
                                            sizeof(double))
                 .value();
    const auto dist = f.block_distribution(comm.size());
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
  std::printf("E9: identical BLOCK zone write+read, DRX-MP (extendible) vs "
              "DRA-like (fixed), 512x512 doubles, 16x16 chunks\n\n");
  bench::Table table({"P", "drx write ms", "dra write ms", "drx read ms",
                      "dra read ms", "overhead"});
  for (const int p : {1, 2, 4, 8}) {
    const Sample a = run_drx(p, 512, 16);
    const Sample b = run_dra(p, 512, 16);
    table.add_row({bench::strf("%d", p), bench::strf("%.1f", a.write_ms),
                   bench::strf("%.1f", b.write_ms),
                   bench::strf("%.1f", a.read_ms),
                   bench::strf("%.1f", b.read_ms),
                   bench::strf("%.2fx", (a.read_ms + a.write_ms) /
                                            (b.read_ms + b.write_ms))});
  }
  table.print();
  std::printf("\nexpected shape: overhead ~1.0x at every P — extendibility "
              "costs metadata arithmetic, not I/O.\n");
  return 0;
}
