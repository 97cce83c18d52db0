// Experiment E12 — DRX-MP vs a parallel-NetCDF-like record file (DESIGN.md
// §4.2; paper Sec. V promised comparison, and Sec. II-B: NetCDF extends in
// one dimension only).
//
// Workload, modeled on the climate scenario of the paper's introduction:
// a (time, lat, lon) double array, 4 ranks.
//   Phase 1 — append T time records and collectively write them
//             (the RECORD path: both formats simply append).
//   Phase 2 — grow the LATITUDE dimension by 25% and write the new band
//             (the non-record path: pNetCDF must redefine + copy every
//             record; DRX appends one segment).
// Expected shape: phase-1 costs DRX no more than pNetCDF (DRX's records
// reach each server in datafile order; pNetCDF also rewrites its header);
// phase-2 cost for pNetCDF scales with the whole dataset (and keeps
// growing if repeated), while DRX pays only for the new band.
#include <vector>

#include "baselines/pnetcdf_like.hpp"
#include "bench_util.hpp"
#include "core/drxmp.hpp"
#include "simpi/runtime.hpp"

using namespace drx;  // NOLINT: bench brevity
using core::Box;
using core::DrxFile;
using core::DrxMpFile;
using core::Index;
using core::MemoryOrder;
using core::Shape;

namespace {

constexpr int kRanks = 4;
constexpr std::uint64_t kLat = 64;
constexpr std::uint64_t kLon = 128;

pfs::PfsConfig cfg() {
  pfs::PfsConfig c;
  c.num_servers = 4;
  c.stripe_size = 64 * 1024;
  return c;
}

struct Sample {
  double append_ms = 0;
  double grow_ms = 0;
};

Sample run_drx(std::uint64_t steps) {
  pfs::Pfs fs(cfg());
  Sample sample;
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    auto f = DrxMpFile::create(comm, fs, "c", Shape{1, kLat, kLon},
                               Shape{1, kLat / kRanks, kLon}, options)
                 .value();
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const std::uint64_t band = kLat / kRanks;
    std::vector<double> slab(band * kLon, 1.0);
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      for (std::uint64_t t = 0; t < steps; ++t) {
        if (t > 0) DRX_CHECK(f.extend_all(0, 1).is_ok());
        const Box box{{t, r * band, 0}, {t + 1, (r + 1) * band, kLon}};
        DRX_CHECK(f.write_box_all(box, MemoryOrder::kRowMajor,
                                  std::as_bytes(std::span<const double>(slab)))
                      .is_ok());
      }
      comm.barrier();
      if (comm.rank() == 0) sample.append_ms = phase.elapsed_ms();
    }
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK(f.extend_all(1, kLat / 4).is_ok());
      // Rank 0 writes the new latitude band of every step.
      if (comm.rank() == 0) {
        const Box box{{0, kLat, 0}, {steps, kLat + kLat / 4, kLon}};
        std::vector<double> grown(
            static_cast<std::size_t>(box.volume()), 2.0);
        DRX_CHECK(
            f.write_box_all(box, MemoryOrder::kRowMajor,
                            std::as_bytes(std::span<const double>(grown)))
                .is_ok());
      } else {
        const Box none{Index(3, 0), Index(3, 0)};
        DRX_CHECK(f.write_box_all(none, MemoryOrder::kRowMajor, {}).is_ok());
      }
      comm.barrier();
      if (comm.rank() == 0) sample.grow_ms = phase.elapsed_ms();
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

Sample run_pnetcdf(std::uint64_t steps) {
  pfs::Pfs fs(cfg());
  Sample sample;
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    auto f = baselines::PnetcdfLikeFile::create(comm, fs, "c",
                                                Shape{1, kLat, kLon},
                                                sizeof(double))
                 .value();
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      std::vector<double> record(kLat * kLon, 1.0);
      for (std::uint64_t t = 0; t < steps; ++t) {
        if (t > 0) DRX_CHECK(f.append_records(1).is_ok());
        // Rank 0 writes the record, peers participate with zero records —
        // the simplest record decomposition pNetCDF programs use when the
        // record is produced by one writer per step.
        if (comm.rank() == 0) {
          DRX_CHECK(
              f.write_records_all(t, 1,
                                  std::as_bytes(
                                      std::span<const double>(record)))
                  .is_ok());
        } else {
          DRX_CHECK(f.write_records_all(t, 0, {}).is_ok());
        }
      }
      comm.barrier();
      if (comm.rank() == 0) sample.append_ms = phase.elapsed_ms();
    }
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      auto moved = f.redefine_grow(1, kLat / 4);
      DRX_CHECK(moved.is_ok());
      comm.barrier();
      if (comm.rank() == 0) sample.grow_ms = phase.elapsed_ms();
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

}  // namespace

int main() {
  std::printf("E12: (time, lat, lon) climate workload — DRX-MP vs "
              "pNetCDF-like record file, %d ranks, lat x lon = %llu x "
              "%llu doubles\n\n",
              kRanks, static_cast<unsigned long long>(kLat),
              static_cast<unsigned long long>(kLon));
  bench::Table table({"time steps", "drx append ms", "pnetcdf append ms",
                      "drx grow-lat ms", "pnetcdf grow-lat ms",
                      "grow ratio"});
  for (const std::uint64_t steps : {4u, 8u, 16u, 32u}) {
    const Sample a = run_drx(steps);
    const Sample b = run_pnetcdf(steps);
    table.add_row({bench::strf("%llu",
                               static_cast<unsigned long long>(steps)),
                   bench::strf("%.1f", a.append_ms),
                   bench::strf("%.1f", b.append_ms),
                   bench::strf("%.1f", a.grow_ms),
                   bench::strf("%.1f", b.grow_ms),
                   bench::strf("%.1fx", b.grow_ms / a.grow_ms)});
  }
  table.print();
  std::printf("\nexpected shape: record appends cost DRX no more than "
              "pNetCDF (both append; DRX's land in datafile order); growing "
              "latitude costs pNetCDF a copy of "
              "the WHOLE dataset — the ratio rises linearly with the "
              "number of accumulated time steps — while DRX's cost tracks "
              "only the new band.\n");
  return 0;
}
