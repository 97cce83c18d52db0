// Experiment E4 — collective zone I/O scaling with process count
// (DESIGN.md §4.2; paper Sec. II/IV: zones are read and written with
// collective MPI-IO over the parallel file system).
//
// Workload: a fixed 512x512 array of doubles (16x16-element chunks) is
// BLOCK-distributed over P processes; every process reads and then writes
// its zone, collectively and independently. The PFS has 8 servers.
// Expected shape: collective cost is flat in P. Each server belongs to one
// aggregator, which issues one request per call with at most one seek, so
// the call costs the same as one rank streaming the file. Independent
// access grows with P: zones interleave in file space, so every rank's
// requests land on every server in an order thread scheduling decides.
#include <vector>

#include "bench_util.hpp"
#include "codec/codec.hpp"
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
  double read_ms = 0, write_ms = 0;
  std::uint64_t requests = 0, seeks = 0;
};

Sample run(int nprocs, bool collective) {
  pfs::Pfs fs(cfg());
  Sample sample;
  simpi::run(nprocs, [&](simpi::Comm& comm) {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    auto f = DrxMpFile::create(comm, fs, "a", Shape{512, 512},
                               Shape{16, 16}, options)
                 .value();
    const Distribution dist = f.block_distribution();
    const Box zone = f.zone_element_box(dist, comm.rank());
    std::vector<double> buf(static_cast<std::size_t>(zone.volume()), 1.5);

    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(buf)),
                                collective)
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) {
        sample.write_ms = phase.elapsed_ms();
      }
    }
    comm.barrier();
    {
      bench::PfsPhase phase(fs, comm);
      DRX_CHECK(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(buf)),
                               collective)
                    .is_ok());
      comm.barrier();
      if (comm.rank() == 0) {
        sample.read_ms = phase.elapsed_ms();
        const auto d = phase.delta();
        sample.requests = d.read_requests;
        sample.seeks = d.seeks;
      }
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

// ---- compressed collective read (docs/COMPRESSION.md) ----------------------
//
// DRX-MP serves compressed arrays read-only: the file view is built from
// the per-chunk slot table, so each rank's collective read moves the
// stored bytes, not the logical ones. The array is pre-created with the
// serial writer straight onto the striped PFS (the production handoff:
// one writer compresses, many readers scan).

struct CompressedSample {
  double read_ms = 0;
  double pfs_mb = 0;     ///< bytes actually read off the servers
  double eff_mbps = 0;   ///< logical zone bytes / elapsed
};

CompressedSample run_compressed_read(int nprocs, bool compressed) {
  pfs::Pfs fs(cfg());
  {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    options.codec =
        compressed ? drx::codec::CodecId::kRle : drx::codec::CodecId::kNone;
    auto meta_h = fs.create("c.xmd", /*overwrite=*/true);
    auto data_h = fs.create("c.xta", /*overwrite=*/true);
    DRX_CHECK(meta_h.is_ok() && data_h.is_ok());
    auto f = DrxFile::create(
        std::make_unique<pfs::PfsStorage>(std::move(meta_h).value()),
        std::make_unique<pfs::PfsStorage>(std::move(data_h).value()),
        Shape{512, 512}, Shape{16, 16}, options);
    DRX_CHECK(f.is_ok());
    std::vector<double> image(512 * 512);
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = static_cast<double>(i / 512);  // row-constant: compressible
    }
    DRX_CHECK(f.value()
                  .write_box(Box{{0, 0}, {512, 512}}, MemoryOrder::kRowMajor,
                             std::as_bytes(std::span<const double>(image)))
                  .is_ok());
    DRX_CHECK(f.value().flush().is_ok());
  }

  CompressedSample sample;
  simpi::run(nprocs, [&](simpi::Comm& comm) {
    auto f = DrxMpFile::open(comm, fs, "c").value();
    const Distribution dist = f.block_distribution();
    const Box zone = f.zone_element_box(dist, comm.rank());
    std::vector<double> buf(static_cast<std::size_t>(zone.volume()));

    comm.barrier();
    bench::PfsPhase phase(fs, comm);
    DRX_CHECK(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                             std::as_writable_bytes(std::span<double>(buf)),
                             /*collective=*/true)
                  .is_ok());
    comm.barrier();
    if (comm.rank() == 0) {
      sample.read_ms = phase.elapsed_ms();
      const auto d = phase.delta();
      sample.pfs_mb = static_cast<double>(d.bytes_read) / 1e6;
      const double logical_mb = 512.0 * 512.0 * 8.0 / 1e6;
      sample.eff_mbps =
          sample.read_ms > 0 ? logical_mb / (sample.read_ms / 1000.0) : 0.0;
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

}  // namespace

int main() {
  std::printf("E4: BLOCK zone read+write of a 512x512 double array, 8 PFS "
              "servers\n\n");
  bench::Table table({"P", "mode", "read ms", "write ms", "read reqs",
                      "read seeks"});
  for (const int p : {1, 2, 4, 8, 16}) {
    for (const bool collective : {true, false}) {
      const Sample s = run(p, collective);
      table.add_row({bench::strf("%d", p),
                     collective ? "collective" : "independent",
                     bench::strf("%.1f", s.read_ms),
                     bench::strf("%.1f", s.write_ms),
                     bench::strf("%llu",
                                 static_cast<unsigned long long>(s.requests)),
                     bench::strf("%llu",
                                 static_cast<unsigned long long>(s.seeks))});
    }
  }
  table.print();
  bench::write_json_report("bench_collective_io", table);

  std::printf("\ncompressed collective read: serially pre-compressed "
              "512x512 double array (per-chunk RLE), BLOCK zones read "
              "collectively via the slot-table file view\n\n");
  bench::Table ctable({"P", "mode", "read ms", "PFS MB", "eff MB/s",
                       "MB saved"});
  for (const int p : {1, 4, 8}) {
    const CompressedSample raw = run_compressed_read(p, /*compressed=*/false);
    const CompressedSample rle = run_compressed_read(p, /*compressed=*/true);
    // "P=1" (not bare "1"): the regression checker keys rows by their
    // leading non-numeric cells, so the label must not parse as a number.
    ctable.add_row({bench::strf("P=%d", p), "raw",
                    bench::strf("%.1f", raw.read_ms),
                    bench::strf("%.2f", raw.pfs_mb),
                    bench::strf("%.1f", raw.eff_mbps), ""});
    ctable.add_row({bench::strf("P=%d", p), "rle",
                    bench::strf("%.1f", rle.read_ms),
                    bench::strf("%.2f", rle.pfs_mb),
                    bench::strf("%.1f", rle.eff_mbps),
                    bench::strf("%.2f", raw.pfs_mb - rle.pfs_mb)});
  }
  ctable.print();
  bench::write_json_report("bench_collective_io_compression", ctable);
  std::printf("\nexpected shape: collective is flat in P (one request "
              "and at most one seek per server per call) and never above "
              "independent, which grows with P as zones interleave at "
              "every server; compressed reads beat raw at every P.\n");
  return 0;
}
