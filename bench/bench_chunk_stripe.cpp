// Experiment E6 — chunk size vs PFS stripe size (DESIGN.md §4.2; paper
// Sec. V future work: "Optimizing the access by reconciling the chunk
// size with the strip size of the parallel file system for optimal chunk
// accesses").
//
// Workload: 4 ranks independently read a SCATTERED chunk sample — every
// other chunk of their zone, checkerboard-style, the access pattern of a
// strided sub-array query. Scattered chunk reads cannot be coalesced, so
// each chunk access pays real per-request and striping costs:
//   - chunks much smaller than a stripe: many tiny requests, overhead-bound;
//   - chunk bytes ≈ a small multiple of the stripe: each chunk is one or
//     two whole-stripe requests — the sweet spot;
//   - chunks much larger than the stripe: each chunk fans out over every
//     server (requests = chunk/stripe), per-request overhead returns.
// We report simulated time per MB transferred and requests per chunk.
#include <vector>

#include "bench_util.hpp"
#include "core/drxmp.hpp"
#include "simpi/runtime.hpp"

using namespace drx;  // NOLINT: bench brevity
using core::Distribution;
using core::DrxFile;
using core::DrxMpFile;
using core::Index;
using core::MemoryOrder;
using core::Shape;

namespace {

struct Sample {
  double ms_per_mb = 0;
  double requests_per_chunk = 0;
};

Sample run(std::uint64_t chunk_side, std::uint64_t stripe) {
  pfs::PfsConfig c;
  c.num_servers = 8;
  c.stripe_size = stripe;
  pfs::Pfs fs(c);
  Sample sample;
  simpi::run(4, [&](simpi::Comm& comm) {
    DrxFile::Options options;
    options.dtype = core::ElementType::kDouble;
    auto f = DrxMpFile::create(comm, fs, "a", Shape{1024, 1024},
                               Shape{chunk_side, chunk_side}, options)
                 .value();
    const Distribution dist = f.block_distribution();
    // Checkerboard sample of my zone's chunks.
    std::vector<Index> sample_chunks;
    for (const auto& z : dist.zones_of(comm.rank())) {
      core::for_each_index(z, [&](const Index& idx) {
        if ((idx[0] + idx[1]) % 2 == 0) sample_chunks.push_back(idx);
      });
    }
    std::vector<std::byte> staging(checked_size(
        checked_mul(sample_chunks.size(), f.chunk_bytes())));
    comm.barrier();
    const bench::PfsPhase phase(fs, comm);
    DRX_CHECK(
        f.read_chunks(sample_chunks, staging, /*collective=*/false).is_ok());
    comm.barrier();
    if (comm.rank() == 0) {
      const double ms = phase.elapsed_ms();
      const pfs::IoStats delta = phase.delta();
      const double mb = static_cast<double>(delta.bytes_read) / 1e6;
      // All 4 ranks sample half the grid in total.
      const double total_chunks =
          static_cast<double>((1024 / chunk_side) * (1024 / chunk_side)) / 2.0;
      sample.ms_per_mb = mb > 0 ? ms / mb : 0;
      sample.requests_per_chunk =
          static_cast<double>(delta.read_requests) / total_chunks;
    }
    DRX_CHECK(f.close().is_ok());
  });
  return sample;
}

}  // namespace

int main() {
  std::printf("E6: independent scattered (checkerboard) chunk reads of a "
              "1024x1024 double array, 8 servers\n");
  std::printf("cells: simulated ms per MB (requests per chunk)\n\n");
  const std::vector<std::uint64_t> chunk_sides = {8, 16, 32, 64, 128, 256};
  const std::vector<std::uint64_t> stripes = {4096, 16384, 65536, 262144};

  std::vector<std::string> headers = {"chunk (bytes)"};
  for (std::uint64_t s : stripes) {
    headers.push_back(bench::strf("stripe %lluK",
                                  static_cast<unsigned long long>(s >> 10)));
  }
  bench::Table table(headers);
  for (std::uint64_t side : chunk_sides) {
    std::vector<std::string> row = {
        bench::strf("%llu (%lluK)", static_cast<unsigned long long>(side),
                    static_cast<unsigned long long>(side * side * 8 >> 10))};
    for (std::uint64_t stripe : stripes) {
      const Sample s = run(side, stripe);
      row.push_back(
          bench::strf("%.1f (%.1f)", s.ms_per_mb, s.requests_per_chunk));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nexpected shape: cost per MB is minimized where chunk bytes "
              "are within ~1-4x of the stripe size; far smaller chunks are "
              "overhead-bound, far larger ones fan every chunk out over all "
              "servers.\n");
  return 0;
}
