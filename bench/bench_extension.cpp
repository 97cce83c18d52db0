// Experiment E1 — extension without reorganization (DESIGN.md §4.2).
//
// Claim (paper Sec. I): conventional array files limit expansion to one
// dimension; expanding any other dimension requires a storage
// reorganization "that can be very expensive". DRX appends a segment and
// never moves stored data; an HDF5-like B-tree chunk store also avoids
// data movement but pays per-chunk index maintenance.
//
// Workload: a 2-D array of doubles grows along the NON-major dimension in
// S equal steps. We report total payload bytes moved and simulated time
// (DRX: its .xta and .xmd; the .xta grows by truncate and moves nothing).
// Expected shape: row-major cost grows quadratically with S (each step
// rewrites the whole file); DRX and B-tree stay linear, with DRX cheaper
// than the B-tree (no index pages).
#include <memory>
#include <vector>

#include "baselines/btree_chunk_store.hpp"
#include "baselines/rowmajor_file.hpp"
#include "bench_util.hpp"
#include "core/drx_file.hpp"

using namespace drx;  // NOLINT: bench brevity
using core::Box;
using core::DrxFile;
using core::Index;
using core::MemoryOrder;
using core::Shape;

namespace {

struct Cost {
  std::uint64_t bytes = 0;
  double ms = 0;
};

Cost run_drx(std::uint64_t rows, std::uint64_t cols0, std::uint64_t steps,
             std::uint64_t delta) {
  DrxFile::Options options;
  options.dtype = core::ElementType::kDouble;
  auto meta = std::make_unique<pfs::MemStorage>();
  auto data = std::make_unique<pfs::MemStorage>();
  pfs::MemStorage* raw_meta = meta.get();
  pfs::MemStorage* raw = data.get();
  auto f = DrxFile::create(std::move(meta), std::move(data),
                           Shape{rows, cols0}, Shape{16, 16}, options);
  DRX_CHECK(f.is_ok());
  // Both files count, as the B-tree's index pages do: an extension grows
  // the .xta by truncate (no bytes) and commits the .xmd.
  const auto before = raw->stats();
  const auto meta_before = raw_meta->stats();
  for (std::uint64_t s = 0; s < steps; ++s) {
    DRX_CHECK(f.value().extend(1, delta).is_ok());
  }
  const auto d = raw->stats() - before;
  const auto m = raw_meta->stats() - meta_before;
  return Cost{d.bytes_written + d.bytes_read + m.bytes_written + m.bytes_read,
              (d.busy_us + m.busy_us) / 1000.0};
}

Cost run_rowmajor(std::uint64_t rows, std::uint64_t cols0,
                  std::uint64_t steps, std::uint64_t delta) {
  auto storage = std::make_unique<pfs::MemStorage>();
  pfs::MemStorage* raw = storage.get();
  auto f = baselines::RowMajorFile::create(std::move(storage),
                                           Shape{rows, cols0}, 8);
  DRX_CHECK(f.is_ok());
  const auto before = raw->stats();
  for (std::uint64_t s = 0; s < steps; ++s) {
    DRX_CHECK(f.value().extend(1, delta).is_ok());
  }
  const auto d = raw->stats() - before;
  return Cost{d.bytes_written + d.bytes_read, d.busy_us / 1000.0};
}

Cost run_btree(std::uint64_t rows, std::uint64_t cols0, std::uint64_t steps,
               std::uint64_t delta) {
  auto storage = std::make_unique<pfs::MemStorage>();
  pfs::MemStorage* raw = storage.get();
  const core::ChunkSpace cs(Shape{16, 16}, MemoryOrder::kRowMajor);
  auto store = baselines::BTreeChunkStore::create(std::move(storage), 2,
                                                  cs.elements_per_chunk() * 8);
  DRX_CHECK(store.is_ok());
  const std::vector<std::byte> zero_chunk(
      static_cast<std::size_t>(cs.elements_per_chunk() * 8), std::byte{0});
  // Initial allocation.
  Shape bounds{rows, cols0};
  Shape grid = cs.chunk_bounds_for(bounds);
  core::for_each_index(Box{{0, 0}, grid}, [&](const Index& c) {
    DRX_CHECK(store.value().write_chunk(c, zero_chunk).is_ok());
  });
  const auto before = raw->stats();
  for (std::uint64_t s = 0; s < steps; ++s) {
    bounds[1] += delta;
    const Shape new_grid = cs.chunk_bounds_for(bounds);
    // Allocate only the chunks the extension adds.
    core::for_each_index(Box{{0, grid[1]}, {new_grid[0], new_grid[1]}},
                         [&](const Index& c) {
                           DRX_CHECK(
                               store.value().write_chunk(c, zero_chunk)
                                   .is_ok());
                         });
    grid = new_grid;
  }
  DRX_CHECK(store.value().flush().is_ok());
  const auto d = raw->stats() - before;
  return Cost{d.bytes_written + d.bytes_read, d.busy_us / 1000.0};
}

}  // namespace

int main() {
  std::printf("E1: grow A[R][C] along the non-major dimension in S steps "
              "(delta = 64 columns per step)\n");
  std::printf("totals are payload bytes moved during the extensions and "
              "simulated time\n\n");
  bench::Table table({"R x C0", "steps", "drx MB", "drx ms", "btree MB",
                      "btree ms", "rowmajor MB", "rowmajor ms",
                      "rowmajor/drx"});
  for (const std::uint64_t rows : {256u, 512u}) {
    for (const std::uint64_t steps : {1u, 2u, 4u, 8u, 16u}) {
      const std::uint64_t cols0 = 256;
      const std::uint64_t delta = 64;
      const Cost a = run_drx(rows, cols0, steps, delta);
      const Cost b = run_btree(rows, cols0, steps, delta);
      const Cost c = run_rowmajor(rows, cols0, steps, delta);
      table.add_row({bench::strf("%llu x %llu",
                                 static_cast<unsigned long long>(rows),
                                 static_cast<unsigned long long>(cols0)),
                     bench::strf("%llu",
                                 static_cast<unsigned long long>(steps)),
                     bench::strf("%.2f", static_cast<double>(a.bytes) / 1e6),
                     bench::strf("%.1f", a.ms),
                     bench::strf("%.2f", static_cast<double>(b.bytes) / 1e6),
                     bench::strf("%.1f", b.ms),
                     bench::strf("%.2f", static_cast<double>(c.bytes) / 1e6),
                     bench::strf("%.1f", c.ms),
                     bench::strf("%.1fx", c.ms / a.ms)});
    }
  }
  table.print();
  std::printf("\nexpected shape: rowmajor/drx grows with steps (quadratic "
              "vs linear total work); btree tracks drx with a small index "
              "overhead.\n");
  return 0;
}
