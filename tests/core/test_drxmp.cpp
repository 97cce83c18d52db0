#include "core/drxmp.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"
#include "util/checked.hpp"
#include "util/rng.hpp"

namespace drx::core {
namespace {

pfs::PfsConfig cfg(int servers = 4, std::uint64_t stripe = 256) {
  pfs::PfsConfig c;
  c.num_servers = servers;
  c.stripe_size = stripe;
  return c;
}

DrxFile::Options dbl_opts() {
  DrxFile::Options o;
  o.dtype = ElementType::kDouble;
  return o;
}

double cell_value(const Index& idx) {
  double v = 0;
  for (std::uint64_t x : idx) v = v * 1000 + static_cast<double>(x) + 1;
  return v;
}

/// Fills `buf` (the zone box in `order`) with cell_value per element.
void fill_zone(const Box& box, MemoryOrder order, std::span<double> buf) {
  const Shape shape = box.shape();
  for_each_index(box, [&](const Index& idx) {
    Index rel(idx.size());
    for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
    buf[static_cast<std::size_t>(linearize(rel, shape, order))] =
        cell_value(idx);
  });
}

void check_zone(const Box& box, MemoryOrder order,
                std::span<const double> buf) {
  const Shape shape = box.shape();
  for_each_index(box, [&](const Index& idx) {
    Index rel(idx.size());
    for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
    ASSERT_EQ(buf[static_cast<std::size_t>(linearize(rel, shape, order))],
              cell_value(idx))
        << "element (" << idx[0] << (idx.size() > 1 ? "," : "")
        << (idx.size() > 1 ? std::to_string(idx[1]) : "") << ")";
  });
}

class DrxMpP : public ::testing::TestWithParam<int> {};

TEST_P(DrxMpP, CreateWriteReadZonesCollective) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::create(comm, fs, "arr", Shape{12, 10}, Shape{3, 2},
                                dbl_opts());
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile f = std::move(fr).value();

    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)))
                    .is_ok());
    comm.barrier();

    // Read back my zone in FORTRAN order (exercises transposition).
    std::vector<double> out(zone.size(), -1);
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kColMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    check_zone(box, MemoryOrder::kColMajor, out);
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(DrxMpP, IndependentMatchesCollective) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "arr", Shape{8, 8}, Shape{2, 2},
                                    dbl_opts())
                      .value();
    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)),
                                /*collective=*/false)
                    .is_ok());
    comm.barrier();

    std::vector<double> coll(zone.size()), ind(zone.size());
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(coll)),
                               /*collective=*/true)
                    .is_ok());
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(ind)),
                               /*collective=*/false)
                    .is_ok());
    EXPECT_EQ(coll, ind);
    EXPECT_EQ(coll, zone);
    ASSERT_TRUE(f.close().is_ok());
  });
}

/// The .xmd `name` as stored in `fs`.
std::vector<std::byte> xmd_bytes(pfs::Pfs& fs, const std::string& name) {
  auto handle = fs.open(name + ".xmd");
  EXPECT_TRUE(handle.is_ok());
  std::vector<std::byte> image(checked_size(handle.value().size()));
  EXPECT_TRUE(handle.value().read_at(0, image).is_ok());
  return image;
}

TEST_P(DrxMpP, ParallelExtendPreservesAndGrows) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "arr", Shape{6, 6}, Shape{2, 3},
                                    dbl_opts())
                      .value();
    {
      const Distribution dist = f.block_distribution();
      const Box box = f.zone_element_box(dist, comm.rank());
      std::vector<double> zone(static_cast<std::size_t>(box.volume()));
      fill_zone(box, MemoryOrder::kRowMajor, zone);
      ASSERT_TRUE(
          f.write_my_zone(dist, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const double>(zone)))
              .is_ok());
    }
    ASSERT_TRUE(f.extend_all(0, 4).is_ok());
    ASSERT_TRUE(f.extend_all(1, 3).is_ok());
    EXPECT_EQ(f.bounds(), (Shape{10, 9}));
    // The commit left exactly the current image in the .xmd.
    if (comm.rank() == 0) {
      EXPECT_EQ(xmd_bytes(fs, "arr"), f.metadata().to_bytes());
    }

    // Whole-array collective read, split by the NEW distribution; old data
    // intact, new region zero.
    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> out(static_cast<std::size_t>(box.volume()), -1);
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    const Shape shape = box.shape();
    for_each_index(box, [&](const Index& idx) {
      Index rel = {idx[0] - box.lo[0], idx[1] - box.lo[1]};
      const double got = out[static_cast<std::size_t>(
          linearize(rel, shape, MemoryOrder::kRowMajor))];
      if (idx[0] < 6 && idx[1] < 6) {
        ASSERT_EQ(got, cell_value(idx));
      } else {
        ASSERT_EQ(got, 0.0);
      }
    });
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(DrxMpP, OpenReplicatesMetadata) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  // Phase 1: a single "serial" process creates and extends the array.
  simpi::run(1, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "arr", Shape{4, 4}, Shape{2, 2},
                                    dbl_opts())
                      .value();
    ASSERT_TRUE(f.extend_all(1, 4).is_ok());
    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, 0);
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)))
                    .is_ok());
    ASSERT_TRUE(f.close().is_ok());
  });
  // Phase 2: a parallel program opens it; every rank sees the metadata.
  simpi::run(p, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "arr");
    ASSERT_TRUE(fr.is_ok()) << fr.status();
    DrxMpFile f = std::move(fr).value();
    EXPECT_EQ(f.bounds(), (Shape{4, 8}));
    EXPECT_EQ(f.metadata().chunk_shape, (Shape{2, 2}));

    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> out(static_cast<std::size_t>(box.volume()));
    ASSERT_TRUE(f.read_my_zone(dist, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    check_zone(box, MemoryOrder::kRowMajor, out);
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(DrxMpP, ReadBoxAllArbitraryOverlappingBoxes) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "arr", Shape{10, 10},
                                    Shape{3, 3}, dbl_opts())
                      .value();
    const Distribution dist = f.block_distribution();
    const Box mine = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(mine.volume()));
    fill_zone(mine, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)))
                    .is_ok());
    comm.barrier();

    // Every rank reads a (different, overlapping) box.
    const auto r = static_cast<std::uint64_t>(comm.rank());
    const Box box{{r % 3, r % 2}, {7 + r % 3, 8}};
    std::vector<double> out(static_cast<std::size_t>(box.volume()));
    ASSERT_TRUE(f.read_box_all(box, MemoryOrder::kRowMajor,
                               std::as_writable_bytes(std::span<double>(out)))
                    .is_ok());
    check_zone(box, MemoryOrder::kRowMajor, out);
    ASSERT_TRUE(f.close().is_ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, DrxMpP, ::testing::Values(1, 2, 4, 8));

TEST(DrxMp, SerialDrxCanOpenWhatDrxMpWrote) {
  // File-format compatibility: DRX-MP and serial DRX share the pair
  // format, so a serial process can open the parallel array through
  // PfsStorage adapters.
  pfs::Pfs fs(cfg());
  simpi::run(4, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "arr", Shape{8, 6}, Shape{2, 2},
                                    dbl_opts())
                      .value();
    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    ASSERT_TRUE(f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                std::as_bytes(std::span<const double>(zone)))
                    .is_ok());
    ASSERT_TRUE(f.close().is_ok());
  });

  auto serial = DrxFile::open(
      std::make_unique<pfs::PfsStorage>(fs.open("arr.xmd").value()),
      std::make_unique<pfs::PfsStorage>(fs.open("arr.xta").value()));
  ASSERT_TRUE(serial.is_ok()) << serial.status();
  EXPECT_EQ(serial.value().bounds(), (Shape{8, 6}));
  for_each_index(Box{{0, 0}, {8, 6}}, [&](const Index& idx) {
    ASSERT_EQ(serial.value().get<double>(idx).value(), cell_value(idx));
  });
}

TEST(DrxMp, OpenMissingFileFailsEverywhere) {
  pfs::Pfs fs(cfg());
  simpi::run(3, [&](simpi::Comm& comm) {
    auto fr = DrxMpFile::open(comm, fs, "no_such_array");
    EXPECT_FALSE(fr.is_ok());
  });
}

// An array grown along time by extend_all and filled slab by slab (the
// append_extend pattern) keeps each datafile's memory to the bytes
// written there, rounded up to pages: extension stores nothing.
TEST(DrxMp, AppendGrowthKeepsDatafilesToTheBytesWritten) {
  pfs::PfsConfig c;
  c.num_servers = 8;
  pfs::Pfs fs(c);
  constexpr int kRanks = 4;
  constexpr std::uint64_t kLat = 64;
  constexpr std::uint64_t kLon = 256;
  const auto resident = [&fs] {
    pfs::FileHandle xta = fs.open("climate.xta").value();
    std::uint64_t bytes = 0;
    for (std::size_t s = 0; s < 8; ++s) bytes += xta.resident_bytes(s);
    return bytes;
  };
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "climate", Shape{1, kLat, kLon},
                                    Shape{1, 16, 32}, dbl_opts())
                      .value();
    const std::uint64_t rows = kLat / kRanks;
    const auto me = static_cast<std::uint64_t>(comm.rank());
    for (std::uint64_t t = 0; t < 24; ++t) {
      if (t > 0) {
        comm.barrier();
        const std::uint64_t before = comm.rank() == 0 ? resident() : 0;
        ASSERT_TRUE(f.extend_all(0, 1).is_ok());
        comm.barrier();
        if (comm.rank() == 0) {
          EXPECT_EQ(resident(), before) << "step " << t;
        }
      }
      const Box slab{Index{t, me * rows, 0},
                     Index{t + 1, (me + 1) * rows, kLon}};
      std::vector<double> vals(static_cast<std::size_t>(slab.volume()),
                               static_cast<double>(t + 1));
      ASSERT_TRUE(f.write_box_all(slab, MemoryOrder::kRowMajor,
                                  std::as_bytes(std::span<const double>(vals)))
                      .is_ok());
    }
    ASSERT_TRUE(f.close().is_ok());
  });

  pfs::FileHandle xta = fs.open("climate.xta").value();
  const std::vector<pfs::IoStats> stats = fs.server_stats();
  constexpr std::uint64_t kPage = pfs::BlockDevice::kPageBytes;
  // A server's bytes_written also counts its share of the small .xmd.
  for (std::size_t s = 0; s < stats.size(); ++s) {
    EXPECT_LE(xta.resident_bytes(s),
              ceil_div(stats[s].bytes_written, kPage) * kPage)
        << "server " << s;
  }
  EXPECT_GE(resident(), 24 * kLat * kLon * sizeof(double));
}

TEST(DrxMp, AppendStepMakesSixCollectiveCalls) {
  // One append step (extend, write the new slab, read recent slabs):
  // extend_all is one status broadcast, a box write one alltoallv plus the
  // status allreduce (a reduce and a broadcast) that also completes it,
  // and a box read two alltoallvs, the second carrying the statuses.
  pfs::Pfs fs(cfg(8, 64 * 1024));
  constexpr int kRanks = 4;
  constexpr std::uint64_t kLat = 64;
  constexpr std::uint64_t kLon = 256;
  const std::vector<std::string> kCalls = {
      "simpi.coll.barriers", "simpi.coll.bcasts",    "simpi.coll.reduces",
      "simpi.coll.gathers",  "simpi.coll.scatters",  "simpi.coll.alltoalls",
      "simpi.coll.scans"};
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "climate", Shape{1, kLat, kLon},
                                    Shape{1, 16, 32}, dbl_opts())
                      .value();
    const std::uint64_t rows = kLat / kRanks;
    const auto me = static_cast<std::uint64_t>(comm.rank());
    for (std::uint64_t t = 0; t < 4; ++t) {
      const Box slab{Index{t, me * rows, 0},
                     Index{t + 1, (me + 1) * rows, kLon}};
      const Box recent{Index{0, me * rows, 0},
                       Index{t + 1, (me + 1) * rows, kLon}};
      std::vector<double> vals(static_cast<std::size_t>(slab.volume()),
                               static_cast<double>(t + 1));
      std::vector<double> back(static_cast<std::size_t>(recent.volume()));
      const obs::MetricsSnapshot before = obs::registry().snapshot();
      if (t > 0) {
        ASSERT_TRUE(f.extend_all(0, 1).is_ok());
      }
      ASSERT_TRUE(f.write_box_all(slab, MemoryOrder::kRowMajor,
                                  std::as_bytes(std::span<const double>(vals)))
                      .is_ok());
      ASSERT_TRUE(f.read_box_all(recent, MemoryOrder::kRowMajor,
                                 std::as_writable_bytes(std::span<double>(back)))
                      .is_ok());
      const obs::MetricsSnapshot d =
          obs::snapshot_delta(obs::registry().snapshot(), before);
      std::uint64_t calls = 0;
      for (const std::string& name : kCalls) calls += d.counter(name);
      EXPECT_EQ(calls, t > 0 ? 6u : 5u) << "rank " << me << " step " << t;
      EXPECT_EQ(d.counter("simpi.coll.barriers"), 0u);
      for (std::size_t k = 0; k < back.size(); ++k) {
        ASSERT_EQ(back[k], static_cast<double>(k / (rows * kLon) + 1));
      }
    }
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST(DrxMp, ZoneCollectiveCostsTheSameSimulatedTimeEveryCall) {
  // Each PFS server belongs to one aggregator, which issues the server's
  // runs in datafile order, so a call's straggler time is fixed by the
  // cost model, not by which rank thread reaches a server first.
  pfs::Pfs fs(cfg(8, 64 * 1024));
  constexpr std::size_t kReps = 50;
  std::vector<double> write_us, read_us;
  simpi::run(4, [&](simpi::Comm& comm) {
    DrxMpFile f = DrxMpFile::create(comm, fs, "zones", Shape{512, 512},
                                    Shape{16, 16}, dbl_opts())
                      .value();
    const Distribution dist = f.block_distribution();
    const Box box = f.zone_element_box(dist, comm.rank());
    std::vector<double> zone(static_cast<std::size_t>(box.volume()));
    fill_zone(box, MemoryOrder::kRowMajor, zone);
    std::vector<double> back(zone.size());
    // Round 0 is untimed: the first write finds every datafile head at
    // offset 0 and so skips the one seek every later call pays.
    for (std::size_t rep = 0; rep <= kReps; ++rep) {
      for (const bool writing : {true, false}) {
        std::vector<pfs::IoStats> before;
        comm.barrier();
        if (comm.rank() == 0) before = fs.server_stats();
        comm.barrier();
        const Status st =
            writing
                ? f.write_my_zone(dist, MemoryOrder::kRowMajor,
                                  std::as_bytes(std::span<const double>(zone)))
                : f.read_my_zone(
                      dist, MemoryOrder::kColMajor,
                      std::as_writable_bytes(std::span<double>(back)));
        ASSERT_TRUE(st.is_ok()) << st;
        comm.barrier();
        if (comm.rank() == 0 && rep > 0) {
          (writing ? write_us : read_us)
              .push_back(pfs::Pfs::phase_elapsed_us(before, fs.server_stats()));
        }
      }
    }
    check_zone(box, MemoryOrder::kColMajor, back);
    ASSERT_TRUE(f.close().is_ok());
  });
  ASSERT_EQ(write_us.size(), kReps);
  ASSERT_EQ(read_us.size(), kReps);
  for (std::size_t rep = 1; rep < kReps; ++rep) {
    EXPECT_NEAR(write_us[rep], write_us[0], 1e-3) << "rep " << rep;
    EXPECT_NEAR(read_us[rep], read_us[0], 1e-3) << "rep " << rep;
  }
}

}  // namespace
}  // namespace drx::core
