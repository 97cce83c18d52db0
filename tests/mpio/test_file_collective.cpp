#include <gtest/gtest.h>

#include "mpio/file.hpp"
#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"
#include "util/rng.hpp"

namespace drx::mpio {
namespace {

using simpi::Comm;
using simpi::Datatype;

pfs::PfsConfig cfg(int servers = 4, std::uint64_t stripe = 64) {
  pfs::PfsConfig c;
  c.num_servers = servers;
  c.stripe_size = stripe;
  return c;
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xFF);
  return buf;
}

class CollectiveIoP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveIoP, WriteAllThenReadAllContiguousBlocks) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    constexpr std::uint64_t kPer = 500;
    const auto mine =
        pattern(kPer, static_cast<std::uint64_t>(comm.rank()) + 100);
    ASSERT_TRUE(f.write_at_all(static_cast<std::uint64_t>(comm.rank()) * kPer,
                               mine.data(), kPer, Datatype::bytes(1))
                    .is_ok());
    comm.barrier();
    EXPECT_EQ(f.get_size(), kPer * static_cast<std::uint64_t>(comm.size()));

    // Read the next rank's block collectively.
    const int peer = (comm.rank() + 1) % comm.size();
    std::vector<std::byte> out(kPer);
    ASSERT_TRUE(f.read_at_all(static_cast<std::uint64_t>(peer) * kPer,
                              out.data(), kPer, Datatype::bytes(1))
                    .is_ok());
    EXPECT_EQ(out, pattern(kPer, static_cast<std::uint64_t>(peer) + 100));
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(CollectiveIoP, InterleavedStridedWriteAll) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    // Round-robin 16-byte cells: rank r owns cells r, r+P, r+2P, ...
    constexpr std::uint64_t kCell = 16;
    constexpr std::uint64_t kCellsPerRank = 32;
    auto ft = Datatype::bytes(kCell).resized(
        kCell * static_cast<std::uint64_t>(comm.size()));
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * kCell,
               Datatype::bytes(1), ft);
    const auto mine = pattern(kCell * kCellsPerRank,
                              static_cast<std::uint64_t>(comm.rank()) + 7);
    ASSERT_TRUE(f.write_at_all(0, mine.data(), mine.size(),
                               Datatype::bytes(1))
                    .is_ok());
    comm.barrier();

    // Verify through an independent raw read of the whole file.
    f.set_view(0, Datatype::bytes(1), Datatype::bytes(1));
    const std::uint64_t total =
        kCell * kCellsPerRank * static_cast<std::uint64_t>(comm.size());
    ASSERT_EQ(f.get_size(), total);
    std::vector<std::byte> raw(total);
    ASSERT_TRUE(f.read_at(0, raw.data(), total, Datatype::bytes(1)).is_ok());
    for (int r = 0; r < comm.size(); ++r) {
      const auto expect =
          pattern(kCell * kCellsPerRank, static_cast<std::uint64_t>(r) + 7);
      for (std::uint64_t cell = 0; cell < kCellsPerRank; ++cell) {
        const std::uint64_t file_off =
            (cell * static_cast<std::uint64_t>(comm.size()) +
             static_cast<std::uint64_t>(r)) *
            kCell;
        for (std::uint64_t i = 0; i < kCell; ++i) {
          ASSERT_EQ(raw[file_off + i], expect[cell * kCell + i])
              << "rank " << r << " cell " << cell << " byte " << i;
        }
      }
    }
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(CollectiveIoP, CollectiveMatchesIndependentResults) {
  const int p = GetParam();
  pfs::Pfs fs(cfg(3, 48));
  simpi::run(p, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    const std::uint64_t total = 4096;
    if (comm.rank() == 0) {
      const auto all = pattern(total, 55);
      ASSERT_TRUE(
          f.write_at(0, all.data(), total, Datatype::bytes(1)).is_ok());
    }
    comm.barrier();

    // Strided view: rank r sees bytes congruent to r mod P (8-byte cells).
    auto ft = Datatype::bytes(8).resized(
        8 * static_cast<std::uint64_t>(comm.size()));
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * 8,
               Datatype::bytes(1), ft);
    const std::uint64_t visible =
        total / static_cast<std::uint64_t>(comm.size());
    std::vector<std::byte> coll(visible), indep(visible);
    ASSERT_TRUE(
        f.read_at_all(0, coll.data(), visible, Datatype::bytes(1)).is_ok());
    ASSERT_TRUE(
        f.read_at(0, indep.data(), visible, Datatype::bytes(1)).is_ok());
    EXPECT_EQ(coll, indep);
    ASSERT_TRUE(f.close().is_ok());
  });
}

TEST_P(CollectiveIoP, RanksWithNothingToDoStillParticipate) {
  const int p = GetParam();
  pfs::Pfs fs(cfg());
  simpi::run(p, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    // Only rank 0 transfers; everyone else passes zero count.
    const auto data = pattern(256, 5);
    const std::uint64_t count = comm.rank() == 0 ? 256 : 0;
    ASSERT_TRUE(
        f.write_at_all(0, data.data(), count, Datatype::bytes(1)).is_ok());
    comm.barrier();
    std::vector<std::byte> out(256);
    ASSERT_TRUE(f.read_at_all(0, out.data(), count == 0 ? 0 : 256,
                              Datatype::bytes(1))
                    .is_ok());
    if (comm.rank() == 0) {
      EXPECT_EQ(out, data);
    }
    ASSERT_TRUE(f.close().is_ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveIoP, ::testing::Values(1, 2, 4, 8));

// Collective transfers move bytes between the user buffer and the
// exchange through one datatype cursor: a write packs each piece into its
// aggregator's message, a read unpacks each returned piece into the user
// buffer. The memtype here is non-contiguous and non-monotonic, and its
// blocks (24, 16 and 8 bytes) straddle the pieces that 40-byte view cells
// and 64-byte stripes cut, so every piece boundary falls inside a block
// somewhere. The last rank of a multi-rank run asks for nothing.
class CollectiveCursorP : public ::testing::TestWithParam<int> {
 protected:
  static constexpr std::uint64_t kCell = 40;
  static constexpr std::uint64_t kItems = 20;  // 48 bytes each: 24 cells

  static Datatype memtype() {
    const std::uint64_t lens[] = {24, 16, 8};
    const std::uint64_t displs[] = {40, 0, 80};
    return Datatype::hindexed(lens, displs, Datatype::bytes(1));
  }
  /// Rank r sees cells r, r + P, r + 2P, ... of the file.
  static void set_cells_view(File& f, const Comm& comm) {
    f.set_view(static_cast<std::uint64_t>(comm.rank()) * kCell,
               Datatype::bytes(1),
               Datatype::bytes(kCell).resized(
                   kCell * static_cast<std::uint64_t>(comm.size())));
  }
  static std::uint64_t items_of(const Comm& comm) {
    return comm.size() > 1 && comm.rank() == comm.size() - 1 ? 0 : kItems;
  }
  static std::vector<std::byte> whole_file(pfs::Pfs& fs,
                                           const std::string& name) {
    pfs::FileHandle h = fs.open(name).value();
    std::vector<std::byte> out(h.size());
    EXPECT_TRUE(h.read_at(0, out).is_ok());
    return out;
  }
};

TEST_P(CollectiveCursorP, WriteAllMatchesIndependentWrite) {
  pfs::Pfs fs(cfg(4, 64));
  simpi::run(GetParam(), [&](Comm& comm) {
    File coll = File::open(comm, fs, "coll", kModeRdWr | kModeCreate).value();
    File indep =
        File::open(comm, fs, "indep", kModeRdWr | kModeCreate).value();
    set_cells_view(coll, comm);
    set_cells_view(indep, comm);
    const Datatype t = memtype();
    const auto mem = pattern(t.span_bytes(kItems),
                             static_cast<std::uint64_t>(comm.rank()) + 300);
    ASSERT_TRUE(
        coll.write_at_all(0, mem.data(), items_of(comm), t).is_ok());
    ASSERT_TRUE(indep.write_at(0, mem.data(), items_of(comm), t).is_ok());
    ASSERT_TRUE(coll.close().is_ok());
    ASSERT_TRUE(indep.close().is_ok());
  });
  const auto written = whole_file(fs, "coll");
  EXPECT_FALSE(written.empty());
  EXPECT_EQ(written, whole_file(fs, "indep"));
}

TEST_P(CollectiveCursorP, ReadAllMatchesIndependentRead) {
  const int p = GetParam();
  pfs::Pfs fs(cfg(4, 64));
  const auto image =
      pattern(kCell * 24 * static_cast<std::uint64_t>(p), 77);
  ASSERT_TRUE(fs.create("f").value().write_at(0, image).is_ok());
  simpi::run(p, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdOnly).value();
    set_cells_view(f, comm);
    const Datatype t = memtype();
    std::vector<std::byte> coll(t.span_bytes(kItems), std::byte{0xEE});
    std::vector<std::byte> indep(coll.size(), std::byte{0xEE});
    ASSERT_TRUE(f.read_at_all(0, coll.data(), items_of(comm), t).is_ok());
    ASSERT_TRUE(f.read_at(0, indep.data(), items_of(comm), t).is_ok());
    EXPECT_EQ(coll, indep) << "rank " << comm.rank();
    if (items_of(comm) != 0) {
      EXPECT_NE(coll, std::vector<std::byte>(coll.size(), std::byte{0xEE}));
    }
    ASSERT_TRUE(f.close().is_ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveCursorP, ::testing::Values(1, 2, 4));

TEST(CollectiveIo, TwoPhaseAggregationReducesSeeks) {
  // With 4 ranks interleaving small cells, the aggregated access pattern
  // must hit each server near-sequentially: far fewer seeks than the
  // independent path issuing one request per cell.
  pfs::Pfs fs_coll(cfg(2, 64));
  pfs::Pfs fs_ind(cfg(2, 64));
  constexpr int kRanks = 4;
  constexpr std::uint64_t kCell = 32;
  constexpr std::uint64_t kCells = 64;

  auto interleaved_write = [&](pfs::Pfs& fs, bool collective) {
    simpi::run(kRanks, [&](Comm& comm) {
      File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
      auto ft = Datatype::bytes(kCell).resized(kCell * kRanks);
      f.set_view(static_cast<std::uint64_t>(comm.rank()) * kCell,
                 Datatype::bytes(1), ft);
      const auto mine =
          pattern(kCell * kCells, static_cast<std::uint64_t>(comm.rank()));
      if (collective) {
        ASSERT_TRUE(f.write_at_all(0, mine.data(), mine.size(),
                                   Datatype::bytes(1))
                        .is_ok());
      } else {
        ASSERT_TRUE(
            f.write_at(0, mine.data(), mine.size(), Datatype::bytes(1))
                .is_ok());
      }
      ASSERT_TRUE(f.close().is_ok());
    });
  };
  interleaved_write(fs_coll, true);
  interleaved_write(fs_ind, false);

  const auto coll = fs_coll.total_stats();
  const auto ind = fs_ind.total_stats();
  EXPECT_LT(coll.write_requests, ind.write_requests);
  EXPECT_LE(coll.seeks, ind.seeks);
}

TEST(CollectiveCoalescing, SubarrayViewEmitsRunsNotElements) {
  // Dense base types flatten into one filetype block per fastest-dim
  // run (docs/PERFORMANCE.md), so the two-phase exchange ships pieces
  // at run granularity. Each rank writes an 8x8 half-width slab of a
  // 16x16 array of 8-byte cells: 64 elements but only 8 rows per rank.
  const auto before = obs::registry().snapshot();
  pfs::Pfs fs(cfg());
  simpi::run(2, [&](Comm& comm) {
    File f = File::open(comm, fs, "f", kModeRdWr | kModeCreate).value();
    const std::uint64_t sizes[] = {16, 16};
    const std::uint64_t subsizes[] = {8, 8};
    const std::uint64_t starts[] = {
        static_cast<std::uint64_t>(comm.rank()) * 8, 0};
    const auto ft = Datatype::subarray(sizes, subsizes, starts,
                                       simpi::Order::kC, Datatype::bytes(8));
    f.set_view(0, Datatype::bytes(1), ft);
    const auto mine =
        pattern(8 * 8 * 8, static_cast<std::uint64_t>(comm.rank()) + 40);
    ASSERT_TRUE(
        f.write_at_all(0, mine.data(), mine.size(), Datatype::bytes(1))
            .is_ok());
    ASSERT_TRUE(f.close().is_ok());
  });
  const auto after = obs::registry().snapshot();
  const std::uint64_t pieces =
      after.counter("mpio.agg_pieces") - before.counter("mpio.agg_pieces");
  // 16 rows across both ranks; aggregator file-domain boundaries may
  // split a row, so allow 2x slack. Element-granular flattening would
  // have emitted >= 128 pieces.
  EXPECT_GT(pieces, 0u);
  EXPECT_LE(pieces, 32u);
}

}  // namespace
}  // namespace drx::mpio
