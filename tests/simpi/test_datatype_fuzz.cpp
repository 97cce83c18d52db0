// Datatype fuzzing: random non-overlapping hindexed layouts must satisfy
// pack/unpack identities and agree with a naive reference gather/scatter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "simpi/datatype.hpp"
#include "util/rng.hpp"

namespace drx::simpi {
namespace {

struct Layout {
  std::vector<std::uint64_t> lens;
  std::vector<std::uint64_t> displs;  // bytes
  std::uint64_t footprint = 0;
};

/// Random non-overlapping byte blocks in declaration-shuffled order.
Layout random_layout(SplitMix64& rng) {
  const std::size_t nblocks = static_cast<std::size_t>(rng.next_in(1, 12));
  Layout out;
  std::uint64_t cursor = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> blocks;
  for (std::size_t i = 0; i < nblocks; ++i) {
    cursor += rng.next_below(16);  // gap
    const std::uint64_t len = rng.next_in(1, 24);
    blocks.emplace_back(cursor, len);
    cursor += len;
  }
  out.footprint = cursor;
  // Shuffle declaration order (memory types may be non-monotonic).
  for (std::size_t i = blocks.size(); i > 1; --i) {
    std::swap(blocks[i - 1], blocks[rng.next_below(i)]);
  }
  for (const auto& [d, l] : blocks) {
    out.displs.push_back(d);
    out.lens.push_back(l);
  }
  return out;
}

class DatatypeFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatatypeFuzzP, PackMatchesNaiveGather) {
  SplitMix64 rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const Layout layout = random_layout(rng);
    auto t = Datatype::hindexed(layout.lens, layout.displs,
                                Datatype::bytes(1));
    const std::uint64_t count = rng.next_in(1, 4);

    std::vector<std::byte> memory(
        static_cast<std::size_t>(t.span_bytes(count) + 8));
    for (auto& b : memory) b = static_cast<std::byte>(rng.next() & 0xFF);

    // Naive gather in declaration order.
    std::vector<std::byte> expect;
    for (std::uint64_t item = 0; item < count; ++item) {
      for (std::size_t i = 0; i < layout.lens.size(); ++i) {
        const std::uint64_t base = item * t.extent() + layout.displs[i];
        for (std::uint64_t j = 0; j < layout.lens[i]; ++j) {
          expect.push_back(memory[static_cast<std::size_t>(base + j)]);
        }
      }
    }

    std::vector<std::byte> packed;
    t.pack(memory.data(), count, packed);
    ASSERT_EQ(packed, expect) << "seed " << GetParam() << " round " << round;

    // unpack(pack(x)) restores every covered byte.
    std::vector<std::byte> scratch(memory.size(), std::byte{0xEE});
    t.unpack(packed, count, scratch.data());
    for (std::uint64_t item = 0; item < count; ++item) {
      for (std::size_t i = 0; i < layout.lens.size(); ++i) {
        const std::uint64_t base = item * t.extent() + layout.displs[i];
        for (std::uint64_t j = 0; j < layout.lens[i]; ++j) {
          ASSERT_EQ(scratch[static_cast<std::size_t>(base + j)],
                    memory[static_cast<std::size_t>(base + j)]);
        }
      }
    }

    // size() == sum of lens; blocks cover size bytes.
    const std::uint64_t sum =
        std::accumulate(layout.lens.begin(), layout.lens.end(),
                        std::uint64_t{0});
    EXPECT_EQ(t.size(), sum);
    EXPECT_EQ(packed.size(), sum * count);
  }
}

/// Random cut points splitting a `total`-byte stream into segments
/// (empty segments included, as a rank with nothing for one aggregator
/// would produce).
std::vector<std::uint64_t> random_cuts(SplitMix64& rng, std::uint64_t total) {
  std::vector<std::uint64_t> cuts{0, total};
  const std::uint64_t n = rng.next_in(0, 8);
  for (std::uint64_t i = 0; i < n; ++i) cuts.push_back(rng.next_in(0, total));
  std::sort(cuts.begin(), cuts.end());
  return cuts;
}

TEST_P(DatatypeFuzzP, SegmentedStreamMatchesWholeStream) {
  // The cursor produces and consumes the packed stream in arbitrary
  // segments; any split must give pack()'s stream and unpack()'s memory.
  SplitMix64 rng(GetParam() + 100);
  for (int round = 0; round < 20; ++round) {
    const Layout layout = random_layout(rng);
    auto t = Datatype::hindexed(layout.lens, layout.displs,
                                Datatype::bytes(1));
    const std::uint64_t count = rng.next_in(1, 4);
    std::vector<std::byte> memory(
        static_cast<std::size_t>(t.span_bytes(count)));
    for (auto& b : memory) b = static_cast<std::byte>(rng.next() & 0xFF);
    std::vector<std::byte> whole;
    t.pack(memory.data(), count, whole);
    const std::vector<std::uint64_t> cuts = random_cuts(rng, whole.size());

    std::vector<std::byte> segmented(whole.size(), std::byte{0xEE});
    Datatype::Cursor packer(t, count);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      packer.gather(memory.data(),
                    std::span<std::byte>(segmented)
                        .subspan(cuts[i], cuts[i + 1] - cuts[i]));
    }
    EXPECT_EQ(packer.remaining(), 0u);
    ASSERT_EQ(segmented, whole) << "seed " << GetParam() << " round " << round;

    std::vector<std::byte> expect(memory.size(), std::byte{0xEE});
    t.unpack(whole, count, expect.data());
    std::vector<std::byte> got(memory.size(), std::byte{0xEE});
    Datatype::Cursor unpacker(t, count);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      unpacker.scatter(std::span<const std::byte>(whole).subspan(
                           cuts[i], cuts[i + 1] - cuts[i]),
                       got.data());
    }
    EXPECT_EQ(unpacker.remaining(), 0u);
    ASSERT_EQ(got, expect) << "seed " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatatypeFuzzP,
                         ::testing::Range<std::uint64_t>(5000, 5010));

}  // namespace
}  // namespace drx::simpi
