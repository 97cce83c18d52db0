#include "core/axial_mapping.hpp"

#include <gtest/gtest.h>

namespace drx::core {
namespace {

TEST(AxialMapping, InitialAllocationIsDense) {
  AxialMapping m(Shape{4, 3});
  EXPECT_EQ(m.total_chunks(), 12u);
  EXPECT_EQ(m.bounds(), (Shape{4, 3}));
  // Initial layout: last dim least-varying -> address = i1*4 + i0?  No:
  // within the initial segment of dim 1, remaining dims keep relative
  // order, so address = (i1-0)*C_1 + i0*C_0 with C_1 = 4, C_0 = 1.
  EXPECT_EQ(m.address_of(Index{0, 0}), 0u);
  EXPECT_EQ(m.address_of(Index{1, 0}), 1u);
  EXPECT_EQ(m.address_of(Index{3, 0}), 3u);
  EXPECT_EQ(m.address_of(Index{0, 1}), 4u);
  EXPECT_EQ(m.address_of(Index{3, 2}), 11u);
}

TEST(AxialMapping, OneDimensionalAppend) {
  AxialMapping m(Shape{5});
  EXPECT_EQ(m.total_chunks(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(m.address_of(Index{i}), i);
  }
  m.extend(0, 3);
  EXPECT_EQ(m.total_chunks(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.address_of(Index{i}), i);
    EXPECT_EQ(m.index_of(i), (Index{i}));
  }
}

TEST(AxialMapping, ExtendReturnsFirstNewAddress) {
  AxialMapping m(Shape{2, 2});
  EXPECT_EQ(m.extend(0, 1), 4u);
  EXPECT_EQ(m.extend(0, 1), 6u);  // merged, still appends at the end
  EXPECT_EQ(m.extend(1, 2), 8u);
}

TEST(AxialMapping, AddressesAreStableAcrossExtensions) {
  AxialMapping m(Shape{3, 2});
  std::vector<std::pair<Index, std::uint64_t>> pinned;
  Box initial{Index{0, 0}, Index{3, 2}};
  for_each_index(initial, [&](const Index& idx) {
    pinned.emplace_back(idx, m.address_of(idx));
  });
  m.extend(0, 2);
  m.extend(1, 3);
  m.extend(0, 1);
  m.extend(1, 1);
  for (const auto& [idx, addr] : pinned) {
    EXPECT_EQ(m.address_of(idx), addr) << "relocation detected";
  }
}

TEST(AxialMapping, UninterruptedExtensionsMergeRecords) {
  AxialMapping m(Shape{2, 2});
  m.extend(0, 1);
  const std::uint64_t records_after_first = m.total_records();
  m.extend(0, 1);
  m.extend(0, 5);
  EXPECT_EQ(m.total_records(), records_after_first);  // merged
  m.extend(1, 1);
  EXPECT_EQ(m.total_records(), records_after_first + 1);
  // Interleaving dimension 0 again now costs a fresh record.
  m.extend(0, 1);
  EXPECT_EQ(m.total_records(), records_after_first + 2);
}

TEST(AxialMapping, InitialSegmentIsNotMergedInto) {
  // The paper keeps the initial allocation record separate from the first
  // extension of the same dimension (Fig. 3b has distinct Γ_2 records for
  // start 0 and start 1).
  AxialMapping m(Shape{4, 3, 1});
  const std::uint64_t initial_records = m.total_records();
  m.extend(2, 1);
  EXPECT_EQ(m.total_records(), initial_records + 1);
  m.extend(2, 1);  // uninterrupted: merges with the extension record
  EXPECT_EQ(m.total_records(), initial_records + 1);
}

TEST(AxialMapping, SentinelRecordsPresent) {
  AxialMapping m(Shape{4, 3, 2});
  // Dims 0 and 1 hold only the sentinel; dim 2 holds the initial segment.
  EXPECT_EQ(m.axial_vector(0).record_count(), 1u);
  EXPECT_EQ(m.axial_vector(0).records()[0].start_address,
            ExpansionRecord::kUnallocated);
  EXPECT_EQ(m.axial_vector(2).records()[0].start_address, 0);
}

TEST(AxialMapping, OutOfBoundsAborts) {
  AxialMapping m(Shape{2, 2});
  EXPECT_DEATH((void)m.address_of(Index{2, 0}), "out of bounds");
  EXPECT_DEATH((void)m.index_of(4), "out of bounds");
  EXPECT_DEATH(m.extend(2, 1), "check failed");
  EXPECT_DEATH(m.extend(0, 0), "at least one");
}

TEST(AxialMapping, SerializationRoundTrip) {
  AxialMapping m(Shape{3, 2, 2});
  m.extend(1, 2);
  m.extend(0, 1);
  m.extend(2, 3);
  m.extend(2, 1);

  ByteWriter w;
  m.serialize(w);
  ByteReader r(w.bytes());
  auto restored = AxialMapping::deserialize(r);
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value(), m);
  EXPECT_TRUE(r.exhausted());

  // Behavior equivalence, not just structural equality.
  for (std::uint64_t q = 0; q < m.total_chunks(); ++q) {
    EXPECT_EQ(restored.value().index_of(q), m.index_of(q));
  }
}

TEST(AxialMapping, DeserializeRejectsCorruptHistory) {
  AxialMapping m(Shape{2, 2});
  m.extend(0, 1);
  ByteWriter w;
  m.serialize(w);
  auto bytes = std::vector<std::byte>(w.bytes().begin(), w.bytes().end());
  // Flip a byte inside the totals region to break the tiling invariant.
  bytes[20] ^= std::byte{0xFF};
  ByteReader r(bytes);
  EXPECT_FALSE(AxialMapping::deserialize(r).is_ok());
}

// Records that parse but that the history never built: F* would trust
// them and abort (a negative start address) or answer an address past
// the end of the file (a huge coefficient).
TEST(AxialMapping, DeserializeRejectsRecordsItsHistoryDidNotBuild) {
  AxialMapping m(Shape{2, 2});
  m.extend(0, 1);  // dim 0: sentinel, then a segment at address 4
  ByteWriter w;
  m.serialize(w);
  const std::vector<std::byte> good(w.bytes().begin(), w.bytes().end());
  // rank u32, 2 bounds, total; dim 0: count u32, two records of
  // start_index, start_address, 2 coeffs, displacement; then dim 1.
  constexpr std::size_t kRecord = 5 * 8;
  constexpr std::size_t kDim0Ext = 4 + 2 * 8 + 8 + 4 + kRecord;
  constexpr std::size_t kDim1Initial = kDim0Ext + kRecord + 4;
  const auto patched = [&](std::size_t at, std::uint64_t v) {
    auto bytes = good;
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
    }
    ByteReader r(bytes);
    return AxialMapping::deserialize(r).status().code();
  };
  ASSERT_EQ(patched(kDim0Ext + 8, 4), ErrorCode::kOk);  // unchanged value
  EXPECT_EQ(patched(kDim1Initial + 8, ~std::uint64_t{0}),  // address -1
            ErrorCode::kCorrupt);
  EXPECT_EQ(patched(kDim0Ext + 8, 5), ErrorCode::kCorrupt);
  EXPECT_EQ(patched(kDim0Ext + 3 * 8, std::uint64_t{1} << 40),  // C[1]
            ErrorCode::kCorrupt);
}

TEST(AxialMapping, DeserializeRejectsTruncation) {
  AxialMapping m(Shape{2, 2});
  ByteWriter w;
  m.serialize(w);
  auto bytes = std::vector<std::byte>(w.bytes().begin(), w.bytes().end());
  bytes.resize(bytes.size() / 2);
  ByteReader r(bytes);
  EXPECT_FALSE(AxialMapping::deserialize(r).is_ok());
}

}  // namespace
}  // namespace drx::core
