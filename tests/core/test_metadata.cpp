#include "core/metadata.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace drx::core {
namespace {

Metadata sample() {
  Metadata meta(ElementType::kDouble, MemoryOrder::kRowMajor,
                Shape{10, 12}, Shape{2, 3});
  meta.mapping.extend(0, 2);
  meta.mapping.extend(1, 1);
  meta.element_bounds = {14, 15};
  return meta;
}

TEST(Metadata, DerivedQuantities) {
  Metadata meta(ElementType::kDouble, MemoryOrder::kRowMajor, Shape{10, 12},
                Shape{2, 3});
  EXPECT_EQ(meta.rank(), 2u);
  EXPECT_EQ(meta.element_bytes(), 8u);
  EXPECT_EQ(meta.chunk_bytes(), 48u);
  EXPECT_EQ(meta.mapping.bounds(), (Shape{5, 4}));
  EXPECT_EQ(meta.data_file_bytes(), 20u * 48);
}

TEST(Metadata, ElementTypeSizes) {
  EXPECT_EQ(element_size(ElementType::kInt32), 4u);
  EXPECT_EQ(element_size(ElementType::kInt64), 8u);
  EXPECT_EQ(element_size(ElementType::kDouble), 8u);
  EXPECT_EQ(element_size(ElementType::kComplexDouble), 16u);
}

TEST(Metadata, SerializationRoundTrip) {
  const Metadata meta = sample();
  const auto bytes = meta.to_bytes();
  auto restored = Metadata::from_bytes(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.status();
  EXPECT_EQ(restored.value(), meta);
}

TEST(Metadata, AllElementTypesRoundTrip) {
  for (auto t : {ElementType::kInt32, ElementType::kInt64,
                 ElementType::kDouble, ElementType::kComplexDouble}) {
    for (auto o : {MemoryOrder::kRowMajor, MemoryOrder::kColMajor}) {
      Metadata meta(t, o, Shape{4}, Shape{2});
      auto restored = Metadata::from_bytes(meta.to_bytes());
      ASSERT_TRUE(restored.is_ok());
      EXPECT_EQ(restored.value().dtype, t);
      EXPECT_EQ(restored.value().in_chunk_order, o);
    }
  }
}

TEST(Metadata, RejectsBadMagic) {
  auto bytes = sample().to_bytes();
  bytes[0] = std::byte{0};
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(), ErrorCode::kCorrupt);
}

TEST(Metadata, RejectsBadVersion) {
  auto bytes = sample().to_bytes();
  bytes[4] = std::byte{99};
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(),
            ErrorCode::kUnsupported);
}

TEST(Metadata, RejectsChecksumMismatch) {
  auto bytes = sample().to_bytes();
  bytes[bytes.size() - 1] ^= std::byte{0xFF};  // corrupt the payload tail
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(), ErrorCode::kCorrupt);
}

TEST(Metadata, RejectsTruncation) {
  auto bytes = sample().to_bytes();
  for (std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{12}, std::size_t{24},
        bytes.size() - 5}) {
    auto cut = bytes;
    cut.resize(keep);
    EXPECT_FALSE(Metadata::from_bytes(cut).is_ok()) << "kept " << keep;
  }
}

TEST(Metadata, RejectsGridNotCoveringBounds) {
  Metadata meta = sample();
  meta.element_bounds = {1000, 1000};  // grid no longer covers the bounds
  EXPECT_EQ(Metadata::from_bytes(meta.to_bytes()).status().code(),
            ErrorCode::kCorrupt);
}

// ---- hostile images ------------------------------------------------------
// The .xmd header is magic u32, version u32, payload length u64 and an
// FNV-1a checksum u64 of the payload, which starts at byte 24. A hostile
// image carries a valid checksum, so these tests re-seal every patch.

constexpr std::size_t kPayload = 24;

void put_le64(std::vector<std::byte>& bytes, std::size_t at, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

/// Rewrites the header's payload length and checksum to match the bytes.
void reseal(std::vector<std::byte>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = kPayload; i < bytes.size(); ++i) {
    h ^= static_cast<std::uint64_t>(bytes[i]);
    h *= 0x100000001B3ULL;
  }
  put_le64(bytes, 8, bytes.size() - kPayload);
  put_le64(bytes, 16, h);
}

/// A compressed 8x8 array of doubles in 4x4 chunks: four 128-byte slots,
/// RLE-encoded in 40 bytes each, at offsets 0, 128, 256, 384.
Metadata rle_sample() {
  Metadata meta(ElementType::kDouble, MemoryOrder::kRowMajor, Shape{8, 8},
                Shape{4, 4});
  meta.codec = codec::CodecId::kRle;
  for (std::uint64_t q = 0; q < 4; ++q) {
    meta.chunk_table.push_back(ChunkSlot{
        q * 128, 40, 128, static_cast<std::uint8_t>(codec::CodecId::kRle)});
  }
  meta.data_end = 512;
  return meta;
}

constexpr std::size_t kSlotBytes = 8 + 4 + 4 + 1;

/// F* and F*^-1 over every chunk of a parsed mapping, when it is small
/// enough to walk: a mapping that parses must also answer (no abort, no
/// address past the end).
void expect_mapping_round_trips(const AxialMapping& m) {
  if (m.total_chunks() > 4096) return;
  for (std::uint64_t q = 0; q < m.total_chunks(); ++q) {
    ASSERT_EQ(m.address_of(m.index_of(q)), q);
  }
}

/// Byte offset of slot `q`'s offset field (the table ends the image).
std::size_t slot_at(const std::vector<std::byte>& bytes, std::size_t q) {
  return bytes.size() - (4 - q) * kSlotBytes;
}

TEST(Metadata, RejectsSlotOffsetThatOverflows) {
  auto bytes = rle_sample().to_bytes();
  ASSERT_TRUE(Metadata::from_bytes(bytes).is_ok());
  put_le64(bytes, slot_at(bytes, 0), ~std::uint64_t{0} - 4);
  reseal(bytes);
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(), ErrorCode::kCorrupt);
}

TEST(Metadata, RejectsChunkShapeWhoseSizeOverflows) {
  auto bytes = rle_sample().to_bytes();
  // dtype u8, order u8, rank u32, two element bounds, then chunk_shape.
  const std::size_t chunk_shape0 = kPayload + 1 + 1 + 4 + 2 * 8;
  put_le64(bytes, chunk_shape0, std::uint64_t{1} << 62);
  reseal(bytes);
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(), ErrorCode::kCorrupt);
}

TEST(Metadata, RejectsOverlappingLiveSlots) {
  auto bytes = rle_sample().to_bytes();
  put_le64(bytes, slot_at(bytes, 2), 128 + 20);  // inside slot 1's live bytes
  reseal(bytes);
  EXPECT_EQ(Metadata::from_bytes(bytes).status().code(), ErrorCode::kCorrupt);
  // Abutting live bytes, as a slot packed against its neighbour, are fine.
  put_le64(bytes, slot_at(bytes, 2), 128 + 40);
  reseal(bytes);
  EXPECT_TRUE(Metadata::from_bytes(bytes).is_ok());
}

// Checksum-aware mutation fuzzing: truncations, byte flips and extreme
// 64-bit values at random places of valid version-1 and version-2 images,
// re-sealed so they reach the parser. Every outcome is a parsed Metadata
// whose derived sizes are computable, or a clean error Status — never an
// abort.
TEST(Metadata, MutatedImagesParseOrFailCleanly) {
  Metadata grown = rle_sample();
  grown.mapping.extend(1, 2);  // a second axial record and history entry
  grown.element_bounds[1] = 16;
  for (std::uint64_t q = 4; q < 8; ++q) {
    grown.chunk_table.push_back(ChunkSlot{
        q * 128, 40, 128, static_cast<std::uint8_t>(codec::CodecId::kRle)});
  }
  grown.data_end = 1024;
  const std::vector<std::vector<std::byte>> images = {
      sample().to_bytes(), rle_sample().to_bytes(), grown.to_bytes()};
  constexpr std::uint64_t kExtremes[] = {
      0, 1, ~std::uint64_t{0}, ~std::uint64_t{0} - 4, std::uint64_t{1} << 62,
      std::uint64_t{1} << 32, std::uint64_t{1} << 31};
  SplitMix64 rng(0xD5A7);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    auto bytes = images[rng.next_below(images.size())];
    const std::size_t payload = bytes.size() - kPayload;
    switch (rng.next_below(3)) {
      case 0:
        bytes.resize(kPayload + rng.next_below(payload));
        break;
      case 1:
        for (int n = 1 + static_cast<int>(rng.next_below(4)); n > 0; --n) {
          bytes[kPayload + rng.next_below(payload)] ^=
              static_cast<std::byte>(1 + rng.next_below(255));
        }
        break;
      default:
        put_le64(bytes, kPayload + rng.next_below(payload - 7),
                 kExtremes[rng.next_below(std::size(kExtremes))]);
        break;
    }
    reseal(bytes);
    auto r = Metadata::from_bytes(bytes);
    if (!r.is_ok()) {
      ++rejected;
      EXPECT_NE(r.status().code(), ErrorCode::kOk);
      continue;
    }
    ++parsed;
    const Metadata& m = r.value();
    expect_mapping_round_trips(m.mapping);
    EXPECT_GE(m.data_file_bytes(), m.chunk_bytes());
    EXPECT_LE(m.stored_live_bytes(), m.compressed() ? m.data_end : ~0ULL);
    EXPECT_LE(m.stored_data_bytes(),
              m.compressed() ? m.data_end : m.data_file_bytes());
    auto again = Metadata::from_bytes(m.to_bytes());
    ASSERT_TRUE(again.is_ok()) << again.status();
    EXPECT_EQ(again.value(), m);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);  // some flips land in bytes every value of is valid
}

// The mapping parser alone, with no checksum in front of it.
TEST(AxialMappingFuzz, MutatedMappingsParseOrFailCleanly) {
  AxialMapping grown(Shape{2, 3, 2});
  grown.extend(0, 2);
  grown.extend(2, 1);
  grown.extend(0, 1);
  ByteWriter w;
  grown.serialize(w);
  const std::vector<std::byte> good(w.bytes().begin(), w.bytes().end());
  SplitMix64 rng(0xA71A);
  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = good;
    if (rng.next_below(4) == 0) {
      bytes.resize(rng.next_below(bytes.size()));
    } else {
      for (int n = 1 + static_cast<int>(rng.next_below(3)); n > 0; --n) {
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<std::byte>(1 + rng.next_below(255));
      }
    }
    ByteReader r(bytes);
    auto m = AxialMapping::deserialize(r);
    if (m.is_ok()) {
      EXPECT_EQ(m.value().total_chunks(), checked_product(m.value().bounds()));
      expect_mapping_round_trips(m.value());
    }
  }
}

}  // namespace
}  // namespace drx::core
