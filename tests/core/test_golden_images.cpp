// Golden .xmd/.xta images (tests/golden): arrays written by an earlier
// build, checked in so that every later build proves it still opens the
// on-disk format and reads every element back.
//
//   v1_raw  int32, raw (version-1 .xmd): created 4x6 in 2x3 chunks and
//           written, extended along D0 by 2 and written, extended along
//           D1 by 3 and written; element (i, j) = i * 100 + j + 1.
//   v2_rle  double, RLE (version-2 .xmd): created 16x16 in 8x8 chunks and
//           filled with 1.0 (tiny slots), extended along D1 by 8, then
//           rewritten whole with element (i, j) = i * 100 + (j / 4) * 10
//           + 0.5, whose chunks outgrow their slots and relocate.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/drx_file.hpp"
#include "util/checked.hpp"

namespace drx::core {
namespace {

namespace fs = std::filesystem;

/// Opens a copy of golden image `name`, so the checked-in files stay
/// untouched whatever open writes.
DrxFile open_golden(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "drx_golden";
  fs::create_directories(dir);
  for (const char* ext : {".xmd", ".xta"}) {
    fs::copy_file(fs::path(DRX_GOLDEN_DIR) / (name + ext), dir / (name + ext),
                  fs::copy_options::overwrite_existing);
  }
  auto opened = DrxFile::open_posix((dir / name).string());
  EXPECT_TRUE(opened.is_ok()) << opened.status();
  return std::move(opened).value();
}

/// The version word of an .xmd image (after the 4-byte magic).
std::uint32_t xmd_version(const std::string& name) {
  std::ifstream in(fs::path(DRX_GOLDEN_DIR) / (name + ".xmd"),
                   std::ios::binary);
  unsigned char head[8] = {};
  in.read(reinterpret_cast<char*>(head), sizeof(head));
  EXPECT_TRUE(in.good());
  return static_cast<std::uint32_t>(head[4] | head[5] << 8 | head[6] << 16 |
                                    head[7] << 24);
}

template <typename T>
std::vector<T> read_all(DrxFile& file) {
  const Box whole{Index(file.bounds().size(), 0), Index(file.bounds())};
  std::vector<T> out(checked_size(whole.volume()));
  EXPECT_TRUE(file.read_box(whole, MemoryOrder::kRowMajor,
                            std::as_writable_bytes(std::span(out)))
                  .is_ok());
  return out;
}

TEST(GoldenImages, RawArrayExtendedAlongEachDimension) {
  EXPECT_EQ(xmd_version("v1_raw"), Metadata::kVersion);
  DrxFile file = open_golden("v1_raw");
  const Metadata& m = file.metadata();
  EXPECT_EQ(m.dtype, ElementType::kInt32);
  EXPECT_EQ(m.codec, codec::CodecId::kNone);
  EXPECT_EQ(file.bounds(), (Shape{6, 9}));
  EXPECT_EQ(m.mapping.total_chunks(), 9u);
  // One expansion record per extension on top of the initial block's.
  EXPECT_EQ(m.mapping.axial_vector(0).records().size(), 2u);
  EXPECT_EQ(m.mapping.axial_vector(1).records().size(), 2u);
  const std::vector<std::int32_t> v = read_all<std::int32_t>(file);
  std::size_t k = 0;
  for (std::uint64_t i = 0; i < 6; ++i) {
    for (std::uint64_t j = 0; j < 9; ++j) {
      ASSERT_EQ(v[k++], static_cast<std::int32_t>(i * 100 + j + 1))
          << i << "," << j;
    }
  }
}

TEST(GoldenImages, RleArrayWithRelocatedSlots) {
  EXPECT_EQ(xmd_version("v2_rle"), Metadata::kVersionCompressed);
  DrxFile file = open_golden("v2_rle");
  const Metadata& m = file.metadata();
  EXPECT_EQ(m.dtype, ElementType::kDouble);
  EXPECT_EQ(m.codec, codec::CodecId::kRle);
  EXPECT_EQ(file.bounds(), (Shape{16, 24}));
  ASSERT_EQ(m.chunk_table.size(), 6u);
  std::uint64_t capacity = 0;
  for (const ChunkSlot& slot : m.chunk_table) {
    EXPECT_EQ(slot.codec, static_cast<std::uint8_t>(codec::CodecId::kRle));
    EXPECT_LT(slot.stored, m.chunk_bytes());
    capacity += slot.capacity;
  }
  // Relocation leaks the outgrown slot: the file ends past the live ones.
  EXPECT_GT(m.data_end, capacity);
  const std::vector<double> v = read_all<double>(file);
  std::size_t k = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    for (std::uint64_t j = 0; j < 24; ++j) {
      ASSERT_EQ(v[k++], static_cast<double>(i * 100 + (j / 4) * 10) + 0.5)
          << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace drx::core
