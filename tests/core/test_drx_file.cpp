#include "core/drx_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "util/checked.hpp"
#include "util/rng.hpp"

namespace drx::core {
namespace {

DrxFile::Options dbl_opts(MemoryOrder order = MemoryOrder::kRowMajor) {
  DrxFile::Options o;
  o.dtype = ElementType::kDouble;
  o.in_chunk_order = order;
  return o;
}

DrxFile make_mem(Shape bounds, Shape chunk,
                 DrxFile::Options opts = DrxFile::Options{}) {
  auto file = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                              std::make_unique<pfs::MemStorage>(),
                              std::move(bounds), std::move(chunk), opts);
  EXPECT_TRUE(file.is_ok()) << file.status();
  return std::move(file).value();
}

TEST(DrxFile, CreateInitializesZeroed) {
  DrxFile f = make_mem(Shape{4, 6}, Shape{2, 3}, dbl_opts());
  EXPECT_EQ(f.bounds(), (Shape{4, 6}));
  for_each_index(Box{{0, 0}, {4, 6}}, [&](const Index& idx) {
    auto v = f.get<double>(idx);
    ASSERT_TRUE(v.is_ok());
    EXPECT_EQ(v.value(), 0.0);
  });
}

TEST(DrxFile, ElementSetGetRoundTrip) {
  DrxFile f = make_mem(Shape{5, 7}, Shape{2, 3}, dbl_opts());
  for_each_index(Box{{0, 0}, {5, 7}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, 100.0 * static_cast<double>(idx[0]) +
                                       static_cast<double>(idx[1]))
                    .is_ok());
  });
  for_each_index(Box{{0, 0}, {5, 7}}, [&](const Index& idx) {
    EXPECT_EQ(f.get<double>(idx).value(),
              100.0 * static_cast<double>(idx[0]) +
                  static_cast<double>(idx[1]));
  });
}

TEST(DrxFile, OutOfBoundsIsError) {
  DrxFile f = make_mem(Shape{4, 4}, Shape{2, 2}, dbl_opts());
  EXPECT_EQ(f.get<double>(Index{4, 0}).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(f.set<double>(Index{0, 4}, 1.0).code(), ErrorCode::kOutOfRange);
  double buf[4];
  EXPECT_EQ(f.read_box(Box{{0, 0}, {1, 5}}, MemoryOrder::kRowMajor,
                       std::as_writable_bytes(std::span<double>(buf)))
                .code(),
            ErrorCode::kOutOfRange);
}

TEST(DrxFile, ExtendPreservesData) {
  DrxFile f = make_mem(Shape{4, 4}, Shape{2, 2}, dbl_opts());
  for_each_index(Box{{0, 0}, {4, 4}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, 10.0 * static_cast<double>(idx[0]) +
                                       static_cast<double>(idx[1]))
                    .is_ok());
  });
  ASSERT_TRUE(f.extend(1, 4).is_ok());
  ASSERT_TRUE(f.extend(0, 2).is_ok());
  EXPECT_EQ(f.bounds(), (Shape{6, 8}));
  // Old elements unchanged; new region zeroed.
  for_each_index(Box{{0, 0}, {6, 8}}, [&](const Index& idx) {
    const double expect = (idx[0] < 4 && idx[1] < 4)
                              ? 10.0 * static_cast<double>(idx[0]) +
                                    static_cast<double>(idx[1])
                              : 0.0;
    EXPECT_EQ(f.get<double>(idx).value(), expect) << idx[0] << "," << idx[1];
  });
}

TEST(DrxFile, ExtendWithinSlackAddsNoChunks) {
  // Bounds 3 with chunk extent 2: the grid has 2 chunk rows covering 4
  // element rows; extending 3 -> 4 stays within the allocated slack.
  DrxFile f = make_mem(Shape{3, 4}, Shape{2, 2}, dbl_opts());
  const std::uint64_t size_before = f.data_storage().size();
  ASSERT_TRUE(f.extend(0, 1).is_ok());
  EXPECT_EQ(f.data_storage().size(), size_before);
  ASSERT_TRUE(f.extend(0, 1).is_ok());  // now a new segment is needed
  EXPECT_GT(f.data_storage().size(), size_before);
}

// Raw create and extend grow the .xta by truncate: neither rewrites
// existing bytes nor writes zeros for new ones (no data write request),
// and every new chunk still reads as zeros.
TEST(DrxFile, ExtendNeverRewritesExistingBytes) {
  DrxFile f = make_mem(Shape{5, 6}, Shape{2, 4}, dbl_opts());
  const pfs::IoStats& stats =
      static_cast<pfs::MemStorage&>(f.data_storage()).stats();
  EXPECT_EQ(f.data_storage().size(), f.metadata().data_file_bytes());
  EXPECT_EQ(stats.write_requests, 0u);
  ASSERT_TRUE(f.extend(0, 3).is_ok());
  ASSERT_TRUE(f.extend(1, 5).is_ok());
  EXPECT_EQ(f.data_storage().size(), f.metadata().data_file_bytes());
  EXPECT_EQ(stats.write_requests, 0u);
  EXPECT_EQ(stats.bytes_written, 0u);
  std::vector<double> out(8 * 11, -1.0);
  ASSERT_TRUE(f.read_box(Box{{0, 0}, {8, 11}}, MemoryOrder::kRowMajor,
                         std::as_writable_bytes(std::span<double>(out)))
                  .is_ok());
  EXPECT_EQ(out, std::vector<double>(8 * 11, 0.0));
}

/// A MemStorage whose writes fail while `*fail` is set.
class FailingWrites final : public pfs::Storage {
 public:
  explicit FailingWrites(const bool* fail) : fail_(fail) {}
  Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return inner_.read_at(offset, out);
  }
  Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    if (*fail_) return Status(ErrorCode::kIoError, "injected write failure");
    return inner_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  Status truncate(std::uint64_t new_size) override {
    return inner_.truncate(new_size);
  }
  Status flush() override { return Status::ok(); }

 private:
  const bool* fail_;
  pfs::MemStorage inner_;
};

std::unique_ptr<pfs::MemStorage> copy_of(pfs::Storage& src) {
  auto dst = std::make_unique<pfs::MemStorage>();
  std::vector<std::byte> buf(checked_size(src.size()));
  EXPECT_TRUE(src.read_at(0, buf).is_ok());
  EXPECT_TRUE(dst->write_at(0, buf).is_ok());
  return dst;
}

// The one metadata writer overwrites the image in place: a write that
// fails leaves the previous image, which still opens.
TEST(DrxFile, FailedMetadataWriteKeepsThePreviousImage) {
  bool fail = false;
  auto created = DrxFile::create(std::make_unique<FailingWrites>(&fail),
                                 std::make_unique<pfs::MemStorage>(),
                                 Shape{4, 4}, Shape{2, 2}, dbl_opts());
  ASSERT_TRUE(created.is_ok()) << created.status();
  DrxFile f = std::move(created).value();
  ASSERT_TRUE(f.set<double>(Index{3, 3}, 7.0).is_ok());
  const std::vector<std::byte> image = f.metadata().to_bytes();
  fail = true;
  EXPECT_EQ(f.extend(1, 4).code(), ErrorCode::kIoError);
  EXPECT_EQ(write_metadata(f.meta_storage(), f.metadata()).code(),
            ErrorCode::kIoError);
  fail = false;
  std::vector<std::byte> stored(checked_size(f.meta_storage().size()));
  ASSERT_TRUE(f.meta_storage().read_at(0, stored).is_ok());
  EXPECT_EQ(stored, image);
  auto reopened =
      DrxFile::open(copy_of(f.meta_storage()), copy_of(f.data_storage()));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_EQ(reopened.value().bounds(), (Shape{4, 4}));
  EXPECT_EQ(reopened.value().get<double>(Index{3, 3}).value(), 7.0);
}

class BoxIoP : public ::testing::TestWithParam<
                   std::tuple<MemoryOrder, MemoryOrder>> {};

TEST_P(BoxIoP, WriteThenReadBackAnyOrderCombination) {
  const auto [chunk_order, io_order] = GetParam();
  DrxFile f = make_mem(Shape{7, 9}, Shape{3, 4}, dbl_opts(chunk_order));

  const Box box{{1, 2}, {6, 8}};
  const std::size_t n = static_cast<std::size_t>(box.volume());
  std::vector<double> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = 1000.0 + static_cast<double>(i);
  ASSERT_TRUE(f.write_box(box, io_order,
                          std::as_bytes(std::span<const double>(data)))
                  .is_ok());

  std::vector<double> out(n, -1.0);
  ASSERT_TRUE(f.read_box(box, io_order,
                         std::as_writable_bytes(std::span<double>(out)))
                  .is_ok());
  EXPECT_EQ(out, data);

  // Element-level cross-check.
  const Shape box_shape = box.shape();
  for_each_index(box, [&](const Index& idx) {
    Index rel = {idx[0] - box.lo[0], idx[1] - box.lo[1]};
    const std::uint64_t pos = linearize(rel, box_shape, io_order);
    EXPECT_EQ(f.get<double>(idx).value(), data[pos]);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Orders, BoxIoP,
    ::testing::Combine(::testing::Values(MemoryOrder::kRowMajor,
                                         MemoryOrder::kColMajor),
                       ::testing::Values(MemoryOrder::kRowMajor,
                                         MemoryOrder::kColMajor)));

TEST(DrxFile, TransposeOnReadMatchesExplicitTranspose) {
  DrxFile f = make_mem(Shape{6, 5}, Shape{2, 2}, dbl_opts());
  const Box full{{0, 0}, {6, 5}};
  std::vector<double> row_major(30);
  for (std::size_t i = 0; i < 30; ++i) row_major[i] = static_cast<double>(i);
  ASSERT_TRUE(f.write_box(full, MemoryOrder::kRowMajor,
                          std::as_bytes(std::span<const double>(row_major)))
                  .is_ok());

  std::vector<double> col_major(30);
  ASSERT_TRUE(f.read_box(full, MemoryOrder::kColMajor,
                         std::as_writable_bytes(std::span<double>(col_major)))
                  .is_ok());
  for (std::uint64_t i = 0; i < 6; ++i) {
    for (std::uint64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(col_major[j * 6 + i], row_major[i * 5 + j]);
    }
  }
}

TEST(DrxFile, ScanReadAllMatchesBoxRead) {
  DrxFile f = make_mem(Shape{9, 7}, Shape{4, 3}, dbl_opts());
  SplitMix64 rng(5);
  for_each_index(Box{{0, 0}, {9, 7}}, [&](const Index& idx) {
    ASSERT_TRUE(f.set<double>(idx, rng.next_double()).is_ok());
  });
  ASSERT_TRUE(f.extend(0, 3).is_ok());
  ASSERT_TRUE(f.extend(1, 5).is_ok());

  const Box full{{0, 0}, f.bounds()};
  const std::size_t n = static_cast<std::size_t>(full.volume());
  for (auto order : {MemoryOrder::kRowMajor, MemoryOrder::kColMajor}) {
    std::vector<double> via_box(n), via_scan(n);
    ASSERT_TRUE(
        f.read_box(full, order,
                   std::as_writable_bytes(std::span<double>(via_box)))
            .is_ok());
    ASSERT_TRUE(f.scan_read_all(
                     order, std::as_writable_bytes(std::span<double>(via_scan)))
                    .is_ok());
    EXPECT_EQ(via_scan, via_box);
  }
}

TEST(DrxFile, ScanReadIsSequentialOnDisk) {
  DrxFile f = make_mem(Shape{16, 16}, Shape{4, 4}, dbl_opts());
  ASSERT_TRUE(f.extend(0, 8).is_ok());
  ASSERT_TRUE(f.extend(1, 8).is_ok());
  auto& stats = static_cast<pfs::MemStorage&>(f.data_storage()).stats();
  const std::uint64_t seeks_before = stats.seeks;
  std::vector<double> out(24 * 24);
  ASSERT_TRUE(f.scan_read_all(MemoryOrder::kRowMajor,
                              std::as_writable_bytes(std::span<double>(out)))
                  .is_ok());
  // One pass: at most one initial seek.
  EXPECT_LE(stats.seeks - seeks_before, 1u);
}

TEST(DrxFile, Int32AndComplexTypes) {
  {
    DrxFile::Options o;
    o.dtype = ElementType::kInt32;
    DrxFile f = make_mem(Shape{4}, Shape{2}, o);
    ASSERT_TRUE(f.set<std::int32_t>(Index{3}, -7).is_ok());
    EXPECT_EQ(f.get<std::int32_t>(Index{3}).value(), -7);
  }
  {
    DrxFile::Options o;
    o.dtype = ElementType::kComplexDouble;
    DrxFile f = make_mem(Shape{3, 3}, Shape{2, 2}, o);
    const std::complex<double> z{1.5, -2.5};
    ASSERT_TRUE(f.set<std::complex<double>>(Index{2, 2}, z).is_ok());
    EXPECT_EQ((f.get<std::complex<double>>(Index{2, 2})).value(), z);
  }
}

TEST(DrxFile, PersistAndReopenThroughMemStorage) {
  // Snapshot copies of both storages, taken while the file is still open
  // (the DrxFile owns the storages, so raw pointers die with it).
  auto copy_of = [](pfs::Storage& src) {
    auto dst = std::make_unique<pfs::MemStorage>();
    std::vector<std::byte> buf(static_cast<std::size_t>(src.size()));
    EXPECT_TRUE(src.read_at(0, buf).is_ok());
    EXPECT_TRUE(dst->write_at(0, buf).is_ok());
    return dst;
  };
  std::unique_ptr<pfs::MemStorage> meta_copy, data_copy;
  {
    auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                             std::make_unique<pfs::MemStorage>(),
                             Shape{4, 4}, Shape{2, 2}, dbl_opts());
    ASSERT_TRUE(f.is_ok());
    ASSERT_TRUE(f.value().set<double>(Index{3, 3}, 42.0).is_ok());
    ASSERT_TRUE(f.value().extend(0, 4).is_ok());
    ASSERT_TRUE(f.value().set<double>(Index{7, 0}, 7.0).is_ok());
    ASSERT_TRUE(f.value().flush().is_ok());
    meta_copy = copy_of(f.value().meta_storage());
    data_copy = copy_of(f.value().data_storage());
  }

  auto reopened = DrxFile::open(std::move(meta_copy), std::move(data_copy));
  ASSERT_TRUE(reopened.is_ok()) << reopened.status();
  EXPECT_EQ(reopened.value().bounds(), (Shape{8, 4}));
  EXPECT_EQ(reopened.value().get<double>(Index{3, 3}).value(), 42.0);
  EXPECT_EQ(reopened.value().get<double>(Index{7, 0}).value(), 7.0);
  EXPECT_EQ(reopened.value().get<double>(Index{5, 2}).value(), 0.0);
}

TEST(DrxFile, PosixBackendEndToEnd) {
  const std::string name =
      (std::filesystem::temp_directory_path() / "drx_posix_array").string();
  std::remove((name + ".xmd").c_str());
  std::remove((name + ".xta").c_str());
  {
    auto f = DrxFile::create_posix(name, Shape{6, 6}, Shape{2, 3}, dbl_opts());
    ASSERT_TRUE(f.is_ok()) << f.status();
    ASSERT_TRUE(f.value().set<double>(Index{5, 5}, 3.25).is_ok());
    ASSERT_TRUE(f.value().extend(1, 6).is_ok());
    ASSERT_TRUE(f.value().set<double>(Index{0, 11}, -1.5).is_ok());
  }
  {
    auto f = DrxFile::open_posix(name);
    ASSERT_TRUE(f.is_ok()) << f.status();
    EXPECT_EQ(f.value().bounds(), (Shape{6, 12}));
    EXPECT_EQ(f.value().get<double>(Index{5, 5}).value(), 3.25);
    EXPECT_EQ(f.value().get<double>(Index{0, 11}).value(), -1.5);
  }
  std::remove((name + ".xmd").c_str());
  std::remove((name + ".xta").c_str());
}

TEST(DrxFile, RandomizedMirrorProperty) {
  // DRX behaves exactly like a dense in-memory array under random
  // interleavings of writes, reads and extensions.
  DrxFile f = make_mem(Shape{3, 3}, Shape{2, 2}, dbl_opts());
  Shape bounds{3, 3};
  std::vector<double> mirror(9, 0.0);
  SplitMix64 rng(77);

  auto mirror_at = [&](const Index& idx) -> double& {
    return mirror[static_cast<std::size_t>(
        linearize(idx, bounds, MemoryOrder::kRowMajor))];
  };

  for (int op = 0; op < 400; ++op) {
    const auto choice = rng.next_below(10);
    if (choice < 4) {  // write element
      Index idx{rng.next_below(bounds[0]), rng.next_below(bounds[1])};
      const double v = rng.next_double();
      ASSERT_TRUE(f.set<double>(idx, v).is_ok());
      mirror_at(idx) = v;
    } else if (choice < 8) {  // read element
      Index idx{rng.next_below(bounds[0]), rng.next_below(bounds[1])};
      ASSERT_EQ(f.get<double>(idx).value(), mirror_at(idx));
    } else if (bounds[0] * bounds[1] < 800) {  // extend
      const std::size_t dim = rng.next_below(2);
      const std::uint64_t delta = rng.next_in(1, 3);
      ASSERT_TRUE(f.extend(dim, delta).is_ok());
      // Grow the mirror (row-major reshuffle done index-wise).
      Shape new_bounds = bounds;
      new_bounds[dim] += delta;
      std::vector<double> grown(
          static_cast<std::size_t>(new_bounds[0] * new_bounds[1]), 0.0);
      for_each_index(Box{{0, 0}, bounds}, [&](const Index& idx) {
        grown[static_cast<std::size_t>(
            linearize(idx, new_bounds, MemoryOrder::kRowMajor))] =
            mirror_at(idx);
      });
      bounds = new_bounds;
      mirror = std::move(grown);
    }
  }
  // Final full sweep.
  for_each_index(Box{{0, 0}, bounds}, [&](const Index& idx) {
    ASSERT_EQ(f.get<double>(idx).value(), mirror_at(idx));
  });
}

}  // namespace
}  // namespace drx::core
