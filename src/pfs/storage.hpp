// Byte-addressable storage abstraction used by the serial DRX library.
//
// The paper's serial DRX runs on "any POSIX-compliant Unix file system";
// DRX-MP runs on a parallel file system through MPI-IO. Both paths in this
// reproduction go through small interfaces so the core array logic is
// storage-agnostic:
//   - PosixStorage  — a real file on the host file system
//   - MemStorage    — in-memory, with the simulator's cost accounting
//   - PfsStorage    — adapter over a striped pfs::FileHandle
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pfs/block_device.hpp"
#include "pfs/pfs.hpp"
#include "util/error.hpp"

namespace drx::pfs {

class Storage {
 public:
  virtual ~Storage() = default;

  virtual Status read_at(std::uint64_t offset, std::span<std::byte> out) = 0;
  [[nodiscard]] virtual Status write_at(std::uint64_t offset,
                          std::span<const std::byte> data) = 0;
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  virtual Status truncate(std::uint64_t new_size) = 0;
  virtual Status flush() = 0;

  /// Data sieving: reads [lo, hi) as ONE request but copies only
  /// `pieces` (each inside [lo, hi)), so the hole bytes between them
  /// cost transfer time and no copy. kOutOfRange if hi passes EOF or a
  /// piece leaves the range. The default reads the range with one
  /// read_at into a temporary, or straight into the one piece that spans
  /// it; MemStorage gathers on the device itself.
  [[nodiscard]] virtual Status read_gather(std::uint64_t lo, std::uint64_t hi,
                                           std::span<const GatherPiece> pieces);

  /// Holes shorter than this are cheaper to read across than to skip
  /// with a new request. 0 (never read a hole) unless one CostModel
  /// charges every request of this storage: a real file has no model,
  /// and a striped file splits a range into one request per server.
  [[nodiscard]] virtual std::uint64_t sieve_gap_bytes() const { return 0; }
};

/// In-memory storage with simulated-cost accounting (single "server").
class MemStorage final : public Storage {
 public:
  explicit MemStorage(CostModel model = CostModel{})
      : model_(model), device_(&model_) {}

  [[nodiscard]] Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return device_.read(offset, out);
  }
  [[nodiscard]] Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    return device_.write(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return device_.size(); }
  [[nodiscard]] Status truncate(std::uint64_t new_size) override {
    return device_.truncate(new_size);
  }
  [[nodiscard]] Status flush() override { return Status::ok(); }
  [[nodiscard]] Status read_gather(
      std::uint64_t lo, std::uint64_t hi,
      std::span<const GatherPiece> pieces) override {
    return device_.read_gather(lo, hi, pieces);
  }
  [[nodiscard]] std::uint64_t sieve_gap_bytes() const override {
    return model_.sieve_gap_bytes();
  }

  [[nodiscard]] const IoStats& stats() const { return device_.stats(); }

 private:
  CostModel model_;
  BlockDevice device_;
};

/// A real file on the host file system (the POSIX path of serial DRX).
class PosixStorage final : public Storage {
 public:
  /// Opens (creating if absent) `path` for read/write.
  [[nodiscard]] static Result<std::unique_ptr<PosixStorage>> open(const std::string& path);

  ~PosixStorage() override;
  PosixStorage(const PosixStorage&) = delete;
  PosixStorage& operator=(const PosixStorage&) = delete;

  [[nodiscard]] Status read_at(std::uint64_t offset, std::span<std::byte> out) override;
  [[nodiscard]] Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override;
  [[nodiscard]] std::uint64_t size() const override { return size_; }
  [[nodiscard]] Status truncate(std::uint64_t new_size) override;
  [[nodiscard]] Status flush() override;

 private:
  explicit PosixStorage(std::FILE* f, std::uint64_t size)
      : file_(f), size_(size) {}

  std::FILE* file_;
  std::uint64_t size_;
};

/// Adapter presenting a striped PFS file as Storage.
class PfsStorage final : public Storage {
 public:
  explicit PfsStorage(FileHandle handle) : handle_(std::move(handle)) {
    DRX_CHECK(handle_.valid());
  }

  [[nodiscard]] Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return handle_.read_at(offset, out);
  }
  [[nodiscard]] Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    return handle_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return handle_.size(); }
  [[nodiscard]] Status truncate(std::uint64_t new_size) override {
    return handle_.truncate(new_size);
  }
  [[nodiscard]] Status flush() override { return Status::ok(); }

 private:
  FileHandle handle_;
};

}  // namespace drx::pfs
