#include "pfs/storage.hpp"

#include <cerrno>
#include <cstring>

#include "util/checked.hpp"

namespace drx::pfs {

Status Storage::read_gather(std::uint64_t lo, std::uint64_t hi,
                            std::span<const GatherPiece> pieces) {
  DRX_RETURN_IF_ERROR(check_gather(lo, hi, pieces, size()));
  // One piece over the whole range (a lone chunk): read straight into it.
  if (pieces.size() == 1 && pieces[0].offset == lo &&
      pieces[0].out.size() == hi - lo) {
    return read_at(lo, pieces[0].out);
  }
  std::vector<std::byte> range(checked_size(hi - lo));
  DRX_RETURN_IF_ERROR(read_at(lo, range));
  for (const GatherPiece& p : pieces) {
    if (!p.out.empty()) {
      std::memcpy(p.out.data(), range.data() + (p.offset - lo), p.out.size());
    }
  }
  return Status::ok();
}

Result<std::unique_ptr<PosixStorage>> PosixStorage::open(
    const std::string& path) {
  // "r+b" requires the file to exist; fall back to "w+b" to create it.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status(ErrorCode::kIoError,
                  "cannot open " + path + ": " + std::strerror(errno));
  }
  if (std::fseek(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status(ErrorCode::kIoError, "seek failed on " + path);
  }
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return Status(ErrorCode::kIoError, "ftell failed on " + path);
  }
  return std::unique_ptr<PosixStorage>(
      new PosixStorage(f, static_cast<std::uint64_t>(end)));
}

PosixStorage::~PosixStorage() {
  if (file_ != nullptr) std::fclose(file_);
}

Status PosixStorage::read_at(std::uint64_t offset, std::span<std::byte> out) {
  if (offset + out.size() > size_) {
    return Status(ErrorCode::kOutOfRange, "read past end of file");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status(ErrorCode::kIoError, "seek failed");
  }
  if (std::fread(out.data(), 1, out.size(), file_) != out.size()) {
    return Status(ErrorCode::kIoError, "short read");
  }
  return Status::ok();
}

Status PosixStorage::write_at(std::uint64_t offset,
                              std::span<const std::byte> data) {
  if (offset > size_) {
    // Zero-fill the gap explicitly for portable sparse-write semantics.
    if (std::fseek(file_, static_cast<long>(size_), SEEK_SET) != 0) {
      return Status(ErrorCode::kIoError, "seek failed");
    }
    std::vector<std::byte> zeros(
        static_cast<std::size_t>(offset - size_), std::byte{0});
    if (std::fwrite(zeros.data(), 1, zeros.size(), file_) != zeros.size()) {
      return Status(ErrorCode::kIoError, "short write (gap fill)");
    }
  } else if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status(ErrorCode::kIoError, "seek failed");
  }
  if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
    return Status(ErrorCode::kIoError, "short write");
  }
  size_ = std::max(size_, offset + data.size());
  return Status::ok();
}

Status PosixStorage::truncate(std::uint64_t new_size) {
  // C stdio has no portable truncate; emulate growth (shrink is only used
  // by tests, which run on MemStorage). Growth: extend with zeros.
  if (new_size > size_) {
    std::vector<std::byte> zeros(1, std::byte{0});
    DRX_RETURN_IF_ERROR(write_at(new_size - 1, zeros));
    return Status::ok();
  }
  if (new_size < size_) {
    return Status(ErrorCode::kUnsupported,
                  "PosixStorage does not support shrinking");
  }
  return Status::ok();
}

Status PosixStorage::flush() {
  if (std::fflush(file_) != 0) {
    return Status(ErrorCode::kIoError, "fflush failed");
  }
  return Status::ok();
}

}  // namespace drx::pfs
