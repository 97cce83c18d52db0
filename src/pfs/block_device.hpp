// A simulated disk: byte-addressable storage with a moving head. One
// BlockDevice backs one datafile (one file's stripes on one I/O server),
// mirroring PVFS2's per-server datafile layout.
//
// The datafile is sparse and paged: its bytes live in fixed kPageBytes
// pages, each allocated (zeroed) when a write first touches it. A page
// that was never written reads as zeros and holds no memory, so growing
// the file — a write past the end, truncate up, or a Pfs read of a hole —
// only moves size() and never copies what is already stored, the way
// the paper extends an array without reorganizing written data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pfs/cost_model.hpp"
#include "util/error.hpp"

namespace drx::pfs {

/// One live piece of a sieved read (data sieving): the bytes
/// [offset, offset + out.size()) land in `out`.
struct GatherPiece {
  std::uint64_t offset = 0;
  std::span<std::byte> out;
};

/// kOutOfRange unless lo <= hi <= size and every piece lies in [lo, hi).
[[nodiscard]] Status check_gather(std::uint64_t lo, std::uint64_t hi,
                                  std::span<const GatherPiece> pieces,
                                  std::uint64_t size);

class BlockDevice {
 public:
  /// The unit of allocation: the default 64 KiB PFS stripe.
  static constexpr std::size_t kPageBytes = 64 * 1024;

  explicit BlockDevice(const CostModel* model) : model_(model) {
    DRX_CHECK(model != nullptr);
  }

  /// Reads [offset, offset+out.size()): read_gather over one piece.
  /// Error if the range passes EOF or its end overflows.
  [[nodiscard]] Status read(std::uint64_t offset, std::span<std::byte> out);

  /// Reads [lo, hi) as ONE request (one seek at most, busy time and
  /// bytes_read for hi - lo) but copies only `pieces`, each of which
  /// must lie inside [lo, hi); error if hi passes EOF.
  [[nodiscard]] Status read_gather(std::uint64_t lo, std::uint64_t hi,
                                   std::span<const GatherPiece> pieces);

  /// Writes at offset; a gap before it reads as zeros (sparse write
  /// semantics). Error if the range end overflows.
  [[nodiscard]] Status write(std::uint64_t offset, std::span<const std::byte> data);

  /// Growth only moves size(); shrinking frees the pages past the new
  /// end and zeroes the cut tail, so a later growth reads zeros there.
  [[nodiscard]] Status truncate(std::uint64_t new_size);

  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

  /// Bytes held by allocated pages (tests and diagnostics).
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

 private:
  /// Charges seek (if the head moved) + transfer + request costs.
  void charge(std::uint64_t offset, std::uint64_t nbytes, bool is_write);

  /// Copies [offset, offset+out.size()) out of the pages; holes read
  /// as zeros. The range must lie inside size().
  void copy_out(std::uint64_t offset, std::span<std::byte> out) const;

  const CostModel* model_;
  /// Page i holds bytes [i * kPageBytes, (i+1) * kPageBytes); null (or
  /// past the table's end) means never written. Bytes at or past size_
  /// are always zero.
  std::vector<std::unique_ptr<std::byte[]>> pages_;
  std::uint64_t size_ = 0;
  std::uint64_t head_ = 0;  ///< byte position after the last access
  IoStats stats_;
};

}  // namespace drx::pfs
