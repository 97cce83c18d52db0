// A simulated disk: byte-addressable, grow-on-write storage with a moving
// head. One BlockDevice backs one datafile (one file's stripes on one I/O
// server), mirroring PVFS2's per-server datafile layout.
#pragma once

#include <cstddef>
#include <cstdint>
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
  explicit BlockDevice(const CostModel* model) : model_(model) {
    DRX_CHECK(model != nullptr);
  }

  /// Reads [offset, offset+out.size()); error if the range passes EOF.
  [[nodiscard]] Status read(std::uint64_t offset, std::span<std::byte> out);

  /// Reads [lo, hi) as ONE request (one seek at most, busy time and
  /// bytes_read for hi - lo) but copies only `pieces`, each of which
  /// must lie inside [lo, hi); error if hi passes EOF.
  [[nodiscard]] Status read_gather(std::uint64_t lo, std::uint64_t hi,
                                   std::span<const GatherPiece> pieces);

  /// Writes at offset, zero-filling any gap (sparse write semantics).
  [[nodiscard]] Status write(std::uint64_t offset, std::span<const std::byte> data);

  [[nodiscard]] Status truncate(std::uint64_t new_size);

  [[nodiscard]] std::uint64_t size() const noexcept { return data_.size(); }
  [[nodiscard]] const IoStats& stats() const noexcept { return stats_; }

 private:
  /// Charges seek (if the head moved) + transfer + request costs.
  void charge(std::uint64_t offset, std::uint64_t nbytes, bool is_write);

  const CostModel* model_;
  std::vector<std::byte> data_;
  std::uint64_t head_ = 0;  ///< byte position after the last access
  IoStats stats_;
};

}  // namespace drx::pfs
