// Derived datatypes (MPI_Type_contiguous / vector / indexed / hindexed /
// create_subarray) and pack/unpack.
//
// A Datatype is represented eagerly in flattened form: a sorted,
// coalesced list of (byte offset, byte length) blocks describing one item,
// plus the item extent (the stride applied between consecutive items of a
// count > 1 transfer, and between consecutive tiles of a file view).
//
// Eager flattening trades construction cost for trivially correct pack,
// unpack and file-view logic; DRX-MP builds datatypes at chunk granularity
// (thousands of blocks, not billions), so the trade is a good one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace drx::simpi {

/// Memory layout order for subarray types (MPI_ORDER_C / MPI_ORDER_FORTRAN).
enum class Order { kC, kFortran };

struct Block {
  std::uint64_t offset = 0;  ///< bytes from the item origin
  std::uint64_t length = 0;  ///< bytes

  friend bool operator==(const Block&, const Block&) = default;
};

class Datatype {
 public:
  /// Contiguous run of `n` raw bytes (the basic type; MPI_BYTE xN).
  static Datatype bytes(std::uint64_t n);

  /// `count` consecutive copies of `base` (MPI_Type_contiguous).
  static Datatype contiguous(std::uint64_t count, const Datatype& base);

  /// `count` blocks of `blocklen` base items, regularly strided by
  /// `stride` base extents (MPI_Type_vector).
  static Datatype vector(std::uint64_t count, std::uint64_t blocklen,
                         std::uint64_t stride, const Datatype& base);

  /// Irregular blocks: block i has blocklens[i] base items displaced by
  /// displs[i] base extents (MPI_Type_indexed). Displacements need not be
  /// monotonic, but blocks must not overlap.
  static Datatype indexed(std::span<const std::uint64_t> blocklens,
                          std::span<const std::uint64_t> displs,
                          const Datatype& base);

  /// Like indexed, but displacements are in bytes (MPI_Type_create_hindexed).
  static Datatype hindexed(std::span<const std::uint64_t> blocklens,
                           std::span<const std::uint64_t> byte_displs,
                           const Datatype& base);

  /// k-dimensional subarray of a containing array (MPI_Type_create_subarray):
  /// the item extent is the full array, the payload is the sub-block at
  /// `starts` of shape `subsizes`.
  static Datatype subarray(std::span<const std::uint64_t> sizes,
                           std::span<const std::uint64_t> subsizes,
                           std::span<const std::uint64_t> starts, Order order,
                           const Datatype& base);

  /// Overrides the extent (MPI_Type_create_resized).
  [[nodiscard]] Datatype resized(std::uint64_t new_extent) const;

  /// Total payload bytes of one item (MPI_Type_size).
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Stride between consecutive items (MPI_Type_get_extent).
  [[nodiscard]] std::uint64_t extent() const noexcept { return extent_; }

  /// Flattened blocks of one item in declaration (type-map) order, with
  /// consecutive physically-adjacent runs merged. Declaration order is
  /// semantic: pack/unpack traverse blocks in this order.
  [[nodiscard]] std::span<const Block> blocks() const noexcept {
    return blocks_;
  }

  /// True when block offsets are non-decreasing in declaration order —
  /// the requirement MPI places on file-view filetypes.
  [[nodiscard]] bool is_monotonic() const noexcept;

  /// A position in the packed stream of `count` items: the one traversal
  /// of blocks() x count. gather/scatter move the next bytes of the
  /// stream between a memory region laid out by the type and any span,
  /// so a stream can be produced or consumed in segments (one per
  /// message or piece) without being staged whole.
  class Cursor {
   public:
    Cursor(const Datatype& type, std::uint64_t count);

    /// Copies the next out.size() packed bytes of the items at `src`
    /// into `out`.
    void gather(const std::byte* src, std::span<std::byte> out);

    /// Copies `in` into the next in.size() packed positions of the items
    /// at `dst`.
    void scatter(std::span<const std::byte> in, std::byte* dst);

    /// Packed bytes not yet visited.
    [[nodiscard]] std::uint64_t remaining() const noexcept {
      return total_ - done_;
    }

   private:
    /// Calls fn(memory_offset, stream_offset, length) for each block
    /// slice of the next n packed bytes, stream offsets counted from the
    /// cursor's position on entry.
    template <typename Fn>
    void walk(std::uint64_t n, Fn&& fn);

    const Datatype* type_;
    std::uint64_t total_;
    std::uint64_t done_ = 0;
    std::uint64_t item_ = 0;      ///< current item
    std::size_t block_ = 0;       ///< current block of the item
    std::uint64_t in_block_ = 0;  ///< bytes of that block already visited
  };

  /// Gathers `count` items starting at `src` into `out` (appended), in
  /// declaration order: one Cursor over the whole stream.
  void pack(const std::byte* src, std::uint64_t count,
            std::vector<std::byte>& out) const;

  /// Scatters packed payload back into `dst`. `in` must hold exactly
  /// `count * size()` bytes.
  void unpack(std::span<const std::byte> in, std::uint64_t count,
              std::byte* dst) const;

  /// Number of bytes the memory region of `count` items spans (distance
  /// from item 0 origin to the end of the last byte touched).
  [[nodiscard]] std::uint64_t span_bytes(std::uint64_t count) const;

 private:
  Datatype(std::vector<Block> blocks, std::uint64_t extent);

  static void normalize(std::vector<Block>& blocks);

  /// True when one item is a single gap-free block (payload == extent).
  /// Builders exploit this to emit one Block per *run* instead of one per
  /// base item — the run-granular fast path of docs/PERFORMANCE.md.
  [[nodiscard]] bool is_dense() const noexcept {
    return blocks_.size() == 1 && blocks_[0].offset == 0 &&
           blocks_[0].length == extent_;
  }

  std::vector<Block> blocks_;
  std::uint64_t extent_ = 0;
  std::uint64_t size_ = 0;
};

}  // namespace drx::simpi
