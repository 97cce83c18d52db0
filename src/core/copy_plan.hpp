// Run-coalesced scatter/gather plans — the batched data plane behind the
// paper's "on the fly" transposition (Sec. I).
//
// A CopyPlan precomputes, for a fixed (chunk geometry, clip shape, box
// shape, memory order, element size), the decomposition of the transfer
// into maximal contiguous *runs*: dimensions whose strides are dense on
// both the chunk side and the box side are fused, and when the innermost
// varying dimension is contiguous on both sides an entire fused row moves
// as one std::memcpy. Otherwise the plan falls back to a strided loop
// with precomputed byte steps — still no per-element linearize() /
// offset_in_chunk() arithmetic, which is what the legacy element walk in
// scatter.hpp paid for every element.
//
// Plans depend only on *shapes*, never on positions: the clip/box base
// offsets are folded in at execute time, so every interior chunk of a box
// read shares one memoized plan (see PlanCache below).
//
// Observability: each execution bumps `core.copy.runs` (memcpy
// invocations) and `core.copy.elements`, and feeds the per-run byte size
// into the `core.copy.run_bytes` histogram — drx doctor compares the two
// counters to flag element-granularity regressions (docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/chunk_space.hpp"
#include "core/coords.hpp"
#include "util/sync.hpp"

namespace drx::core {

class CopyPlan {
 public:
  /// `clip_shape` is the shape of the element box being moved (it lies
  /// inside one chunk of `cs`), `box_shape`/`box_order` describe the
  /// linearized user buffer the clip scatters into / gathers from.
  CopyPlan(const ChunkSpace& cs, std::uint64_t esize, Shape clip_shape,
           Shape box_shape, MemoryOrder box_order);

  /// Copies the `clip` elements of `chunk` into `out` (box `box`
  /// linearized in the plan's order). `clip.shape()` must equal the
  /// plan's clip shape, `box.shape()` its box shape.
  void scatter(const Box& clip, const Box& box,
               std::span<const std::byte> chunk,
               std::span<std::byte> out) const;

  /// Inverse: fills the `clip` elements of `chunk` from `in`.
  void gather(const Box& clip, const Box& box, std::span<std::byte> chunk,
              std::span<const std::byte> in) const;

  /// memcpy invocations per execution (the paper-facing coalescing
  /// metric: elements() / runs_per_execution() is the batching factor).
  [[nodiscard]] std::uint64_t runs_per_execution() const noexcept {
    return runs_;
  }
  /// Bytes moved by each memcpy run.
  [[nodiscard]] std::uint64_t run_bytes() const noexcept { return run_bytes_; }
  [[nodiscard]] std::uint64_t elements() const noexcept { return elements_; }
  /// True when the innermost fused dimension is dense on both sides, so
  /// whole rows (or larger fused blocks) move as single memcpys.
  [[nodiscard]] bool innermost_contiguous() const noexcept {
    return inner_count_ == 1;
  }

  [[nodiscard]] const Shape& clip_shape() const noexcept {
    return clip_shape_;
  }
  [[nodiscard]] const Shape& box_shape() const noexcept { return box_shape_; }
  [[nodiscard]] MemoryOrder box_order() const noexcept { return box_order_; }

 private:
  /// One non-innermost loop level: byte steps per iteration on each side.
  struct Loop {
    std::uint64_t extent;
    std::uint64_t chunk_step;
    std::uint64_t box_step;
  };

  [[nodiscard]] std::uint64_t chunk_base_bytes(const Box& clip) const;
  [[nodiscard]] std::uint64_t box_base_bytes(const Box& clip,
                                             const Box& box) const;
  void execute(std::size_t level, const std::byte* src, std::byte* dst,
               bool chunk_is_src) const;
  void note_execution() const;

  std::uint64_t esize_;
  Shape chunk_shape_;
  Shape chunk_strides_;  ///< element-unit strides of the chunk layout
  Shape box_strides_;    ///< element-unit strides of the box layout
  Shape clip_shape_;
  Shape box_shape_;
  MemoryOrder box_order_;

  std::vector<Loop> loops_;  ///< outer levels, outermost first
  std::uint64_t inner_count_ = 1;       ///< memcpys per innermost visit
  std::uint64_t inner_chunk_step_ = 0;  ///< byte step when inner_count_ > 1
  std::uint64_t inner_box_step_ = 0;
  std::uint64_t run_bytes_ = 0;
  std::uint64_t runs_ = 1;
  std::uint64_t elements_ = 1;
};

/// Bounded memoization of CopyPlans keyed on (clip shape, box shape,
/// order) for one file's fixed (ChunkSpace, esize). A box read visits one
/// boundary-clip shape class per box face plus one interior shape, so a
/// handful of entries serves arbitrarily many chunks; repeated reads of
/// the same box shape hit every time (`core.copy.plan_hits`).
/// Thread-safe: drxmp ranks and async completions share a file's cache.
class PlanCache {
 public:
  PlanCache(ChunkSpace cs, std::uint64_t esize);

  /// The memoized plan for this shape triple (built on first use).
  [[nodiscard]] std::shared_ptr<const CopyPlan> plan_for(
      const Shape& clip_shape, const Shape& box_shape, MemoryOrder order);

  /// Convenience wrappers: look up (or build) the plan and execute it.
  void scatter(const Box& clip, const Box& box, MemoryOrder order,
               std::span<const std::byte> chunk, std::span<std::byte> out);
  void gather(const Box& clip, const Box& box, MemoryOrder order,
              std::span<std::byte> chunk, std::span<const std::byte> in);

  [[nodiscard]] const ChunkSpace& chunk_space() const noexcept { return cs_; }
  [[nodiscard]] std::uint64_t esize() const noexcept { return esize_; }

 private:
  struct Entry {
    std::uint64_t hash;
    Shape clip_shape;
    Shape box_shape;
    MemoryOrder order;
    std::shared_ptr<const CopyPlan> plan;
  };

  ChunkSpace cs_;
  std::uint64_t esize_;
  util::Mutex mu_;
  std::vector<Entry> entries_ DRX_GUARDED_BY(mu_);
};

}  // namespace drx::core
