// Overflow-checked size arithmetic.
//
// Array-shape products routinely approach 2^63 for out-of-core datasets;
// every bound/offset computation in the library goes through these helpers
// so overflow surfaces as a hard error instead of silent wraparound.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>

#include "util/error.hpp"

namespace drx {

/// a * b, or nullopt on overflow. Parsers of untrusted bytes use the
/// try_ forms so that a hostile field fails with a Status, not an abort.
inline std::optional<std::uint64_t> try_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::nullopt;
  }
  return a * b;
}

/// a + b, or nullopt on overflow.
inline std::optional<std::uint64_t> try_add(std::uint64_t a, std::uint64_t b) {
  if (b > std::numeric_limits<std::uint64_t>::max() - a) return std::nullopt;
  return a + b;
}

/// Product of a span of extents, or nullopt on overflow. Empty span
/// yields 1 (the conventional empty product, matching a rank-0 array of
/// one element).
inline std::optional<std::uint64_t> try_product(
    std::span<const std::uint64_t> dims) {
  std::uint64_t p = 1;
  for (std::uint64_t d : dims) {
    const std::optional<std::uint64_t> next = try_mul(p, d);
    if (!next) return std::nullopt;
    p = *next;
  }
  return p;
}

/// a * b, aborting on overflow.
inline std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  const std::optional<std::uint64_t> r = try_mul(a, b);
  if (!r) DRX_DIE("u64 multiplication overflow");
  return *r;
}

/// a + b, aborting on overflow.
inline std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  const std::optional<std::uint64_t> r = try_add(a, b);
  if (!r) DRX_DIE("u64 addition overflow");
  return *r;
}

/// Product of a span of extents, aborting on overflow.
inline std::uint64_t checked_product(std::span<const std::uint64_t> dims) {
  const std::optional<std::uint64_t> r = try_product(dims);
  if (!r) DRX_DIE("u64 multiplication overflow");
  return *r;
}

/// Ceiling division for non-negative integers; divisor must be positive.
inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  DRX_CHECK(b != 0);
  return a / b + (a % b != 0 ? 1 : 0);
}

/// Narrow u64 -> size_t with a range check (no-op on 64-bit platforms,
/// kept for 32-bit portability).
inline std::size_t checked_size(std::uint64_t v) {
  DRX_CHECK(v <= std::numeric_limits<std::size_t>::max());
  return static_cast<std::size_t>(v);
}

}  // namespace drx
