// Parsing of numeric environment knobs, shared by every layer that reads
// one (io/config, util/logging): a knob is a whole decimal in its range,
// and anything else is rejected rather than read as a prefix or a wrap.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace drx::util {

/// One knob value: all of `text` as a decimal integer in [min, max].
/// nullopt for anything else (empty, a sign, blanks, a suffix, overflow,
/// out of range).
[[nodiscard]] inline std::optional<std::uint64_t> parse_knob(
    std::string_view text, std::uint64_t min, std::uint64_t max) noexcept {
  // from_chars takes no sign or blank; `ptr != end` rejects a suffix.
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min || v > max) {
    return std::nullopt;
  }
  return v;
}

}  // namespace drx::util
