// Minimal JSON emission + validation shared by the observability layer
// and the command-line tools (drx stats, drx inspect --json, the bench
// JSON reports). Emission is a streaming writer (no DOM); validation is a
// strict RFC 8259 recursive-descent checker used by tests and CI to prove
// emitted trace/metric files parse.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace drx::obs {

/// Streaming JSON writer. The caller drives structure with begin/end
/// calls; the writer inserts commas and escapes strings. Misuse (value
/// where a key is required, unbalanced end) is a programming error and
/// asserts via DRX_CHECK in the implementation.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Finished document. Valid only when every begin_ has been ended.
  [[nodiscard]] const std::string& str() const;

 private:
  void comma();
  void emit_string(std::string_view s);

  enum class Frame : std::uint8_t { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  bool need_comma_ = false;
  bool after_key_ = false;
};

/// Strict whole-document JSON validity check (single top-level value,
/// no trailing garbage). Returns true iff `text` is well-formed JSON.
[[nodiscard]] bool json_validate(std::string_view text);

/// Parsed JSON value (DOM). Objects keep member order as a vector of
/// pairs so round-trips stay diffable; numbers are doubles (all values
/// drx tooling emits fit; exact u64 precision is not required by any
/// consumer — byte totals are compared as ratios).
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Member lookup (first match); nullptr if absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  [[nodiscard]] double as_number(double dflt = 0.0) const {
    return kind == Kind::kNumber ? number : dflt;
  }
  [[nodiscard]] std::int64_t as_int(std::int64_t dflt = 0) const {
    return kind == Kind::kNumber ? static_cast<std::int64_t>(number) : dflt;
  }
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t dflt = 0) const {
    return kind == Kind::kNumber && number >= 0
               ? static_cast<std::uint64_t>(number)
               : dflt;
  }
  [[nodiscard]] std::string_view as_string(std::string_view dflt = {}) const {
    return kind == Kind::kString ? std::string_view(string) : dflt;
  }

  /// Convenience: `find(key)` then numeric coercion with a default.
  [[nodiscard]] double number_at(std::string_view key,
                                 double dflt = 0.0) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_number(dflt) : dflt;
  }
  [[nodiscard]] std::uint64_t uint_at(std::string_view key,
                                      std::uint64_t dflt = 0) const {
    const JsonValue* v = find(key);
    return v != nullptr ? v->as_uint(dflt) : dflt;
  }
};

/// Strict whole-document parse into a DOM (same grammar json_validate
/// accepts). Strings are unescaped; \uXXXX (incl. surrogate pairs)
/// decodes to UTF-8.
[[nodiscard]] Result<JsonValue> json_parse(std::string_view text);

}  // namespace drx::obs
