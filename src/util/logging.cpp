#include "util/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "util/knob.hpp"
#include "util/sync.hpp"

namespace drx {

namespace {

constexpr int kUninitialized = -1;

std::atomic<int>& level_slot() noexcept {
  static std::atomic<int> level{kUninitialized};
  return level;
}

/// DRX_LOG_LEVEL, read once per process: a malformed value warns once.
int level_from_env() noexcept {
  static const int level =
      detail::parse_log_level(std::getenv("DRX_LOG_LEVEL"));
  return level;
}

}  // namespace

int detail::parse_log_level(const char* text) noexcept {
  if (text == nullptr || *text == '\0') return 0;
  // Levels above debug mean "everything", as they always have.
  if (const auto v = util::parse_knob(
          text, 0, std::numeric_limits<std::uint64_t>::max())) {
    return static_cast<int>(std::min<std::uint64_t>(*v, 4));
  }
  // Straight to stderr: DRX_LOG would ask log_level(), which is still
  // being decided.
  std::fprintf(stderr,
               "[drx W] DRX_LOG_LEVEL='%s' is not a whole number; "
               "logging stays off\n",
               text);
  return 0;
}

LogLevel log_level() noexcept {
  std::atomic<int>& slot = level_slot();
  int v = slot.load(std::memory_order_relaxed);
  if (v == kUninitialized) {
    // First call: adopt the environment unless a concurrent set_log_level
    // won the race (compare_exchange keeps the explicit override).
    int expected = kUninitialized;
    slot.compare_exchange_strong(expected, level_from_env(),
                                 std::memory_order_relaxed);
    v = slot.load(std::memory_order_relaxed);
  }
  return static_cast<LogLevel>(v);
}

void set_log_level(LogLevel level) noexcept {
  level_slot().store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_message(LogLevel level, const std::string& msg) {
  // Serializes the stderr stream only; there is no guarded field.
  // drx-verify: allow(unannotated-mutex-member) interleaving guard for stderr
  static util::Mutex mu;
  const char* tag = "?";
  switch (level) {
    case LogLevel::kError: tag = "E"; break;
    case LogLevel::kWarn: tag = "W"; break;
    case LogLevel::kInfo: tag = "I"; break;
    case LogLevel::kDebug: tag = "D"; break;
    case LogLevel::kOff: return;
  }
  util::MutexLock lock(mu);
  std::fprintf(stderr, "[drx %s] %s\n", tag, msg.c_str());
}

}  // namespace drx
