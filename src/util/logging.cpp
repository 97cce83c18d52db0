#include "util/logging.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/sync.hpp"

namespace drx {

namespace {

constexpr int kUninitialized = -1;

std::atomic<int>& level_slot() noexcept {
  static std::atomic<int> level{kUninitialized};
  return level;
}

int level_from_env() noexcept {
  const char* env = std::getenv("DRX_LOG_LEVEL");
  if (env == nullptr) return 0;
  int v = std::atoi(env);
  if (v < 0) v = 0;
  if (v > 4) v = 4;
  return v;
}

}  // namespace

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
