// Minimal leveled logging. Off by default; enabled via DRX_LOG_LEVEL env
// var (0=off, 1=error, 2=warn, 3=info, 4=debug) — libraries must never
// chatter on stdout unasked.
#pragma once

#include <sstream>
#include <string>

namespace drx {

enum class LogLevel : int { kOff = 0, kError = 1, kWarn = 2, kInfo = 3, kDebug = 4 };

/// Current level: DRX_LOG_LEVEL is read once, lazily, but the value can be
/// overridden at any time with set_log_level() (test hook; also how
/// embedding applications route their own verbosity knobs through drx).
LogLevel log_level() noexcept;

/// Overrides the level for the rest of the process (thread-safe).
void set_log_level(LogLevel level) noexcept;

/// Thread-safe sink to stderr; prepends level tag.
void log_message(LogLevel level, const std::string& msg);

namespace detail {
/// The level a DRX_LOG_LEVEL value names: a whole decimal, where values
/// above 4 mean 4. An unset or empty value is 0; anything else is 0 too,
/// with one warning line on stderr.
int parse_log_level(const char* text) noexcept;

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { log_message(level_, os_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace drx

#define DRX_LOG(level)                                          \
  if (static_cast<int>(::drx::log_level()) >=                   \
      static_cast<int>(::drx::LogLevel::level))                 \
  ::drx::detail::LogLine(::drx::LogLevel::level)

#define DRX_LOG_INFO DRX_LOG(kInfo)
#define DRX_LOG_WARN DRX_LOG(kWarn)
#define DRX_LOG_ERROR DRX_LOG(kError)
#define DRX_LOG_DEBUG DRX_LOG(kDebug)
