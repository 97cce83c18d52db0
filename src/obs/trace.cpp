// DRX_TRACE configuration, the trace clock and the exit-time flush. The
// events themselves, their ring and the Chrome writer live in flight.cpp.
#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace drx::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

void flush_at_exit() {
  const Status s = flush_trace();
  if (!s.is_ok()) {
    // The user explicitly asked for a trace via DRX_TRACE; report the loss
    // even when logging is off.
    std::fprintf(stderr, "[drx E] DRX_TRACE flush failed: %s\n",
                 s.message().c_str());
  }
}

/// Reads DRX_TRACE once at startup; set_trace_path can override later.
struct EnvInit {
  EnvInit() {
    const char* env = std::getenv("DRX_TRACE");
    if (env != nullptr && env[0] != '\0') {
      set_trace_path(env);
      std::atexit(flush_at_exit);
    }
  }
};
EnvInit g_env_init;

}  // namespace

std::uint64_t trace_now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

Status flush_trace() {
  const std::string path = trace_path();
  if (path.empty()) return Status::ok();
  return write_trace(path);
}

}  // namespace drx::obs
