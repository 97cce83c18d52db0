// The per-thread event ring and its post-mortem dump (docs/OBSERVABILITY.md,
// "Event ring").
//
// Every span, flow and op summary the recording API in obs/trace.hpp
// emits is pushed exactly once, onto a fixed-size lock-free ring owned by
// the calling thread. The ring serves both outputs:
//
//  - the flight recorder, always on with no environment variable: the last
//    N records per thread are dumped as JSON on sticky deferred I/O errors,
//    fatal signals (SIGSEGV/SIGABRT), or on demand;
//  - DRX_TRACE: records pushed while tracing is on are drained out of the
//    ring in batches into the Chrome trace (see obs/trace.hpp).
//
// Memory is fixed per thread. Rings of exited threads are reused, so the
// ring count caps concurrent threads, not lifetime threads.
// set_flight_enabled(false) exists for benchmarks that want to measure the
// instrumentation floor.
//
// Record names must be string literals: rings store the pointer, and the
// fatal-signal dump path reads them from a signal handler where no
// allocation or locking is possible.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace drx::obs {

namespace detail {
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

/// True iff flight records are being captured (default: true).
inline bool flight_enabled() noexcept {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

/// Benchmark/test hook; the recorder is meant to stay on in production.
void set_flight_enabled(bool enabled) noexcept;

/// Where dumps land. Default "drx-flight.json" in the working directory.
/// The path is copied into a fixed buffer (truncated if longer than
/// ~511 bytes) so the fatal-signal writer never touches the heap.
void set_flight_path(const std::string& path) noexcept;
[[nodiscard]] std::string flight_path();

/// Writes every thread's ring to `path` as one JSON object:
///   {"format":"drx-flight","version":1,"reason":...,"threads":[...]}
/// Safe to call concurrently with recording (torn records are skipped).
[[nodiscard]] Status dump_flight(const std::string& path, const char* reason);

/// dump_flight() to the configured path.
[[nodiscard]] Status dump_flight(const char* reason);

/// Async-signal-safe variant used by the SIGSEGV/SIGABRT handlers: writes
/// with open(2)/write(2) and hand-rolled formatting only. Best effort.
void dump_flight_signal_safe(const char* reason) noexcept;

/// Installs chaining SIGSEGV/SIGABRT handlers that dump the flight rings
/// once, restore the previous handler, and re-raise. Idempotent; called
/// from a static initializer, exposed for tests.
void install_flight_signal_handlers() noexcept;

/// Total records ever pushed (test hook; monotonic, approximate).
[[nodiscard]] std::uint64_t flight_record_count() noexcept;

}  // namespace drx::obs
