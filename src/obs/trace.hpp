// Event recording API and the DRX_TRACE export as Chrome "Trace Event
// Format" JSON (open in chrome://tracing or https://ui.perfetto.dev).
//
// ScopedSpan, record_flow_out/in and record_op_summary each push one
// record onto the calling thread's event ring (obs/flight.hpp). Records
// pushed while DRX_TRACE=<path> is set (or a test installed a path via
// set_trace_path) are drained from the rings into this trace. With tracing
// and the flight recorder both off, a span costs two relaxed-atomic-bool
// branches: no clock reads, no allocation, no locks.
//
// Causality: every armed span claims a span id and maintains the
// thread-local current-span chain (obs/opctx.hpp), so OpContexts captured
// at AsyncIoPool::submit carry their submit-side parent. Flow events
// ("s"/"f" phases, record_flow_out/record_flow_in) draw the async arrows
// in Perfetto linking a top-level op to the pool jobs and PFS requests it
// caused; op-summary events (record_op_summary) carry the per-stage
// attribution of each closed OpScope.
//
// Each simulated rank (obs::current_rank(), installed by simpi::run)
// renders as its own pseudo-process: pid = rank + 1, pid 0 = the host
// thread(s). A two-phase collective therefore shows as aligned span rows
// across ranks, exactly the paper's exchange/IO pipeline picture.
//
// Span names/categories must be string literals (or otherwise outlive the
// process): the ring stores the pointers, not copies.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/flight.hpp"
#include "obs/opctx.hpp"
#include "util/error.hpp"

namespace drx::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;

/// Slow path behind ~ScopedSpan: reads the clock once and pushes the
/// closed span onto the calling thread's event ring.
void push_span(const char* name, const char* category,
               std::uint64_t start_ns, std::uint64_t bytes,
               std::uint64_t parent_span);
}  // namespace detail

/// True iff records pushed now reach the trace. One of the two branches
/// on the fast path (the other is flight_enabled()).
inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Overrides the output path (test hook; DRX_TRACE is read once at
/// startup). An empty path disables tracing.
void set_trace_path(const std::string& path);
[[nodiscard]] std::string trace_path();

/// Records the submit side ("s" flow phase) / consume side ("f" phase) of
/// one async handoff. `flow_id` comes from next_flow_id(); `ctx` is the
/// OpContext travelling with the job. Callers guard with
/// trace_enabled() || flight_enabled().
void record_flow_out(std::uint64_t flow_id, const OpContext& ctx);
void record_flow_in(std::uint64_t flow_id, const OpContext& ctx);

/// Records the per-stage summary of a closed OpScope (an "X" event with
/// cat "op" carrying stage nanoseconds + dominant stage in args). Called
/// by OpScope; exposed for tests.
void record_op_summary(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, std::uint64_t op,
                       const std::uint64_t (&stage_ns)[kStageCount],
                       Stage dominant);

/// Nanoseconds since the first trace clock read (monotonic).
[[nodiscard]] std::uint64_t trace_now_ns();

/// RAII span covering its C++ scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category,
                      std::uint64_t bytes = 0) noexcept {
    if (!trace_enabled() && !flight_enabled()) return;
    name_ = name;
    category_ = category;
    bytes_ = bytes;
    prev_span_ = detail::t_current_span;
    detail::t_current_span =
        detail::g_next_span.fetch_add(1, std::memory_order_relaxed) + 1;
    start_ns_ = trace_now_ns();
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    detail::t_current_span = prev_span_;
    detail::push_span(name_, category_, start_ns_, bytes_, prev_span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches/updates the bytes arg after construction (e.g. once a
  /// transfer size is known). No-op on a disarmed span, so callers can
  /// invoke it unconditionally from hot paths.
  void set_bytes(std::uint64_t bytes) noexcept {
    if (name_ == nullptr) return;
    bytes_ = bytes;
  }

 private:
  const char* name_ = nullptr;  ///< nullptr = disarmed (all sinks off)
  const char* category_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t prev_span_ = 0;
};

/// Drains every ring's traced records and writes the trace as Trace Event
/// Format JSON to `path`.
[[nodiscard]] Status write_trace(const std::string& path);

/// write_trace() to the configured path (no-op status if none).
[[nodiscard]] Status flush_trace();

/// Drops all traced events, drained or still in a ring (test isolation).
void clear_trace();

/// Number of traced span events (flow/op-summary events are counted
/// separately in the written metadata).
[[nodiscard]] std::size_t trace_event_count();

}  // namespace drx::obs
