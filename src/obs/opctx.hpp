// Causal operation context for per-op stage attribution (docs/OBSERVABILITY.md).
//
// Every top-level DrxFile/DrxMpFile operation opens an OpScope, which claims
// a process-unique 64-bit op id and installs it in a thread-local OpContext.
// Instrumentation points between entry and exit attribute elapsed nanoseconds
// to one of six fixed stages via StageTimer/add_stage_ns; work handed to an
// AsyncIoPool carries the submitting thread's OpContext and restores it on
// the worker (OpRestore), so attribution follows the op across threads.
//
// When the OpScope closes it folds the per-stage totals into log2 histograms
// (obs.op.stage.<stage>_us), bumps a dominant-stage counter
// (obs.op.dominant.<stage>), and — when tracing / the flight recorder are
// on — pushes one op-summary record onto the event ring (obs/flight.hpp).
//
// Cost discipline: StageTimer reads no clock unless an op is active on the
// current thread (one thread-local load + compare); add_stage_ns on an
// inactive context is a branch. The stage accumulator is a fixed lock-free
// slot table indexed by op id, so attribution from worker threads needs no
// locks and is TSan-clean (relaxed atomics; a slot reused by a newer op
// simply drops the stale add — attribution is best-effort by design).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace drx::obs {

// From obs/trace.hpp (not included here: trace.hpp includes this header).
[[nodiscard]] std::uint64_t trace_now_ns();

/// Fixed attribution stages. `kOther` is never attributed directly: it is
/// derived at op close as wall time minus the attributed stages.
enum class Stage : std::uint8_t {
  kLockWait = 0,   ///< blocked acquiring the ChunkCache mutex
  kCacheFault = 1, ///< chunk-cache miss handling (fault fill, prefetch wait)
  kQueueWait = 2,  ///< AsyncIoPool latency: backpressure + enqueue->dequeue
  kIoService = 3,  ///< storage/PFS request service time
  kCopy = 4,       ///< scatter/gather between chunk and user buffers
  kOther = 5,      ///< wall time not covered by the stages above
};
inline constexpr std::size_t kStageCount = 6;

/// Stable lowercase stage name ("lock_wait", ...), used in metric names,
/// trace args and doctor findings.
[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// The causal identity instrumentation carries across threads: the op id
/// claimed by the enclosing OpScope (0 = no op in flight) plus the span id
/// that was current when the context was captured (the submit-side parent
/// of any async continuation).
struct OpContext {
  std::uint64_t op = 0;
  std::uint64_t parent_span = 0;
};

namespace detail {

inline constexpr std::size_t kOpSlots = 256;  // power of two (id & mask)

/// Per-op stage accumulator slot. Op ids map onto slots by low bits; a
/// writer whose id no longer owns the slot drops its contribution.
struct OpSlot {
  std::atomic<std::uint64_t> op{0};
  std::array<std::atomic<std::uint64_t>, kStageCount> stage_ns{};
};

inline std::array<OpSlot, kOpSlots>& op_slots() noexcept {
  static std::array<OpSlot, kOpSlots> slots;
  return slots;
}

inline thread_local OpContext t_op{};
inline thread_local std::uint64_t t_current_span = 0;
/// Same-thread StageTimer nesting depth per stage: only the outermost
/// timer counts, so layered instrumentation (core.read_chunk wrapping
/// pfs.read, both io_service) does not double-attribute.
inline thread_local std::uint8_t t_stage_depth[kStageCount] = {};

inline std::atomic<std::uint64_t> g_next_op{0};
inline std::atomic<std::uint64_t> g_next_span{0};
inline std::atomic<std::uint64_t> g_next_flow{0};

}  // namespace detail

/// True iff an OpScope is open on (or was restored onto) this thread.
[[nodiscard]] inline bool op_active() noexcept {
  return detail::t_op.op != 0;
}

/// The current thread's causal context (op 0 when none). Capture this at
/// every AsyncIoPool::submit call site.
[[nodiscard]] inline OpContext current_op() noexcept { return detail::t_op; }

/// Process-unique id for one submit->dequeue flow arrow (never 0).
[[nodiscard]] inline std::uint64_t next_flow_id() noexcept {
  return detail::g_next_flow.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Attributes `ns` to `stage` of the op in `ctx`. Best-effort and lock-free:
/// a no-op when ctx carries no op or the op already closed.
inline void add_stage_ns(const OpContext& ctx, Stage stage,
                         std::uint64_t ns) noexcept {
  if (ctx.op == 0 || ns == 0) return;
  detail::OpSlot& slot = detail::op_slots()[ctx.op & (detail::kOpSlots - 1)];
  if (slot.op.load(std::memory_order_relaxed) != ctx.op) return;
  slot.stage_ns[static_cast<std::size_t>(stage)].fetch_add(
      ns, std::memory_order_relaxed);
}

/// add_stage_ns against the current thread's context.
inline void add_stage_ns(Stage stage, std::uint64_t ns) noexcept {
  add_stage_ns(detail::t_op, stage, ns);
}

/// RAII stage attribution. Reads the clock only when an op is active at
/// construction; stop() ends attribution early (e.g. construct before a
/// mutex acquisition, stop() once it is held, to time exactly the wait).
class StageTimer {
 public:
  explicit StageTimer(Stage stage) noexcept : stage_(stage) {
    if (detail::t_op.op == 0) return;
    entered_ = true;
    if (detail::t_stage_depth[static_cast<std::size_t>(stage)]++ != 0) {
      return;  // nested in an outer timer of the same stage: it counts
    }
    ctx_ = detail::t_op;
    start_ns_ = trace_now_ns();
  }
  ~StageTimer() { stop(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void stop() noexcept {
    if (!entered_) return;
    entered_ = false;
    --detail::t_stage_depth[static_cast<std::size_t>(stage_)];
    if (ctx_.op != 0) {
      add_stage_ns(ctx_, stage_, trace_now_ns() - start_ns_);
      ctx_.op = 0;
    }
  }

 private:
  Stage stage_;
  OpContext ctx_{};  ///< op 0 = not the counting (outermost) timer
  bool entered_ = false;
  std::uint64_t start_ns_ = 0;
};

/// Marks one top-level operation. The outermost scope on a thread wins:
/// nested OpScopes (e.g. read_box_all calling read_box) are inert, so an
/// op's stages accumulate once. `name` must be a string literal.
///
/// On close: derives `other` = wall - attributed, records per-stage
/// histograms + the dominant-stage counter, and pushes an op-summary
/// record when tracing or the flight recorder is on.
class OpScope {
 public:
  explicit OpScope(const char* name) noexcept;
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Id claimed by this scope; 0 when nested-inert.
  [[nodiscard]] std::uint64_t id() const noexcept { return op_id_; }

 private:
  const char* name_ = nullptr;  ///< nullptr = nested, scope is inert
  std::uint64_t op_id_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Installs a captured OpContext on the current thread for the lifetime of
/// the scope (AsyncIoPool workers wrap each job in one), restoring the
/// previous context on exit.
class OpRestore {
 public:
  explicit OpRestore(const OpContext& ctx) noexcept
      : saved_op_(detail::t_op), saved_span_(detail::t_current_span) {
    detail::t_op = ctx;
    detail::t_current_span = ctx.parent_span;
  }
  ~OpRestore() {
    detail::t_op = saved_op_;
    detail::t_current_span = saved_span_;
  }
  OpRestore(const OpRestore&) = delete;
  OpRestore& operator=(const OpRestore&) = delete;

 private:
  OpContext saved_op_;
  std::uint64_t saved_span_;
};

}  // namespace drx::obs
