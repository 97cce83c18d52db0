// The event ring: every span, flow and op summary is one Event pushed onto
// its thread's ring. The flight dump reads the rings in place; DRX_TRACE
// drains their traced records into a process buffer in batches and writes
// it as Chrome JSON. Event is private to this file, so its layout is
// known in one place.
#include "obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"

namespace drx::obs {

namespace detail {
// Always on: the whole point is that the recorder is running when the
// process dies unexpectedly. Fixed memory, no output unless something dumps.
std::atomic<bool> g_flight_enabled{true};
}  // namespace detail

namespace {

constexpr std::size_t kRingSize = 512;  // records kept per thread
constexpr std::size_t kMaxRings = 128;  // threads holding a ring at once
constexpr std::size_t kFlightPathMax = 512;
/// Trace cap per event class (spans, flows, op summaries), so a runaway
/// loop cannot eat the heap.
constexpr std::size_t kMaxTraceEvents = 1U << 20;

enum class Kind : std::uint8_t { kSpan, kFlowOut, kFlowIn, kOp };

struct Event {
  const char* name = nullptr;
  const char* category = nullptr;  ///< "op" for op summaries; unused for flows
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  ///< span: bytes; flow: flow id; op: dominant stage
  std::uint64_t op = 0;   ///< 0 = no op in flight
  std::uint64_t parent = 0;  ///< span id current when the event was opened
  std::int32_t rank = -1;    ///< -1 = host thread
  std::uint32_t tid = 0;     ///< owning ring's thread id (0 = no ring)
  Kind kind = Kind::kSpan;
  bool traced = false;  ///< tracing was on at push: the trace drain takes it
  /// Traced op summaries only; kept last so other records skip storing it.
  std::uint64_t stage_ns[kStageCount] = {};
};
static_assert(std::is_trivially_copyable_v<Event> &&
              std::is_standard_layout_v<Event> && sizeof(Event) % 8 == 0);
constexpr std::size_t kEventWords = sizeof(Event) / 8;
constexpr std::size_t kHeadWords = offsetof(Event, stage_ns) / 8;

/// One ring slot: the Event as atomic words, so a dump (possibly from a
/// signal handler) or a drain on another thread reads it without locks or
/// TSan reports. `seq` is the dump's torn-read guard: 0 while the owner
/// rewrites the slot, otherwise a process-wide sequence number. Words are
/// stored with release and loaded with acquire, so a reader that sees any
/// word of a rewrite also sees the seq = 0 stored before it.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> words[kEventWords] = {};
};

/// Only the owning thread writes slots, `head` and `traced_end`. Records
/// in [drained, traced_end) still owe the trace their traced entries, and
/// the owner never overwrites one of them without draining it first
/// (push), so a drain may read them from any thread.
struct Ring {
  std::atomic<std::uint64_t> head{0};  ///< pushes so far; slot = i % size
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> traced_end{0};  ///< 1 + newest traced push
  std::atomic<std::uint32_t> tid{0};         ///< current owner's id
  std::atomic<bool> in_use{true};
  Slot slots[kRingSize];
};

// Ring registry: a fixed array of pointers published with release order.
// Rings are never freed — a crash dump must be able to walk the records of
// threads that already exited — but an exited thread's ring is reused by
// the next thread that needs one.
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::uint32_t> g_ring_count{0};
std::atomic<std::uint32_t> g_next_tid{0};
std::atomic<std::uint64_t> g_seq{0};

thread_local Ring* t_ring = nullptr;
thread_local bool t_ring_released = false;  ///< thread-exit hook has run

// Configured dump path, fixed storage so the signal path never allocates.
char g_flight_path[kFlightPathMax] = "drx-flight.json";
std::atomic<std::size_t> g_flight_path_len{
    sizeof("drx-flight.json") - 1};

/// Traced records drained out of the rings, waiting for write_trace. The
/// mutex is taken once per drained batch (a ring wrap or a flush), never
/// per event.
struct TraceBuffer {
  util::Mutex mu;
  std::string path DRX_GUARDED_BY(mu);
  std::vector<Event> events DRX_GUARDED_BY(mu);
  std::size_t count[3] DRX_GUARDED_BY(mu) = {};  ///< spans, flows, ops
  std::uint64_t dropped DRX_GUARDED_BY(mu) = 0;
};

TraceBuffer& trace_buffer() {
  static auto* b = new TraceBuffer;
  return *b;
}

std::size_t event_class(Kind kind) noexcept {
  return kind == Kind::kSpan ? 0 : kind == Kind::kOp ? 2 : 1;
}

void append_locked(TraceBuffer& b, const Event& e) DRX_REQUIRES(b.mu) {
  std::size_t& n = b.count[event_class(e.kind)];
  if (n >= kMaxTraceEvents) {
    ++b.dropped;
    // Surfaced as a counter so truncated traces are machine-detectable
    // (drx doctor flags any nonzero obs.trace.dropped as an error).
    static const MetricId kDropped = counter_id("obs.trace.dropped");
    registry().counter(kDropped).add();
    return;
  }
  ++n;
  b.events.push_back(e);
}

void write_slot(Slot& s, const Event& e, std::size_t words) noexcept {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&e);
  s.seq.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < words; ++i) {
    // Word by word: a bulk copy of the just-built Event would load it in
    // wider chunks than it was stored, stalling store forwarding.
    std::uint64_t w;
    std::memcpy(&w, bytes + i * 8, 8);
    s.words[i].store(w, std::memory_order_release);
  }
  s.seq.store(g_seq.fetch_add(1, std::memory_order_relaxed) + 1,
              std::memory_order_release);
}

Event read_slot(const Slot& s) noexcept {
  std::uint64_t w[kEventWords];
  for (std::size_t i = 0; i < kEventWords; ++i) {
    w[i] = s.words[i].load(std::memory_order_acquire);
  }
  Event e;
  std::memcpy(&e, w, sizeof(e));
  return e;
}

/// Hands the ring's pending traced records to the trace buffer. Reads
/// traced_end before drained: a traced push published after the owner
/// last advanced `drained` then guarantees this sees that advance.
void drain_locked(TraceBuffer& b, Ring& r) DRX_REQUIRES(b.mu) {
  const std::uint64_t end = r.traced_end.load(std::memory_order_acquire);
  std::uint64_t i = r.drained.load(std::memory_order_acquire);
  if (i >= end) return;
  for (; i < end; ++i) {
    const Event e = read_slot(r.slots[i % kRingSize]);
    if (e.traced) append_locked(b, e);
  }
  r.drained.store(end, std::memory_order_release);
}

void drain_all_locked(TraceBuffer& b) DRX_REQUIRES(b.mu) {
  const std::uint32_t n = g_ring_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      drain_locked(b, *r);
    }
  }
}

/// Frees the ring for the next thread. Its undrained traced records stay
/// pending: they carry their own tid, and the next owner (on wrap) or
/// flush_trace drains them like any others.
struct ReleaseAtThreadExit {
  ~ReleaseAtThreadExit() {
    if (t_ring == nullptr) return;
    t_ring->in_use.store(false, std::memory_order_release);
    t_ring = nullptr;
    t_ring_released = true;
  }
};

/// Gives the calling thread a free ring (or a new one while fewer than
/// kMaxRings exist); nullptr when every ring is held by a live thread.
Ring* claim_ring() {
  Ring* r = nullptr;
  const std::uint32_t n = g_ring_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n && r == nullptr; ++i) {
    Ring* c = g_rings[i].load(std::memory_order_acquire);
    if (c != nullptr && !c->in_use.load(std::memory_order_relaxed) &&
        !c->in_use.exchange(true, std::memory_order_acquire)) {
      r = c;
    }
  }
  if (r == nullptr) {
    std::uint32_t idx = g_ring_count.load(std::memory_order_relaxed);
    do {
      if (idx >= kMaxRings) return nullptr;
    } while (!g_ring_count.compare_exchange_weak(idx, idx + 1,
                                                 std::memory_order_relaxed));
    r = new Ring;  // never freed (see registry comment)
    g_rings[idx].store(r, std::memory_order_release);
  }
  r->tid.store(g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  t_ring = r;
  // A thread that records after its exit hook ran (static destructors on
  // the main thread) keeps the ring for good; flush_trace still drains it.
  if (!t_ring_released) {
    thread_local ReleaseAtThreadExit hook;
    (void)hook;
  }
  return r;
}

void push(Event&& e) {
  e.traced = trace_enabled();
  e.rank = current_rank();
  Ring* r = t_ring != nullptr ? t_ring : claim_ring();
  if (r == nullptr) {
    // More than kMaxRings live threads: no flight record, but the trace
    // still gets the event.
    if (e.traced) {
      TraceBuffer& b = trace_buffer();
      util::MutexLock lock(b.mu);
      append_locked(b, e);
    }
    return;
  }
  e.tid = r->tid.load(std::memory_order_relaxed);
  const std::uint64_t head = r->head.load(std::memory_order_relaxed);
  if (head - r->drained.load(std::memory_order_acquire) >= kRingSize) {
    // The push would overwrite record head - size. Hand the trace what it
    // still needs; if that freed nothing, no record is pending, so no
    // drain on another thread is reading this ring and the owner may
    // mark everything as owing the trace nothing, lock-free.
    if (r->traced_end.load(std::memory_order_relaxed) >
        r->drained.load(std::memory_order_acquire)) {
      TraceBuffer& b = trace_buffer();
      util::MutexLock lock(b.mu);
      drain_locked(b, *r);
    }
    if (head - r->drained.load(std::memory_order_acquire) >= kRingSize) {
      r->drained.store(head, std::memory_order_release);
    }
  }
  write_slot(r->slots[head % kRingSize], e,
             e.kind == Kind::kOp && e.traced ? kEventWords : kHeadWords);
  if (e.traced) r->traced_end.store(head + 1, std::memory_order_release);
  r->head.store(head + 1, std::memory_order_relaxed);
}

/// Flight-dump names, indexed by Kind.
constexpr const char* kKindNames[] = {"span", "flow_out", "flow_in", "op"};

/// Minimal buffered fd writer usable from a signal handler: write(2) only,
/// hand-rolled decimal formatting, fixed stack buffers.
class SigWriter {
 public:
  explicit SigWriter(int fd) noexcept : fd_(fd) {}
  ~SigWriter() { flush(); }

  void put(const char* s) noexcept {
    for (; *s != '\0'; ++s) put_char(*s);
  }
  void put_u64(std::uint64_t v) noexcept {
    char digits[20];
    int n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) put_char(digits[--n]);
  }
  void put_i32(std::int32_t v) noexcept {
    if (v < 0) {
      put_char('-');
      put_u64(static_cast<std::uint64_t>(-static_cast<std::int64_t>(v)));
    } else {
      put_u64(static_cast<std::uint64_t>(v));
    }
  }
  void flush() noexcept {
    std::size_t off = 0;
    while (off < len_) {
      const ssize_t n = ::write(fd_, buf_ + off, len_ - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    len_ = 0;
  }

 private:
  void put_char(char c) noexcept {
    if (len_ == sizeof(buf_)) flush();
    buf_[len_++] = c;
  }
  int fd_;
  char buf_[1024];
  std::size_t len_ = 0;
};

/// Shared dump body: both the regular and the signal-safe entry points
/// funnel here; everything it does is async-signal-safe.
void dump_rings(SigWriter& w, const char* reason) noexcept {
  w.put("{\"format\":\"drx-flight\",\"version\":1,\"reason\":\"");
  w.put(reason);
  w.put("\",\"threads\":[");
  const std::uint32_t count = g_ring_count.load(std::memory_order_acquire);
  bool first_thread = true;
  for (std::uint32_t i = 0; i < count; ++i) {
    const Ring* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    if (!first_thread) w.put(",");
    first_thread = false;
    w.put("\n{\"tid\":");
    w.put_u64(ring->tid.load(std::memory_order_relaxed));
    w.put(",\"records\":[");
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t n = head < kRingSize ? head : kRingSize;
    const std::uint64_t base = head - n;  // oldest surviving push index
    bool first_rec = true;
    for (std::uint64_t j = 0; j < n; ++j) {
      const Slot& slot = ring->slots[(base + j) % kRingSize];
      const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
      if (seq == 0) continue;
      const Event v = read_slot(slot);
      if (slot.seq.load(std::memory_order_relaxed) != seq ||
          v.name == nullptr) {
        continue;  // torn: the owner rewrote the slot mid-read
      }
      if (!first_rec) w.put(",");
      first_rec = false;
      w.put("\n{\"seq\":");
      w.put_u64(seq);
      w.put(",\"kind\":\"");
      const auto kind = static_cast<std::size_t>(v.kind);
      w.put(kind < std::size(kKindNames) ? kKindNames[kind] : "unknown");
      w.put("\",\"name\":\"");
      w.put(v.name);
      w.put("\",\"ts_ns\":");
      w.put_u64(v.ts_ns);
      w.put(",\"dur_ns\":");
      w.put_u64(v.dur_ns);
      w.put(",\"arg\":");
      w.put_u64(v.arg);
      w.put(",\"op\":");
      w.put_u64(v.op);
      w.put(",\"parent\":");
      w.put_u64(v.parent);
      w.put(",\"rank\":");
      w.put_i32(v.rank);
      w.put("}");
    }
    w.put("]}");
  }
  w.put("\n]}\n");
}

/// Opens `path` and dumps every ring into it; false if it cannot open.
bool dump_to(const char* path, const char* reason) noexcept {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  {
    SigWriter w(fd);
    dump_rings(w, reason);
  }
  ::close(fd);
  return true;
}

// ---- fatal-signal plumbing -------------------------------------------------

struct sigaction g_old_segv;
struct sigaction g_old_abrt;
std::atomic<bool> g_handlers_installed{false};
std::atomic<bool> g_dumped_on_signal{false};

void flight_signal_handler(int sig, siginfo_t* /*info*/, void* /*uctx*/) {
  if (!g_dumped_on_signal.exchange(true)) {
    dump_flight_signal_safe(sig == SIGSEGV ? "fatal-signal:SIGSEGV"
                                           : "fatal-signal:SIGABRT");
  }
  // Chain: restore whoever was installed before us (sanitizer runtimes,
  // test harnesses) and re-deliver so the process still dies their way.
  ::sigaction(sig, sig == SIGSEGV ? &g_old_segv : &g_old_abrt, nullptr);
  ::raise(sig);
}

struct InstallAtInit {
  InstallAtInit() { install_flight_signal_handlers(); }
};
InstallAtInit g_install_at_init;

}  // namespace

// ---- recording -------------------------------------------------------------

namespace detail {
void push_span(const char* name, const char* category,
               std::uint64_t start_ns, std::uint64_t bytes,
               std::uint64_t parent_span) {
  push({.name = name, .category = category, .ts_ns = start_ns,
        .dur_ns = trace_now_ns() - start_ns, .arg = bytes, .op = t_op.op,
        .parent = parent_span, .kind = Kind::kSpan});
}
}  // namespace detail

void record_flow_out(std::uint64_t flow_id, const OpContext& ctx) {
  push({.name = "drx.flow", .ts_ns = trace_now_ns(), .arg = flow_id,
        .op = ctx.op, .parent = ctx.parent_span, .kind = Kind::kFlowOut});
}

void record_flow_in(std::uint64_t flow_id, const OpContext& ctx) {
  push({.name = "drx.flow", .ts_ns = trace_now_ns(), .arg = flow_id,
        .op = ctx.op, .parent = ctx.parent_span, .kind = Kind::kFlowIn});
}

void record_op_summary(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, std::uint64_t op,
                       const std::uint64_t (&stage_ns)[kStageCount],
                       Stage dominant) {
  Event e{.name = name, .category = "op", .ts_ns = start_ns,
          .dur_ns = dur_ns, .arg = static_cast<std::uint64_t>(dominant),
          .op = op, .kind = Kind::kOp};
  std::copy(std::begin(stage_ns), std::end(stage_ns), e.stage_ns);
  push(std::move(e));
}

// ---- flight dump -----------------------------------------------------------

void set_flight_enabled(bool enabled) noexcept {
  detail::g_flight_enabled.store(enabled, std::memory_order_relaxed);
}

void set_flight_path(const std::string& path) noexcept {
  const std::size_t n =
      path.size() < kFlightPathMax - 1 ? path.size() : kFlightPathMax - 1;
  std::memcpy(g_flight_path, path.data(), n);
  g_flight_path[n] = '\0';
  g_flight_path_len.store(n, std::memory_order_release);
}

std::string flight_path() {
  const std::size_t n = g_flight_path_len.load(std::memory_order_acquire);
  return std::string(g_flight_path, n);
}

std::uint64_t flight_record_count() noexcept {
  std::uint64_t total = 0;
  const std::uint32_t n = g_ring_count.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (const Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      total += r->head.load(std::memory_order_relaxed);
    }
  }
  return total;
}

Status dump_flight(const std::string& path, const char* reason) {
  if (!dump_to(path.c_str(), reason)) {
    return Status(ErrorCode::kIoError,
                  "cannot open flight dump file: " + path);
  }
  DRX_LOG_INFO << "wrote flight recorder dump to " << path << " (reason: "
               << reason << ")";
  return Status::ok();
}

Status dump_flight(const char* reason) {
  return dump_flight(flight_path(), reason);
}

void dump_flight_signal_safe(const char* reason) noexcept {
  (void)dump_to(g_flight_path, reason);
}

void install_flight_signal_handlers() noexcept {
  if (g_handlers_installed.exchange(true)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = flight_signal_handler;
  sa.sa_flags = SA_SIGINFO | SA_NODEFER;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGSEGV, &sa, &g_old_segv);
  ::sigaction(SIGABRT, &sa, &g_old_abrt);
}

// ---- Chrome trace ----------------------------------------------------------

void set_trace_path(const std::string& path) {
  TraceBuffer& b = trace_buffer();
  util::MutexLock lock(b.mu);
  b.path = path;
  detail::g_trace_enabled.store(!path.empty(), std::memory_order_relaxed);
}

std::string trace_path() {
  TraceBuffer& b = trace_buffer();
  util::MutexLock lock(b.mu);
  return b.path;
}

Status write_trace(const std::string& path) {
  std::vector<Event> events;
  std::size_t count[3];
  std::uint64_t dropped = 0;
  {
    TraceBuffer& b = trace_buffer();
    util::MutexLock lock(b.mu);
    drain_all_locked(b);
    events = b.events;
    std::copy(std::begin(b.count), std::end(b.count), count);
    dropped = b.dropped;
  }

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot open trace file: " + path);
  }

  // Emitted by hand rather than via JsonWriter: a trace can hold a million
  // events, and one line per event keeps the file diffable and streamable.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // One pseudo-process per rank, named for human consumption.
  std::set<int> ranks;
  for (const Event& e : events) ranks.insert(e.rank);
  for (int r : ranks) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << (r + 1)
        << ",\"tid\":0,\"args\":{\"name\":\""
        << (r < 0 ? std::string("host") : "rank " + std::to_string(r))
        << "\"}}";
  }

  char buf[256];
  for (const Event& e : events) {
    if (!first) out << ",\n";
    first = false;
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    if (e.kind == Kind::kFlowOut || e.kind == Kind::kFlowIn) {
      // The same (name, cat, id) on both sides tells the viewer which "s"
      // pairs with which "f"; "bp":"e" binds the arrow head to the
      // enclosing slice rather than the next one.
      const bool is_out = e.kind == Kind::kFlowOut;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"drx.flow\",\"cat\":\"flow\",\"ph\":\"%s\","
                    "\"id\":%llu,\"pid\":%d,\"tid\":%u,\"ts\":%.3f",
                    is_out ? "s" : "f", static_cast<unsigned long long>(e.arg),
                    e.rank + 1, e.tid, ts_us);
      out << buf;
      if (!is_out) out << ",\"bp\":\"e\"";
      if (e.op != 0) out << ",\"args\":{\"op\":" << e.op << "}";
      out << "}";
      continue;
    }
    const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  e.name, e.category, e.rank + 1, e.tid, ts_us, dur_us);
    out << buf;
    if (e.kind == Kind::kOp) {
      // Op summaries carry the stage attribution in args.
      out << ",\"args\":{\"op\":" << e.op;
      for (std::size_t i = 0; i < kStageCount; ++i) {
        out << ",\"" << stage_name(static_cast<Stage>(i))
            << "_ns\":" << e.stage_ns[i];
      }
      out << ",\"dominant\":\"" << stage_name(static_cast<Stage>(e.arg))
          << "\"}";
    } else if (e.arg != 0 || e.op != 0) {
      out << ",\"args\":{";
      if (e.arg != 0) out << "\"bytes\":" << e.arg;
      if (e.arg != 0 && e.op != 0) out << ",";
      if (e.op != 0) out << "\"op\":" << e.op;
      out << "}";
    }
    out << "}";
  }

  // Top-level metadata record: lets tools (drx doctor) detect a truncated
  // trace without scanning stderr. Extra top-level keys are legal in the
  // Trace Event Format's JSON Object form.
  out << "\n],\"metadata\":{\"events\":" << count[0]
      << ",\"flows\":" << count[1] << ",\"ops\":" << count[2]
      << ",\"dropped\":" << dropped << "}}\n";
  if (!out.good()) {
    return Status(ErrorCode::kIoError, "short write to trace file: " + path);
  }
  DRX_LOG_INFO << "wrote " << count[0] << " trace events (" << count[1]
               << " flows, " << count[2] << " ops) to " << path
               << (dropped != 0
                       ? " (" + std::to_string(dropped) + " dropped)"
                       : "");
  return Status::ok();
}

void clear_trace() {
  TraceBuffer& b = trace_buffer();
  util::MutexLock lock(b.mu);
  drain_all_locked(b);
  b.events.clear();
  std::fill(std::begin(b.count), std::end(b.count), 0);
  b.dropped = 0;
}

std::size_t trace_event_count() {
  TraceBuffer& b = trace_buffer();
  util::MutexLock lock(b.mu);
  drain_all_locked(b);
  return b.count[0];
}

}  // namespace drx::obs
