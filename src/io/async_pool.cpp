#include "io/async_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/knob.hpp"
#include "util/logging.hpp"

namespace drx::io {

namespace {

const obs::MetricId kSubmitted = obs::counter_id("io.pool.submitted");
const obs::MetricId kCompleted = obs::counter_id("io.pool.completed");
const obs::MetricId kInline = obs::counter_id("io.pool.inline_runs");
const obs::MetricId kFailed = obs::counter_id("io.pool.failed");
const obs::MetricId kDrains = obs::counter_id("io.pool.drains");
const obs::MetricId kBackgroundSubmitted =
    obs::counter_id("io.pool.background_submitted");
const obs::MetricId kQueueDepth = obs::histogram_id("io.pool.queue_depth");
const obs::MetricId kJobUs = obs::histogram_id("io.pool.job_us");

/// Knob `name` from the environment: `fallback` when unset or empty, and
/// also (with one warning) when it is not a decimal in [min, max].
std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (const auto v = util::parse_knob(raw, min, max)) return *v;
  DRX_LOG(kWarn) << name << "='" << raw << "' is not a whole number in ["
                 << min << ", " << max << "]; using the default "
                 << fallback;
  return fallback;
}

constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();
// DRX_IO_THREADS and DRX_CACHE_SHARDS take any count and cap it here.
constexpr std::uint64_t kMaxThreadsOrShards = 64;

// Overrides: the sentinel means "defer to the environment".
constexpr int kThreadsFromEnv = -1;
std::atomic<int> g_io_threads_override{kThreadsFromEnv};
std::atomic<std::uint64_t> g_prefetch_override{kPrefetchFromEnv};
std::atomic<CacheAdmit> g_cache_admit_override{CacheAdmit::kFromEnv};
std::atomic<int> g_cache_shards_override{-1};
std::atomic<int> g_cache_fast_reads_override{-1};
std::atomic<std::uint64_t> g_serve_queue_depth_override{0};

}  // namespace

int io_threads() noexcept {
  const int o = g_io_threads_override.load(std::memory_order_relaxed);
  if (o >= 0) return o;
  // Read once: the engine treats the environment as process-constant.
  static const int from_env = static_cast<int>(std::min<std::uint64_t>(
      env_u64("DRX_IO_THREADS", 0, 0, kAnyCount), kMaxThreadsOrShards));
  return from_env;
}

std::uint64_t prefetch_depth() noexcept {
  const std::uint64_t o = g_prefetch_override.load(std::memory_order_relaxed);
  if (o != kPrefetchFromEnv) return o;
  static const std::uint64_t from_env =
      env_u64("DRX_PREFETCH_DEPTH", 0, 0, kAnyCount);
  return from_env;
}

void set_io_threads(int threads) noexcept {
  g_io_threads_override.store(threads < 0 ? kThreadsFromEnv : threads,
                              std::memory_order_relaxed);
}

void set_prefetch_depth(std::uint64_t depth) noexcept {
  g_prefetch_override.store(depth, std::memory_order_relaxed);
}

CacheAdmit cache_admit() noexcept {
  const CacheAdmit o = g_cache_admit_override.load(std::memory_order_relaxed);
  if (o != CacheAdmit::kFromEnv) return o;
  static const CacheAdmit from_env = [] {
    const char* raw = std::getenv("DRX_CACHE_ADMIT");
    if (raw == nullptr || *raw == '\0') return CacheAdmit::kAuto;
    const std::string_view v(raw);
    if (v == "always") return CacheAdmit::kAlways;
    if (v == "never") return CacheAdmit::kNever;
    return CacheAdmit::kAuto;  // "auto" and anything unrecognized
  }();
  return from_env;
}

void set_cache_admit(CacheAdmit mode) noexcept {
  g_cache_admit_override.store(mode, std::memory_order_relaxed);
}

int cache_shards() noexcept {
  const int o = g_cache_shards_override.load(std::memory_order_relaxed);
  if (o >= 0) return o;
  static const int from_env = static_cast<int>(std::min<std::uint64_t>(
      env_u64("DRX_CACHE_SHARDS", 0, 0, kAnyCount), kMaxThreadsOrShards));
  return from_env;
}

void set_cache_shards(int shards) noexcept {
  g_cache_shards_override.store(shards < 0 ? -1 : shards,
                                std::memory_order_relaxed);
}

bool cache_fast_reads() noexcept {
  const int o = g_cache_fast_reads_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static const bool from_env = env_u64("DRX_CACHE_FAST_READS", 1, 0, 1) != 0;
  return from_env;
}

void set_cache_fast_reads(int mode) noexcept {
  g_cache_fast_reads_override.store(mode < 0 ? -1 : (mode != 0 ? 1 : 0),
                                    std::memory_order_relaxed);
}

std::size_t serve_queue_depth() noexcept {
  const std::uint64_t o =
      g_serve_queue_depth_override.load(std::memory_order_relaxed);
  if (o != 0) return static_cast<std::size_t>(o);
  static const std::size_t from_env = static_cast<std::size_t>(
      env_u64("DRX_SERVE_QUEUE_DEPTH", 128, 1, std::size_t{1} << 20));
  return from_env;
}

void set_serve_queue_depth(std::size_t depth) noexcept {
  g_serve_queue_depth_override.store(depth, std::memory_order_relaxed);
}

AsyncIoPool::AsyncIoPool(const Options& options) : options_(options) {
  DRX_CHECK(options.queue_capacity >= 1);
  const int n = options.threads < 0 ? 0 : options.threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AsyncIoPool::~AsyncIoPool() {
  drain();
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void AsyncIoPool::finish_one(const Status& status) {
  ++stats_.completed;
  obs::registry().counter(kCompleted).add();
  if (!status.is_ok()) {
    ++stats_.failed;
    obs::registry().counter(kFailed).add();
  }
}

void AsyncIoPool::submit(const obs::OpContext& ctx, Job job, Completion done,
                         JobClass cls) {
  DRX_CHECK(job != nullptr);
  if (!async()) {
    // Inline synchronous path: same observable order as the legacy code —
    // the work (and its completion) happens before submit() returns. No
    // flow events (there is no thread handoff to draw an arrow across),
    // but the context is still installed so stage attribution works when
    // a caller submits on behalf of another thread's op.
    {
      util::MutexLock lock(mu_);
      ++stats_.submitted;
      ++stats_.inline_runs;
    }
    obs::registry().counter(kSubmitted).add();
    obs::registry().counter(kInline).add();
    Status status;
    {
      obs::OpRestore restore(ctx);
      status = job();
    }
    {
      util::MutexLock lock(mu_);
      finish_one(status);
    }
    if (done) done(status);
    return;
  }
  // Submit side of the causal arrow ("s" flow phase) and the start of the
  // queue-wait clock. Guarded so the disabled-everything path stays free
  // of clock reads.
  std::uint64_t flow_id = 0;
  if (obs::trace_enabled() || obs::flight_enabled()) {
    flow_id = obs::next_flow_id();
    obs::record_flow_out(flow_id, ctx);
  }
  util::MutexLock lock(mu_);
  {
    // Backpressure (queue at capacity) is queue-wait time from the op's
    // point of view: the op is stalled on the async engine.
    const std::uint64_t wait_start =
        ctx.op != 0 ? obs::trace_now_ns() : 0;
    space_cv_.wait(lock, [this] {
      mu_.assert_held();
      return queued_locked() < options_.queue_capacity;
    });
    if (ctx.op != 0) {
      obs::add_stage_ns(ctx, obs::Stage::kQueueWait,
                        obs::trace_now_ns() - wait_start);
    }
  }
  const std::uint64_t enqueue_ns = ctx.op != 0 ? obs::trace_now_ns() : 0;
  queues_[static_cast<std::size_t>(cls)].push_back(
      Task{std::move(job), std::move(done), ctx, flow_id, enqueue_ns});
  ++stats_.submitted;
  if (cls == JobClass::kBackground) {
    ++stats_.background_submitted;
    obs::registry().counter(kBackgroundSubmitted).add();
  }
  obs::registry().counter(kSubmitted).add();
  obs::registry().histogram(kQueueDepth).observe(queued_locked());
  lock.unlock();
  work_cv_.notify_one();
}

std::future<Status> AsyncIoPool::submit_with_future(const obs::OpContext& ctx,
                                                    Job job, JobClass cls) {
  auto promise = std::make_shared<std::promise<Status>>();
  std::future<Status> future = promise->get_future();
  submit(ctx, std::move(job),
         [promise](const Status& s) { promise->set_value(s); }, cls);
  return future;
}

void AsyncIoPool::drain() {
  obs::registry().counter(kDrains).add();
  util::MutexLock lock(mu_);
  idle_cv_.wait(lock, [this] {
    mu_.assert_held();
    return queued_locked() == 0 && running_ == 0;
  });
}

std::size_t AsyncIoPool::queue_depth() const {
  util::MutexLock lock(mu_);
  return queued_locked();
}

AsyncIoPool::Stats AsyncIoPool::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

std::size_t AsyncIoPool::pick_queue_locked() {
  const std::size_t urgent = 0;
  const std::size_t background = 1;
  if (queues_[urgent].empty()) return background;
  if (queues_[background].empty()) return urgent;
  // Both classes waiting: urgent first, except every 4th dispatch serves
  // the background queue so speculation keeps making progress under a
  // continuous urgent stream (anti-starvation, docs/SERVING.md).
  return (dispatches_ % 4 == 3) ? background : urgent;
}

void AsyncIoPool::worker_loop() {
  for (;;) {
    util::MutexLock lock(mu_);
    work_cv_.wait(lock, [this] {
      mu_.assert_held();
      return stop_ || queued_locked() != 0;
    });
    if (queued_locked() == 0) return;  // stop_ and nothing left to do
    std::deque<Task>& queue = queues_[pick_queue_locked()];
    ++dispatches_;
    Task task = std::move(queue.front());
    queue.pop_front();
    ++running_;
    lock.unlock();
    space_cv_.notify_one();

    // Consume side of the causal arrow: close the queue-wait clock, emit
    // the "f" flow phase, and run the job under the submitter's OpContext
    // so everything it touches attributes to the originating op.
    if (task.enqueue_ns != 0) {
      obs::add_stage_ns(task.ctx, obs::Stage::kQueueWait,
                        obs::trace_now_ns() - task.enqueue_ns);
    }
    if (task.flow_id != 0 &&
        (obs::trace_enabled() || obs::flight_enabled())) {
      obs::record_flow_in(task.flow_id, task.ctx);
    }
    Status status;
    {
      obs::OpRestore restore(task.ctx);
      obs::ScopedSpan span("io.pool.job", "io");
      obs::ScopedTimer timer(kJobUs);
      status = task.job();
    }
    if (task.done) task.done(status);

    lock.lock();
    --running_;
    finish_one(status);
    const bool idle = queued_locked() == 0 && running_ == 0;
    lock.unlock();
    if (idle) idle_cv_.notify_all();
  }
}

}  // namespace drx::io
