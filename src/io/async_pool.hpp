// Background I/O engine for the DRX stack (docs/ASYNC_IO.md).
//
// A small fixed pool of worker threads servicing a bounded FIFO of
// Status-returning jobs. Consumers (ChunkCache write-behind/read-ahead,
// mpio aggregator fan-out) submit closures
// and either wait on a future, register a completion callback, or use
// drain() as a barrier.
//
// Two properties the rest of the stack leans on:
//  - threads == 0 degrades to *inline* execution: submit() runs the job
//    (and its completion) on the calling thread before returning, so a
//    consumer has one code path for every thread count. Submit with no
//    lock held that the job itself takes.
//  - the submission queue is bounded: a fast producer blocks in submit()
//    rather than queueing unbounded dirty buffers (write-behind
//    backpressure). Corollary: a job must never submit to its own pool,
//    or a full queue deadlocks.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "obs/opctx.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace drx::io {

class AsyncIoPool {
 public:
  using Job = std::function<Status()>;
  using Completion = std::function<void(const Status&)>;

  struct Options {
    int threads = 0;                  ///< 0 = inline synchronous execution
    std::size_t queue_capacity = 256; ///< max jobs waiting (not running)
  };

  /// Two-class dispatch fairness (docs/SERVING.md): kUrgent jobs (demand
  /// reads/writes, write-behind, serve sessions) are dispatched ahead of
  /// kBackground jobs (speculative read-ahead, serve prefetch hints), but
  /// every 4th dispatch takes the oldest background job so a continuous
  /// urgent stream cannot starve speculation forever.
  enum class JobClass : std::uint8_t { kUrgent = 0, kBackground = 1 };

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t inline_runs = 0;  ///< jobs executed on the caller's thread
    std::uint64_t failed = 0;       ///< jobs whose Status was an error
    std::uint64_t background_submitted = 0;  ///< JobClass::kBackground jobs
  };

  explicit AsyncIoPool(const Options& options);
  ~AsyncIoPool();  ///< drains outstanding jobs, then joins the workers
  AsyncIoPool(const AsyncIoPool&) = delete;
  AsyncIoPool& operator=(const AsyncIoPool&) = delete;

  /// True when worker threads exist (threads > 0 at construction).
  [[nodiscard]] bool async() const noexcept { return !workers_.empty(); }
  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(workers_.size());
  }

  /// Enqueues `job`; `done` (optional) runs right after it on the same
  /// thread. Blocks while the queue is at capacity. Inline mode runs
  /// everything before returning.
  ///
  /// `ctx` is the submitter's causal context (obs::current_op() at the
  /// call site — drx_verify enforces propagation): it is restored on the
  /// worker thread so stage attribution follows the op, queue time is
  /// charged to Stage::kQueueWait, and a flow-event pair links the submit
  /// to the dequeue in trace/flight output. Pass obs::OpContext{} only
  /// where no op can be in flight (drx-verify: allow(pool-submit-opctx)).
  void submit(const obs::OpContext& ctx, Job job, Completion done = nullptr,
              JobClass cls = JobClass::kUrgent);

  /// submit() variant yielding the job's Status through a future.
  std::future<Status> submit_with_future(const obs::OpContext& ctx, Job job,
                                         JobClass cls = JobClass::kUrgent);

  /// Barrier: returns once every job submitted before the call (queued or
  /// running) has completed.
  void drain();

  /// Queued-but-not-yet-running jobs right now.
  [[nodiscard]] std::size_t queue_depth() const;

  [[nodiscard]] Stats stats() const;

 private:
  struct Task {
    Job job;
    Completion done;
    obs::OpContext ctx;            ///< restored on the worker for the job
    std::uint64_t flow_id = 0;     ///< 0 = no flow event pair for this task
    std::uint64_t enqueue_ns = 0;  ///< 0 = queue wait not attributed
  };

  void worker_loop();
  void finish_one(const Status& status) DRX_REQUIRES(mu_);
  [[nodiscard]] std::size_t queued_locked() const DRX_REQUIRES(mu_) {
    return queues_[0].size() + queues_[1].size();
  }
  /// Picks the queue the next dispatch drains from (fairness policy).
  [[nodiscard]] std::size_t pick_queue_locked() DRX_REQUIRES(mu_);

  const Options options_;
  mutable util::Mutex mu_;
  util::CondVar work_cv_;   ///< workers: queue non-empty or stop
  util::CondVar space_cv_;  ///< producers: queue below capacity
  util::CondVar idle_cv_;   ///< drain(): everything completed
  /// Indexed by JobClass: [0] urgent, [1] background.
  std::deque<Task> queues_[2] DRX_GUARDED_BY(mu_);
  std::uint64_t dispatches_ DRX_GUARDED_BY(mu_) = 0;  ///< fairness clock
  std::size_t running_ DRX_GUARDED_BY(mu_) = 0;  ///< jobs executing on workers
  bool stop_ DRX_GUARDED_BY(mu_) = false;
  Stats stats_ DRX_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

}  // namespace drx::io
