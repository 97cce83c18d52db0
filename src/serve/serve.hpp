// Array-server session layer (docs/SERVING.md; ROADMAP item 1).
//
// The paper's premise is parallel access to ONE out-of-core extendible
// array; every workload before this layer was a fixed set of ranks
// driving the file directly. drx::serve decouples logical clients from
// worker threads: M sessions (M >> threads) submit mixed
// read/write/extend/prefetch requests against a shared array through a
// bounded submission queue (DRX_SERVE_QUEUE_DEPTH) multiplexed onto one
// AsyncIoPool, on top of the sharded ChunkCache (DRX_CACHE_SHARDS) whose
// lock-free resident-read fast path keeps concurrent point/box reads off
// the shard mutexes.
//
// Concurrency model:
//  - read / write / prefetch requests hold the structure lock SHARED:
//    they may interleave freely (the sharded cache serializes per-chunk
//    state; the storage layer is serialized by the cache's io mutex);
//  - extend holds it EXCLUSIVE: the cache is flushed first (a barrier
//    that drains the cache pool), then the array grows — so no
//    background fault or write-back can race the metadata mutation.
//  - a serve job never submits to its own pool (the bounded queue would
//    deadlock); cache I/O runs inline or on the cache's own pool.
//
// Observability: each request runs under a fresh "serve.request" op (per
// PR6 stage attribution), records its end-to-end latency in the
// serve.request.latency_us histogram, and — when the flight recorder is
// on — leaves an op event tagged with the session id, so drx doctor can
// attribute tail latency to a session after a crash or SLO breach.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/chunk_cache.hpp"
#include "core/coords.hpp"
#include "core/drx_file.hpp"
#include "io/async_pool.hpp"
#include "obs/exporter.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace drx::serve {

enum class RequestType : std::uint8_t {
  kRead = 0,   ///< box read into caller memory
  kWrite,      ///< box write from request-owned bytes
  kExtend,     ///< grow one dimension (exclusive; flushes the cache first)
  kPrefetch,   ///< advisory box prefetch (background job class)
};

/// One client request. Reads scatter into `out`, which must stay valid
/// until the request completes (future resolved / completion invoked).
/// Writes own their payload (`data`) so the client may retire its buffer
/// immediately after submit.
struct Request {
  RequestType type = RequestType::kRead;
  core::Box box{core::Index{}, core::Index{}};
  core::MemoryOrder order = core::MemoryOrder::kRowMajor;
  std::span<std::byte> out{};        ///< kRead destination
  std::vector<std::byte> data{};     ///< kWrite payload
  std::size_t dim = 0;               ///< kExtend dimension
  std::uint64_t delta = 0;           ///< kExtend growth in elements
};

class Server;

/// A logical client of the server. Cheap: an id plus request counters —
/// open as many as the workload has clients, regardless of the worker
/// count. Thread-safe; obtained from Server::open_session() and owned by
/// the server (valid until the server is destroyed).
class Session {
 public:
  using Completion = std::function<void(const Status&)>;

  /// Enqueues `req`; resolves with the request's Status. Blocks only
  /// when the submission queue is at capacity (backpressure).
  std::future<Status> submit(Request req);

  /// Callback variant: `done` runs on the worker right after the request.
  void submit(Request req, Completion done);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept {
    return submitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  friend class Server;
  Session(Server* server, std::uint64_t id) : server_(server), id_(id) {}

  Server* server_;
  std::uint64_t id_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
};

class Server {
 public:
  struct Options {
    int workers = 2;             ///< pool threads (>= 1)
    std::size_t queue_depth = 0; ///< 0 = DRX_SERVE_QUEUE_DEPTH
    std::size_t cache_chunks = 64;  ///< shared ChunkCache capacity
    /// Array label on this server's scrape series (the `array` label in
    /// /metrics — docs/OBSERVABILITY.md "Live telemetry"). Keep it a
    /// short fixed identifier: label values are time-series keys.
    std::string name = "default";
    /// Cache engine config. shards == 0 resolves to DRX_CACHE_SHARDS,
    /// and — unlike a plain ChunkCache, whose unset default is the
    /// 1-shard legacy cache — an unset environment here defaults to 8
    /// shards: a server exists to be hit concurrently.
    core::ChunkCache::AsyncOptions cache{};
  };

  /// Serves `file` through a shared cache. The file must outlive the
  /// server; all access to it should go through this server while it
  /// exists (extend takes the structure lock only server-side).
  Server(core::DrxFile& file, const Options& options);

  /// Drains outstanding requests, publishes the per-session completion
  /// spread (serve.session.completed_min/max), and joins the workers.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a new logical client. Thread-safe; the Session lives as long
  /// as the server.
  Session& open_session();

  /// Barrier: every request submitted before the call has completed.
  void drain();

  /// Flushes the shared cache (write-back barrier).
  [[nodiscard]] Status flush();

  /// The shared cached array (benches/tests: shard stats, direct access).
  [[nodiscard]] core::CachedDrxFile& array() noexcept { return cached_; }

  [[nodiscard]] std::size_t sessions() const;

  /// Mirrors the per-session completion spread into the obs counters
  /// serve.sessions / serve.session.completed_min / _max, feeding the
  /// drx doctor session-starvation detector. Called by the destructor;
  /// idempotent (publishes once).
  void publish_session_stats();

 private:
  friend class Session;

  std::future<Status> enqueue(Session& session, Request req);
  void enqueue(Session& session, Request req, Session::Completion done);
  [[nodiscard]] Status execute(Session& session, const Request& req,
                 std::uint64_t submit_ns);

  /// Appends this server's live gauges (per-session request counters
  /// capped at obs::kMaxSessionLabels + an "overflow" aggregate, queue
  /// depth, cache fast-hit ratio) for the metrics exporter.
  void scrape(std::vector<obs::ScrapeGauge>& out) const;

  core::DrxFile* file_;
  std::string name_;
  core::CachedDrxFile cached_;
  // drx-verify: allow(unannotated-mutex-member) guards the array's
  // structure (bounds/metadata owned by DrxFile, not a member here):
  // shared for read/write/prefetch, exclusive for extend.
  util::SharedMutex structure_mu_;
  io::AsyncIoPool pool_;
  mutable util::Mutex mu_;
  std::deque<std::unique_ptr<Session>> sessions_ DRX_GUARDED_BY(mu_);
  bool stats_published_ DRX_GUARDED_BY(mu_) = false;
  int scrape_handle_ = 0;  ///< exporter provider registration
};

}  // namespace drx::serve
