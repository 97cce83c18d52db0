// Runtime knobs for the async chunk I/O engine (docs/ASYNC_IO.md).
//
// The knobs are read from the environment once at startup and can be
// overridden programmatically (tests and benches flip them without
// re-exec'ing). Worker threads are opt-in: at the zero defaults every
// pool runs its jobs inline on the submitting thread, through the same
// code paths the workers would take. A numeric knob must be a whole
// decimal in its range (util::parse_knob); anything else keeps the default
// and logs one warning.
//
//   DRX_IO_THREADS     worker threads per AsyncIoPool consumer, capped
//                      at 64 (0 = no threads; every submission runs
//                      inline)
//   DRX_PREFETCH_DEPTH read-ahead switch: non-zero turns on speculative
//                      read-ahead when a cache detects a sequential miss
//                      run (0 = off; only active when DRX_IO_THREADS >
//                      0). The value is not a size: a window takes
//                      every frame it may (ChunkCache::reserve_fill)
//   DRX_CACHE_ADMIT    ChunkCache admission policy for element-granular
//                      misses (docs/PERFORMANCE.md): `auto` (default) uses
//                      the ghost/probation filter so scan/random patterns
//                      bypass the cache, `always` restores unconditional
//                      admission, `never` bypasses every element miss
//   DRX_CACHE_SHARDS   ChunkCache lock shards (docs/SERVING.md). 0 (the
//                      default) lets each consumer pick: a plain
//                      ChunkCache uses 1 shard (legacy single-lock
//                      semantics), drx::serve::Server uses 8. Rounded
//                      down to a power of two, capped at 64.
//   DRX_CACHE_FAST_READS  lock-free resident-read fast path (1 = on, the
//                      default; 0 = every read takes the shard mutex —
//                      the pre-sharding behavior, kept as an ablation
//                      knob for benches)
//   DRX_SERVE_QUEUE_DEPTH  bound of the drx::serve submission queue,
//                      1..1048576 (default 128); a session submitting
//                      into a full queue blocks until a worker drains it
#pragma once

#include <cstddef>
#include <cstdint>

namespace drx::io {

/// Worker-thread count consumers should size their pools with.
[[nodiscard]] int io_threads() noexcept;

/// Read-ahead switch for sequential-scan prefetching: non-zero = on.
[[nodiscard]] std::uint64_t prefetch_depth() noexcept;

/// ChunkCache admission policy for element-granular misses.
enum class CacheAdmit {
  kAuto,    ///< ghost/probation filter: admit on demonstrated reuse
  kAlways,  ///< legacy behavior: every element miss faults its chunk
  kNever,   ///< every element miss bypasses to direct element I/O
  kFromEnv  ///< sentinel for set_cache_admit(): defer to DRX_CACHE_ADMIT
};

/// Admission policy from DRX_CACHE_ADMIT (or its test override).
[[nodiscard]] CacheAdmit cache_admit() noexcept;

/// ChunkCache lock-shard count from DRX_CACHE_SHARDS. 0 = unset: the
/// consumer chooses its own default (docs/SERVING.md).
[[nodiscard]] int cache_shards() noexcept;

/// Lock-free resident-read fast path from DRX_CACHE_FAST_READS
/// (default on).
[[nodiscard]] bool cache_fast_reads() noexcept;

/// drx::serve submission-queue bound from DRX_SERVE_QUEUE_DEPTH
/// (default 128, never 0).
[[nodiscard]] std::size_t serve_queue_depth() noexcept;

/// Programmatic overrides (tests/benches). Negative `threads` restores
/// the environment-derived value; so do `kPrefetchFromEnv` for depth,
/// `CacheAdmit::kFromEnv` for the admission policy, negative `shards` /
/// `fast_reads`, and 0 for the serve queue depth.
inline constexpr std::uint64_t kPrefetchFromEnv = ~std::uint64_t{0};
void set_io_threads(int threads) noexcept;
void set_prefetch_depth(std::uint64_t depth) noexcept;
void set_cache_admit(CacheAdmit mode) noexcept;
void set_cache_shards(int shards) noexcept;
void set_cache_fast_reads(int mode) noexcept;
void set_serve_queue_depth(std::size_t depth) noexcept;

}  // namespace drx::io
