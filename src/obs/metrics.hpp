// Process-wide metrics for the DRX stack (ROADMAP: the observability
// spine every perf PR reports against).
//
// Design:
//  - Metric *names* are interned once into process-global ids
//    (`counter_id` / `histogram_id`); call sites cache the id in a
//    function-local static so the steady-state cost of an increment is one
//    relaxed atomic add plus a shared-lock slot lookup.
//  - Metric *values* live in a Registry. There is one process registry
//    plus one registry per simulated rank: simpi::run installs a RankScope
//    on each rank thread, so counters incremented inside a rank body are
//    attributed to that rank. When a rank finishes, its registry folds
//    into the process registry, so whole-run totals survive the threads.
//  - Cross-rank aggregation for a live job goes through
//    MetricsSnapshot::serialize()/merge() (used by DrxMpFile::close() to
//    reduce all rank registries to rank 0).
//
// Naming scheme: `<layer>.<object>.<metric>` with layers `core`, `mpio`,
// `simpi`, `pfs` (see docs/OBSERVABILITY.md). Per-structure breakdowns
// are labelled counters, `<family>.<index>.<metric>` (parse_labelled).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/sync.hpp"

namespace drx::obs {

class JsonWriter;

/// Process-global id of a named metric. Ids are dense and shared by every
/// registry; a counter id is never also a histogram id (checked).
using MetricId = std::uint32_t;

MetricId counter_id(std::string_view name);
MetricId histogram_id(std::string_view name);

/// Monotonic counter: one relaxed atomic, safe from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

inline constexpr std::size_t kHistogramBuckets = 64;

/// Fixed log2-bucket histogram: bucket i counts observations v with
/// bit_width(v) == i (bucket 0 holds v == 0). Suited to byte counts and
/// microsecond latencies, which span many decades.
class Histogram {
 public:
  void observe(std::uint64_t v) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Adds another histogram's totals wholesale (registry/snapshot merge).
  void accumulate(std::uint64_t count, std::uint64_t sum,
                  const std::array<std::uint64_t, kHistogramBuckets>& buckets)
      noexcept;

  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
};

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

/// A point-in-time copy of a registry, mergeable and serializable (the
/// unit of cross-rank reduction and of on-disk metric dumps).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;

  /// Adds `other` into this snapshot, matching metrics by name.
  void merge(const MetricsSnapshot& other);

  /// Value of a counter by name; 0 if absent.
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  [[nodiscard]] static Result<MetricsSnapshot> deserialize(std::span<const std::byte> data);
};

/// `cur - base` metric-by-metric, saturating at 0 (a Registry::reset
/// between the two captures makes cur < base; a negative window would be
/// nonsense). Metrics absent from `base` pass through whole; zero-valued
/// results are dropped. This is the primitive the sliding-window views in
/// obs/window.hpp are built from: log2 histograms subtract bucket-wise
/// exactly as they merge.
[[nodiscard]] MetricsSnapshot snapshot_delta(const MetricsSnapshot& cur,
                                             const MetricsSnapshot& base);

/// A set of metric values. Thread-safe; slot creation is lazy.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(MetricId id);
  Histogram& histogram(MetricId id);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Adds every metric of this registry into `dst` (used to fold a rank
  /// registry into the process registry).
  void merge_into(Registry& dst) const;

  /// Zeroes every metric in place (bench/test isolation). Slot objects
  /// are never destroyed, so references returned by counter()/histogram()
  /// and the lock-free slot table below stay valid across resets.
  void reset();

 private:
  /// Dense low ids resolve through this lock-free table once the slot is
  /// created: the steady-state cost of counter()/histogram() is a single
  /// acquire load instead of a SharedMutex round-trip — metric bumps sit
  /// on the serving fast path (docs/SERVING.md). Ids past the table fall
  /// back to the locked vectors.
  static constexpr std::size_t kFastIds = 1024;

  mutable util::SharedMutex mu_;
  // index = MetricId
  std::vector<std::unique_ptr<Counter>> counters_ DRX_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<Histogram>> histograms_ DRX_GUARDED_BY(mu_);
  // Published with release after the locked vectors own the object;
  // entries are only ever null -> non-null, and objects live until the
  // registry dies.
  std::array<std::atomic<Counter*>, kFastIds> fast_counters_{};
  std::array<std::atomic<Histogram*>, kFastIds> fast_histograms_{};
};

/// The registry increments should go to on this thread: the innermost
/// RankScope's registry, or the process registry outside any rank.
Registry& registry() noexcept;

/// The whole-process registry (rank registries fold into it on exit).
Registry& process_registry() noexcept;

/// Live whole-process view: the process registry merged with every rank
/// registry currently installed by a RankScope. This is what the window
/// ticker and scrapes read mid-run, when rank totals have not folded yet.
[[nodiscard]] MetricsSnapshot live_snapshot();

/// Simulated rank of the calling thread, or -1 outside any RankScope.
int current_rank() noexcept;

/// Installs a per-rank registry + rank id on the current thread for the
/// scope's lifetime; folds the registry into the enclosing one (normally
/// the process registry) on destruction. The fold skips zero-valued
/// counters, so a rank that must stay visible after it (a zone rank that
/// moved no bytes) bumps a counter of its own: core.zone.rank.<r>.calls.
class RankScope {
 public:
  explicit RankScope(int rank);
  ~RankScope();
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

  [[nodiscard]] Registry& local() noexcept { return registry_; }

 private:
  Registry registry_;
  Registry* prev_registry_;
  int prev_rank_;
};

/// RAII timer: observes elapsed wall microseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricId hist_id) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricId id_;
  std::uint64_t start_ns_;
};

// ---- derived statistics ---------------------------------------------------

/// Quantiles derived from the log2 buckets. A quantile is reported as the
/// upper bound of the bucket it falls in (2^i - 1), i.e. within 2x of the
/// true value — the right resolution for byte sizes and latencies that
/// span decades.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;  ///< serving-latency tail (docs/SERVING.md)
  std::uint64_t max = 0;  ///< upper bound of the highest occupied bucket
};

[[nodiscard]] HistogramSummary summarize_histogram(const HistogramSample& h);

/// Largest value log2 bucket `i` can hold: 2^i - 1 (bucket 0 holds 0).
/// Exposed for consumers that need real bucket edges — the Prometheus
/// `le` labels in obs/exporter.cpp and the benchmark's quantiles.
[[nodiscard]] std::uint64_t histogram_bucket_upper_bound(
    std::size_t i) noexcept;

// ---- labelled counter names -----------------------------------------------

/// A counter name `<family>.<index>.<metric>` of one of the bounded-
/// cardinality label families: core.cache.shard (label `shard`),
/// pfs.server (`server`) and core.zone.rank (`rank`). E.g.
/// core.cache.shard.3.accesses is (core.cache.shard, shard, 3, accesses).
/// `metric` points into the parsed name.
struct LabelledName {
  std::string_view family;
  std::string_view label;
  int index = 0;
  std::string_view metric;
};

/// The one parser of labelled names (the /metrics exposition, drx top and
/// the skew detectors). The index must be a non-empty run of decimal
/// digits that fits an int — no sign, no blanks — and the metric must be
/// non-empty; anything else, and any other family, is nullopt.
[[nodiscard]] std::optional<LabelledName> parse_labelled(
    std::string_view name);

// ---- rendering & cross-run plumbing ---------------------------------------

/// Fixed-width text table of a snapshot (drx stats).
[[nodiscard]] std::string metrics_to_text(const MetricsSnapshot& snap);

/// Emits the snapshot as one JSON object {"counters":{...},
/// "histograms":{...}} into an open writer position expecting a value.
void metrics_to_json(const MetricsSnapshot& snap, JsonWriter& w);

}  // namespace drx::obs
