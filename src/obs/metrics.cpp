#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

#include "obs/json.hpp"
#include "obs/window.hpp"
#include "util/logging.hpp"
#include "util/serde.hpp"

namespace drx::obs {

namespace {

enum class MetricKind : std::uint8_t { kCounter, kHistogram };

/// Process-global name -> id intern table. Never destroyed: metric ids may
/// be used from static destructors (atexit dump).
struct InternTable {
  util::Mutex mu;
  std::unordered_map<std::string, MetricId> ids DRX_GUARDED_BY(mu);
  std::vector<std::string> names DRX_GUARDED_BY(mu);  // index = id
  std::vector<MetricKind> kinds DRX_GUARDED_BY(mu);   // index = id
};

InternTable& interns() {
  static InternTable* table = new InternTable;
  return *table;
}

MetricId intern(std::string_view name, MetricKind kind) {
  InternTable& t = interns();
  util::MutexLock lock(t.mu);
  auto it = t.ids.find(std::string(name));
  if (it != t.ids.end()) {
    DRX_CHECK_MSG(t.kinds[it->second] == kind,
                  "metric registered twice with different kinds");
    return it->second;
  }
  const MetricId id = static_cast<MetricId>(t.names.size());
  t.names.emplace_back(name);
  t.kinds.push_back(kind);
  t.ids.emplace(std::string(name), id);
  return id;
}

std::string metric_name(MetricId id) {
  InternTable& t = interns();
  util::MutexLock lock(t.mu);
  DRX_CHECK(id < t.names.size());
  return t.names[id];
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local Registry* tls_registry = nullptr;
thread_local int tls_rank = -1;

/// Rank registries currently installed by live RankScopes, so a window
/// epoch capture can see in-flight rank increments before they fold. A
/// scope unregisters *before* merging into its parent: a concurrent
/// live_snapshot may transiently undercount (monotonically recovered by
/// the next capture) but never double-counts.
util::Mutex g_live_mu;
std::vector<const Registry*> g_live_registries DRX_GUARDED_BY(g_live_mu);

void register_live(const Registry* reg) {
  util::MutexLock lock(g_live_mu);
  g_live_registries.push_back(reg);
}

void unregister_live(const Registry* reg) {
  util::MutexLock lock(g_live_mu);
  auto it = std::find(g_live_registries.begin(), g_live_registries.end(), reg);
  if (it != g_live_registries.end()) g_live_registries.erase(it);
}

/// Writes the process registry to $DRX_METRICS (binary snapshot readable
/// by drx stats) when the process exits.
void dump_metrics_at_exit() {
  const char* path = std::getenv("DRX_METRICS");
  if (path == nullptr || path[0] == '\0') return;
  const MetricsSnapshot snap = process_registry().snapshot();
  const std::vector<std::byte> blob = snap.serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "[drx obs] cannot write DRX_METRICS file %s\n", path);
    return;
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
}

}  // namespace

MetricId counter_id(std::string_view name) {
  return intern(name, MetricKind::kCounter);
}

MetricId histogram_id(std::string_view name) {
  return intern(name, MetricKind::kHistogram);
}

void Histogram::accumulate(
    std::uint64_t count, std::uint64_t sum,
    const std::array<std::uint64_t, kHistogramBuckets>& buckets) noexcept {
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] != 0) {
      buckets_[b].fetch_add(buckets[b], std::memory_order_relaxed);
    }
  }
}

void Histogram::observe(std::uint64_t v) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  const auto b = static_cast<std::size_t>(std::bit_width(v));
  buckets_[std::min(b, kHistogramBuckets - 1)].fetch_add(
      1, std::memory_order_relaxed);
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Counter& Registry::counter(MetricId id) {
  // Steady state: one acquire load. The release store below publishes the
  // fully constructed Counter, and slots never revert to null.
  if (id < kFastIds) {
    if (Counter* fast = fast_counters_[id].load(std::memory_order_acquire)) {
      return *fast;
    }
  }
  util::WriterMutexLock lock(mu_);
  if (id >= counters_.size()) counters_.resize(id + 1);
  if (counters_[id] == nullptr) counters_[id] = std::make_unique<Counter>();
  if (id < kFastIds) {
    fast_counters_[id].store(counters_[id].get(), std::memory_order_release);
  }
  return *counters_[id];
}

Histogram& Registry::histogram(MetricId id) {
  if (id < kFastIds) {
    if (Histogram* fast =
            fast_histograms_[id].load(std::memory_order_acquire)) {
      return *fast;
    }
  }
  util::WriterMutexLock lock(mu_);
  if (id >= histograms_.size()) histograms_.resize(id + 1);
  if (histograms_[id] == nullptr) {
    histograms_[id] = std::make_unique<Histogram>();
  }
  if (id < kFastIds) {
    fast_histograms_[id].store(histograms_[id].get(),
                               std::memory_order_release);
  }
  return *histograms_[id];
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  util::ReaderMutexLock lock(mu_);
  for (MetricId id = 0; id < counters_.size(); ++id) {
    if (counters_[id] == nullptr) continue;
    snap.counters.push_back(CounterSample{metric_name(id),
                                          counters_[id]->value()});
  }
  for (MetricId id = 0; id < histograms_.size(); ++id) {
    if (histograms_[id] == nullptr) continue;
    HistogramSample s;
    s.name = metric_name(id);
    s.count = histograms_[id]->count();
    s.sum = histograms_[id]->sum();
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      s.buckets[b] = histograms_[id]->bucket(b);
    }
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

void Registry::merge_into(Registry& dst) const {
  util::ReaderMutexLock lock(mu_);
  for (MetricId id = 0; id < counters_.size(); ++id) {
    if (counters_[id] == nullptr || counters_[id]->value() == 0) continue;
    dst.counter(id).add(counters_[id]->value());
  }
  for (MetricId id = 0; id < histograms_.size(); ++id) {
    if (histograms_[id] == nullptr || histograms_[id]->count() == 0) continue;
    const Histogram& in = *histograms_[id];
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      buckets[b] = in.bucket(b);
    }
    dst.histogram(id).accumulate(in.count(), in.sum(), buckets);
  }
}

void Registry::reset() {
  // Zero in place rather than destroying: the lock-free slot table and
  // any cached references stay valid across bench/test resets. Metrics
  // touched before a reset reappear in later snapshots with value 0,
  // which merge()/counter() treat the same as absent.
  {
    util::WriterMutexLock lock(mu_);
    for (const auto& c : counters_) {
      if (c != nullptr) c->reset();
    }
    for (const auto& h : histograms_) {
      if (h != nullptr) h->reset();
    }
  }
  // Window epochs captured before the reset are cumulative pre-reset
  // values; subtracting them from post-reset snapshots would produce
  // garbage deltas, so drop the ring. Must run after mu_ is released:
  // a concurrent window_tick holds the window mutex while it calls
  // live_snapshot() -> Registry::snapshot() -> mu_ (shared), so taking
  // the window mutex while holding mu_ would be an ABBA deadlock.
  if (this == &process_registry()) window_clear();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterSample& c : other.counters) {
    auto it = std::find_if(counters.begin(), counters.end(),
                           [&](const CounterSample& s) {
                             return s.name == c.name;
                           });
    if (it == counters.end()) {
      counters.push_back(c);
    } else {
      it->value += c.value;
    }
  }
  for (const HistogramSample& h : other.histograms) {
    auto it = std::find_if(histograms.begin(), histograms.end(),
                           [&](const HistogramSample& s) {
                             return s.name == h.name;
                           });
    if (it == histograms.end()) {
      histograms.push_back(h);
    } else {
      it->count += h.count;
      it->sum += h.sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        it->buckets[b] += h.buckets[b];
      }
    }
  }
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const CounterSample& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

MetricsSnapshot snapshot_delta(const MetricsSnapshot& cur,
                               const MetricsSnapshot& base) {
  const auto sub = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : 0;
  };
  MetricsSnapshot out;
  for (const CounterSample& c : cur.counters) {
    const std::uint64_t v = sub(c.value, base.counter(c.name));
    if (v != 0) out.counters.push_back(CounterSample{c.name, v});
  }
  for (const HistogramSample& h : cur.histograms) {
    const HistogramSample* b = nullptr;
    for (const HistogramSample& cand : base.histograms) {
      if (cand.name == h.name) {
        b = &cand;
        break;
      }
    }
    HistogramSample d;
    d.name = h.name;
    if (b == nullptr) {
      d = h;
    } else {
      d.count = sub(h.count, b->count);
      d.sum = sub(h.sum, b->sum);
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        d.buckets[i] = sub(h.buckets[i], b->buckets[i]);
      }
    }
    if (d.count != 0) out.histograms.push_back(std::move(d));
  }
  return out;
}

std::vector<std::byte> MetricsSnapshot::serialize() const {
  ByteWriter w;
  w.put_u32(0x4452584dU);  // "DRXM"
  w.put_u32(1);            // format version
  w.put_u32(static_cast<std::uint32_t>(counters.size()));
  for (const CounterSample& c : counters) {
    w.put_string(c.name);
    w.put_u64(c.value);
  }
  w.put_u32(static_cast<std::uint32_t>(histograms.size()));
  for (const HistogramSample& h : histograms) {
    w.put_string(h.name);
    w.put_u64(h.count);
    w.put_u64(h.sum);
    for (std::uint64_t b : h.buckets) w.put_u64(b);
  }
  return std::move(w).take();
}

Result<MetricsSnapshot> MetricsSnapshot::deserialize(
    std::span<const std::byte> data) {
  ByteReader r(data);
  DRX_ASSIGN_OR_RETURN(std::uint32_t magic, r.get_u32());
  if (magic != 0x4452584dU) {
    return Status(ErrorCode::kCorrupt, "not a DRX metrics snapshot");
  }
  DRX_ASSIGN_OR_RETURN(std::uint32_t version, r.get_u32());
  if (version != 1) {
    return Status(ErrorCode::kUnsupported, "unknown metrics snapshot version");
  }
  MetricsSnapshot snap;
  DRX_ASSIGN_OR_RETURN(std::uint32_t nc, r.get_u32());
  snap.counters.reserve(nc);
  for (std::uint32_t i = 0; i < nc; ++i) {
    CounterSample c;
    DRX_ASSIGN_OR_RETURN(c.name, r.get_string());
    DRX_ASSIGN_OR_RETURN(c.value, r.get_u64());
    snap.counters.push_back(std::move(c));
  }
  DRX_ASSIGN_OR_RETURN(std::uint32_t nh, r.get_u32());
  snap.histograms.reserve(nh);
  for (std::uint32_t i = 0; i < nh; ++i) {
    HistogramSample h;
    DRX_ASSIGN_OR_RETURN(h.name, r.get_string());
    DRX_ASSIGN_OR_RETURN(h.count, r.get_u64());
    DRX_ASSIGN_OR_RETURN(h.sum, r.get_u64());
    for (std::uint64_t& b : h.buckets) {
      DRX_ASSIGN_OR_RETURN(b, r.get_u64());
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

Registry& process_registry() noexcept {
  // Leaked intentionally: counters may be touched from static destructors.
  static Registry* reg = [] {
    std::atexit(dump_metrics_at_exit);
    return new Registry;
  }();
  return *reg;
}

Registry& registry() noexcept {
  return tls_registry != nullptr ? *tls_registry : process_registry();
}

int current_rank() noexcept { return tls_rank; }

MetricsSnapshot live_snapshot() {
  MetricsSnapshot snap = process_registry().snapshot();
  util::MutexLock lock(g_live_mu);
  for (const Registry* reg : g_live_registries) {
    snap.merge(reg->snapshot());
  }
  return snap;
}

RankScope::RankScope(int rank)
    : prev_registry_(tls_registry), prev_rank_(tls_rank) {
  tls_registry = &registry_;
  tls_rank = rank;
  register_live(&registry_);
}

RankScope::~RankScope() {
  unregister_live(&registry_);
  tls_registry = prev_registry_;
  tls_rank = prev_rank_;
  registry_.merge_into(registry());
}

ScopedTimer::ScopedTimer(MetricId hist_id) noexcept
    : id_(hist_id), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  const std::uint64_t elapsed_us = (now_ns() - start_ns_) / 1000;
  registry().histogram(id_).observe(elapsed_us);
}

/// Largest value a log2 bucket can hold: bucket i counts values with
/// bit_width == i, so its range is [2^(i-1), 2^i - 1] (bucket 0 holds 0).
std::uint64_t histogram_bucket_upper_bound(std::size_t i) noexcept {
  if (i == 0) return 0;
  if (i >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

namespace {

std::uint64_t bucket_upper_bound(std::size_t i) {
  return histogram_bucket_upper_bound(i);
}

}  // namespace

HistogramSummary summarize_histogram(const HistogramSample& h) {
  HistogramSummary s;
  s.count = h.count;
  if (h.count == 0) return s;
  s.mean = static_cast<double>(h.sum) / static_cast<double>(h.count);
  const auto quantile = [&](double q) {
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(h.count) + 0.5);
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      cum += h.buckets[b];
      if (cum >= target && cum != 0) return bucket_upper_bound(b);
    }
    return bucket_upper_bound(kHistogramBuckets - 1);
  };
  s.p50 = quantile(0.50);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  for (std::size_t b = kHistogramBuckets; b-- > 0;) {
    if (h.buckets[b] != 0) {
      s.max = bucket_upper_bound(b);
      break;
    }
  }
  return s;
}

std::optional<LabelledName> parse_labelled(std::string_view name) {
  static constexpr LabelledName kFamilies[] = {
      {"core.cache.shard", "shard", 0, {}},
      {"pfs.server", "server", 0, {}},
      {"core.zone.rank", "rank", 0, {}},
  };
  for (const LabelledName& f : kFamilies) {
    if (name.size() <= f.family.size() || !name.starts_with(f.family) ||
        name[f.family.size()] != '.') {
      continue;
    }
    const std::string_view rest = name.substr(f.family.size() + 1);
    const std::size_t dot = rest.find('.');
    if (dot == std::string_view::npos || dot + 1 == rest.size()) break;
    // from_chars takes a leading '-', so the first digit is checked here.
    if (rest[0] < '0' || rest[0] > '9') break;
    int index = 0;
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + dot, index);
    if (ec != std::errc() || end != rest.data() + dot) break;
    return LabelledName{f.family, f.label, index, rest.substr(dot + 1)};
  }
  return std::nullopt;
}

std::string metrics_to_text(const MetricsSnapshot& snap) {
  std::string out;
  std::size_t width = 0;
  for (const CounterSample& c : snap.counters) {
    width = std::max(width, c.name.size());
  }
  for (const HistogramSample& h : snap.histograms) {
    width = std::max(width, h.name.size());
  }
  char buf[192];
  out += "counters:\n";
  for (const CounterSample& c : snap.counters) {
    std::snprintf(buf, sizeof(buf), "  %-*s %llu\n", static_cast<int>(width),
                  c.name.c_str(), static_cast<unsigned long long>(c.value));
    out += buf;
  }
  out += "histograms:\n";
  for (const HistogramSample& h : snap.histograms) {
    const HistogramSummary s = summarize_histogram(h);
    std::snprintf(buf, sizeof(buf),
                  "  %-*s count=%llu sum=%llu mean=%.1f p50<=%llu p95<=%llu "
                  "max<=%llu\n",
                  static_cast<int>(width), h.name.c_str(),
                  static_cast<unsigned long long>(h.count),
                  static_cast<unsigned long long>(h.sum), s.mean,
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p95),
                  static_cast<unsigned long long>(s.max));
    out += buf;
  }
  return out;
}

void metrics_to_json(const MetricsSnapshot& snap, JsonWriter& w) {
  w.begin_object();
  w.key("counters").begin_object();
  for (const CounterSample& c : snap.counters) {
    w.key(c.name).value(c.value);
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const HistogramSample& h : snap.histograms) {
    const HistogramSummary s = summarize_histogram(h);
    w.key(h.name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("p50").value(s.p50);
    w.key("p95").value(s.p95);
    w.key("p99").value(s.p99);
    w.key("max").value(s.max);
    w.key("buckets").begin_array();
    // Trailing zero buckets are elided to keep reports small.
    std::size_t last = kHistogramBuckets;
    while (last > 0 && h.buckets[last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) w.value(h.buckets[b]);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace drx::obs
