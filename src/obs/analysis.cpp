#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <optional>
#include <string_view>

#include "obs/json.hpp"

namespace drx::obs::analysis {

namespace {

std::string format(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

Severity severity_for_ratio(double ratio) {
  if (ratio >= kErrorRatio) return Severity::kError;
  if (ratio >= kWarnRatio) return Severity::kWarn;
  return Severity::kInfo;
}

}  // namespace

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

std::size_t count_severity(const Report& r, Severity s) {
  std::size_t n = 0;
  for (const Finding& f : r.findings) {
    if (f.severity == s) ++n;
  }
  return n;
}

bool has_errors(const Report& r) {
  return count_severity(r, Severity::kError) != 0;
}

std::string report_to_text(const Report& r) {
  std::string out = format(
      "drx doctor: %zu finding(s) (%zu error, %zu warn, %zu info)\n",
      r.findings.size(), count_severity(r, Severity::kError),
      count_severity(r, Severity::kWarn), count_severity(r, Severity::kInfo));
  if (r.findings.empty()) {
    return "drx doctor: no findings - all clear\n";
  }
  for (const Finding& f : r.findings) {
    out += format("  [%-5s] %s: %s (score %.2f)\n",
                  std::string(severity_name(f.severity)).c_str(),
                  f.id.c_str(), f.message.c_str(), f.score);
  }
  return out;
}

void report_to_json(const Report& r, JsonWriter& w) {
  w.begin_object();
  w.key("format").value("drx-doctor");
  w.key("version").value(std::uint64_t{1});
  w.key("errors").value(
      static_cast<std::uint64_t>(count_severity(r, Severity::kError)));
  w.key("warnings").value(
      static_cast<std::uint64_t>(count_severity(r, Severity::kWarn)));
  w.key("findings").begin_array();
  for (const Finding& f : r.findings) {
    w.begin_object();
    w.key("id").value(f.id);
    w.key("severity").value(severity_name(f.severity));
    w.key("score").value(f.score);
    w.key("message").value(f.message);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

ImbalanceStat imbalance(std::span<const double> values,
                        std::span<const int> ids) {
  ImbalanceStat s;
  s.n = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  std::size_t imax = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    sum += values[i];
    if (values[i] > values[imax]) imax = i;
  }
  s.max = values[imax];
  s.total = sum;
  s.mean = sum / static_cast<double>(values.size());
  s.ratio = s.mean > 0.0 ? s.max / s.mean : 1.0;
  s.argmax = ids.size() == values.size() ? ids[imax]
                                         : static_cast<int>(imax);
  return s;
}

ImbalanceStat label_imbalance(const MetricsSnapshot& snap,
                              std::string_view family,
                              std::string_view metric,
                              std::string_view presence) {
  std::map<int, double> load;
  for (const CounterSample& c : snap.counters) {
    const std::optional<LabelledName> l = parse_labelled(c.name);
    if (!l || l->family != family) continue;
    if (l->metric == metric) {
      load[l->index] += static_cast<double>(c.value);
    } else if (l->metric == presence) {
      load.try_emplace(l->index, 0.0);
    }
  }
  std::vector<double> values;
  std::vector<int> ids;
  values.reserve(load.size());
  ids.reserve(load.size());
  for (const auto& [id, v] : load) {
    ids.push_back(id);
    values.push_back(v);
  }
  return imbalance(values, ids);
}

void analyze_metrics(const MetricsSnapshot& snap, std::vector<Finding>& out) {
  if (const std::uint64_t dropped = snap.counter("obs.trace.dropped");
      dropped != 0) {
    out.push_back(Finding{
        "trace-dropped", Severity::kError, static_cast<double>(dropped),
        format("%llu trace event(s) dropped (ring full) - the trace is "
               "truncated",
               static_cast<unsigned long long>(dropped))});
  }

  const std::uint64_t hits = snap.counter("core.cache.hits");
  const std::uint64_t misses = snap.counter("core.cache.misses");
  const std::uint64_t evictions = snap.counter("core.cache.evictions");
  if (hits + misses >= 100) {
    const double hit_rate = static_cast<double>(hits) /
                            static_cast<double>(hits + misses);
    if (hit_rate < 0.5 && evictions * 2 > misses) {
      out.push_back(Finding{
          "cache-thrash", Severity::kWarn, 1.0 - hit_rate,
          format("cache hit rate %.0f%% with %llu evictions on %llu misses "
                 "- working set exceeds cache capacity",
                 hit_rate * 100.0,
                 static_cast<unsigned long long>(evictions),
                 static_cast<unsigned long long>(misses))});
    }
  }

  const std::uint64_t issued = snap.counter("core.cache.prefetch_issued");
  const std::uint64_t useful = snap.counter("core.cache.prefetch_useful");
  const std::uint64_t wasted = snap.counter("core.cache.prefetch_wasted");
  if (issued >= 16) {
    const double wasted_frac = static_cast<double>(wasted) /
                               static_cast<double>(issued);
    const double useful_frac = static_cast<double>(useful) /
                               static_cast<double>(issued);
    if (wasted_frac > 0.5) {
      out.push_back(Finding{
          "prefetch-waste", Severity::kWarn, wasted_frac,
          format("%.0f%% of %llu prefetched chunks were evicted unused - "
                 "read-ahead outruns the access pattern",
                 wasted_frac * 100.0,
                 static_cast<unsigned long long>(issued))});
    } else if (useful_frac < 0.5) {
      out.push_back(Finding{
          "prefetch-low-yield", Severity::kInfo, useful_frac,
          format("only %.0f%% of %llu prefetched chunks were used so far",
                 useful_frac * 100.0,
                 static_cast<unsigned long long>(issued))});
    }
  }

  // Causal stage attribution (docs/OBSERVABILITY.md): every closed op
  // bumps obs.op.dominant.<stage>; a majority stuck in one wait stage is
  // an actionable bottleneck, not noise.
  const std::uint64_t op_count = snap.counter("obs.op.count");
  if (op_count >= 16) {
    const double ops = static_cast<double>(op_count);
    const double queue_frac =
        static_cast<double>(snap.counter("obs.op.dominant.queue_wait")) / ops;
    const double lock_frac =
        static_cast<double>(snap.counter("obs.op.dominant.lock_wait")) / ops;
    if (queue_frac > 0.5) {
      out.push_back(Finding{
          "op-queue-wait-dominated", Severity::kWarn, queue_frac,
          format("%.0f%% of %llu ops spend most of their time waiting in "
                 "the async I/O queue - the pool is saturated; raise "
                 "DRX_IO_THREADS",
                 queue_frac * 100.0,
                 static_cast<unsigned long long>(op_count))});
    }
    if (lock_frac > 0.5) {
      out.push_back(Finding{
          "op-lock-wait-dominated", Severity::kWarn, lock_frac,
          format("%.0f%% of %llu ops spend most of their time blocked on "
                 "the ChunkCache mutex - shard the cache or shrink "
                 "critical sections",
                 lock_frac * 100.0,
                 static_cast<unsigned long long>(op_count))});
    }
  }

  // Run-coalescing health (docs/PERFORMANCE.md): the CopyPlan data plane
  // batches scatter/gather into contiguous memcpy runs, so elements per
  // run should be well above 1 on any realistic clip. A ratio near 1 on
  // a non-trivial volume means some path degenerated into per-element
  // copies (e.g. pathological strides or a consumer bypassing the plan).
  const std::uint64_t copy_runs = snap.counter("core.copy.runs");
  const std::uint64_t copy_elems = snap.counter("core.copy.elements");
  if (copy_runs != 0 && copy_elems >= 4096) {
    const double per_run = static_cast<double>(copy_elems) /
                           static_cast<double>(copy_runs);
    if (per_run < 4.0) {
      out.push_back(Finding{
          "copy-element-granular", Severity::kWarn, per_run,
          format("scatter/gather averaged %.1f element(s) per memcpy run "
                 "over %llu elements - copies are element-granular, not "
                 "run-coalesced",
                 per_run, static_cast<unsigned long long>(copy_elems))});
    }
  }

  // Zone balance (the paper's BLOCK vs BLOCK_CYCLIC partitioning):
  // DrxMpFile's zone transfers bump core.zone.rank.<r>.bytes. Emitted
  // even when balanced (severity info): comparing a BLOCK run against a
  // BLOCK_CYCLIC run needs both scores.
  if (const ImbalanceStat s =
          label_imbalance(snap, "core.zone.rank", "bytes", "calls");
      s.n >= 2) {
    Finding f;
    f.id = "rank-imbalance";
    f.severity = severity_for_ratio(s.ratio);
    f.score = s.ratio;
    f.message = format(
        "rank %d does %.1fx mean chunk-traffic bytes "
        "(max %.0f vs mean %.0f over %zu ranks)",
        s.argmax, s.ratio, s.max, s.mean, s.n);
    if (f.severity != Severity::kInfo) {
      f.message += " - zone split is skewed; consider a BLOCK_CYCLIC "
                   "distribution";
    }
    out.push_back(std::move(f));
  }
  if (const ImbalanceStat s = label_imbalance(snap, "pfs.server", "bytes");
      s.n >= 2) {
    out.push_back(Finding{
        "pfs-hot-server", severity_for_ratio(s.ratio), s.ratio,
        format("pfs server %d serves %.1fx mean bytes - striping imbalance",
               s.argmax, s.ratio)});
  }

  // Shard hash health (docs/SERVING.md): the sharded ChunkCache exports
  // core.cache.shard.<i>.accesses. A hot shard means the chunk-id hash is
  // clustering (or the workload genuinely hammers one region) and the
  // per-shard locks degrade back toward a single global lock.
  if (const ImbalanceStat s =
          label_imbalance(snap, "core.cache.shard", "accesses");
      s.n >= 2 && s.total >= 1024.0 && s.ratio >= kWarnRatio) {
    out.push_back(Finding{
        "cache-shard-imbalance", severity_for_ratio(s.ratio), s.ratio,
        format("cache shard %d takes %.1fx the mean access load "
               "(max %.0f vs mean %.0f over %zu shards) - per-shard "
               "locking degrades toward a single lock",
               s.argmax, s.ratio, s.max, s.mean, s.n)});
  }

  // Serving fairness (docs/SERVING.md): ~Server publishes the min/max
  // completed-request count across sessions. A session pinned at zero
  // while others complete work means its submissions starved in the
  // bounded queue.
  const std::uint64_t sessions = snap.counter("serve.sessions");
  const std::uint64_t serve_done = snap.counter("serve.requests.completed");
  if (sessions >= 2 && serve_done >= 64) {
    const std::uint64_t smin = snap.counter("serve.session.completed_min");
    const std::uint64_t smax = snap.counter("serve.session.completed_max");
    if (smin == 0 && smax > 0) {
      out.push_back(Finding{
          "session-starvation", Severity::kError,
          static_cast<double>(smax),
          format("a session completed 0 requests while the busiest "
                 "completed %llu (%llu sessions) - submissions starved in "
                 "the serve queue",
                 static_cast<unsigned long long>(smax),
                 static_cast<unsigned long long>(sessions))});
    } else if (smin > 0 &&
               static_cast<double>(smax) / static_cast<double>(smin) >=
                   kErrorRatio) {
      const double ratio =
          static_cast<double>(smax) / static_cast<double>(smin);
      out.push_back(Finding{
          "session-starvation", Severity::kWarn, ratio,
          format("busiest session completed %.1fx the slowest (%llu vs "
                 "%llu over %llu sessions) - serving is unfair under load",
                 ratio, static_cast<unsigned long long>(smax),
                 static_cast<unsigned long long>(smin),
                 static_cast<unsigned long long>(sessions))});
    }
  }

  // Codec economics (docs/COMPRESSION.md). Uncompressed writers sample
  // every 64th chunk with an RLE trial (core.codec.sample_ratio_pct, in
  // percent of raw size); a low median on a real write volume means the
  // workload would pay for DRX_COMPRESS. Conversely, an active codec
  // whose stored bytes barely undercut raw is pure CPU overhead.
  const std::uint64_t codec_raw = snap.counter("core.codec.bytes_raw");
  const std::uint64_t codec_stored = snap.counter("core.codec.bytes_stored");
  const std::uint64_t codec_samples = snap.counter("core.codec.samples");
  if (codec_raw == 0 && codec_samples >= 8) {
    for (const HistogramSample& h : snap.histograms) {
      if (h.name != "core.codec.sample_ratio_pct") continue;
      const HistogramSummary s = summarize_histogram(h);
      const double p50 = static_cast<double>(s.p50);
      if (s.count >= 8 && p50 <= 60.0) {
        out.push_back(Finding{
            "compression-would-pay", Severity::kInfo, p50 / 100.0,
            format("entropy samples of %llu uncompressed chunk writes "
                   "compress to ~%.0f%% of raw (median RLE trial) - "
                   "recreating the array with DRX_COMPRESS=rle would cut "
                   "PFS bytes",
                   static_cast<unsigned long long>(codec_samples), p50)});
      }
      break;
    }
  }
  if (codec_stored != 0 && codec_raw >= 1u << 22) {
    const double ratio = static_cast<double>(codec_raw) /
                         static_cast<double>(codec_stored);
    if (ratio < 1.1) {
      out.push_back(Finding{
          "compression-ineffective", Severity::kWarn, ratio,
          format("codec stored %llu bytes for %llu raw (%.2fx) - the data "
                 "barely compresses; DRX_COMPRESS=off avoids the encode "
                 "cost",
                 static_cast<unsigned long long>(codec_stored),
                 static_cast<unsigned long long>(codec_raw), ratio)});
    } else {
      out.push_back(Finding{
          "compression-effective", Severity::kInfo, ratio,
          format("codec cut %llu raw bytes to %llu stored (%.2fx) - PFS "
                 "traffic saved %.0f%%",
                 static_cast<unsigned long long>(codec_raw),
                 static_cast<unsigned long long>(codec_stored), ratio,
                 (1.0 - 1.0 / ratio) * 100.0)});
    }
  }
}

MetricsSnapshot metrics_from_json(const JsonValue& doc) {
  MetricsSnapshot snap;
  if (const JsonValue* counters = doc.find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [name, v] : counters->object) {
      snap.counters.push_back(CounterSample{name, v.as_uint()});
    }
  }
  if (const JsonValue* hists = doc.find("histograms");
      hists != nullptr && hists->is_object()) {
    for (const auto& [name, v] : hists->object) {
      HistogramSample h;
      h.name = name;
      h.count = v.uint_at("count");
      h.sum = v.uint_at("sum");
      if (const JsonValue* buckets = v.find("buckets");
          buckets != nullptr && buckets->is_array()) {
        const std::size_t n =
            std::min(buckets->array.size(), kHistogramBuckets);
        for (std::size_t b = 0; b < n; ++b) {
          h.buckets[b] = buckets->array[b].as_uint();
        }
      }
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

Result<TraceSummary> summarize_trace(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status(ErrorCode::kCorrupt,
                  "not a trace document (no traceEvents array)");
  }
  TraceSummary t;

  struct Interval {
    double start, end;
  };
  std::map<int, std::vector<Interval>> by_rank;
  std::uint64_t x_events = 0;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "s") ++t.flows;
    if (ph->as_string() != "X") continue;
    ++x_events;
    const JsonValue* cat = e.find("cat");
    if (cat != nullptr && cat->as_string() == "op") {
      OpStat op;
      const JsonValue* name = e.find("name");
      op.name = name != nullptr ? std::string(name->as_string()) : "?";
      op.dur_us = e.number_at("dur");
      op.rank = static_cast<int>(e.number_at("pid")) - 1;
      if (const JsonValue* args = e.find("args"); args != nullptr) {
        op.op = args->uint_at("op");
        for (std::size_t s = 0; s < kStageCount; ++s) {
          op.stage_us[s] =
              args->number_at(std::string(stage_name(static_cast<Stage>(s))) +
                              "_ns") /
              1000.0;
        }
        if (const JsonValue* dom = args->find("dominant"); dom != nullptr) {
          op.dominant = std::string(dom->as_string());
        }
      }
      t.ops.push_back(std::move(op));
    }
    const int rank = static_cast<int>(e.number_at("pid")) - 1;
    const double ts = e.number_at("ts");
    const double dur = e.number_at("dur");
    by_rank[rank].push_back(Interval{ts, ts + dur});
    if (dur > t.longest_dur_us) {
      t.longest_dur_us = dur;
      t.longest_rank = rank;
      const JsonValue* name = e.find("name");
      t.longest_name = name != nullptr ? std::string(name->as_string())
                                       : std::string("?");
    }
  }

  for (auto& [rank, intervals] : by_rank) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    // Union of intervals: nested/overlapping spans only count once.
    double busy = 0.0;
    double cover_end = -1.0;
    for (const Interval& iv : intervals) {
      if (iv.start >= cover_end) {
        busy += iv.end - iv.start;
        cover_end = iv.end;
      } else if (iv.end > cover_end) {
        busy += iv.end - cover_end;
        cover_end = iv.end;
      }
    }
    if (rank >= 0) {
      t.per_rank.push_back(RankBusy{rank, busy});
      t.critical_path_us = std::max(t.critical_path_us, busy);
    }
  }

  // The writer's own metadata record is authoritative for totals.
  if (const JsonValue* meta = doc.find("metadata"); meta != nullptr) {
    t.events = meta->uint_at("events", x_events);
    t.dropped = meta->uint_at("dropped");
  } else {
    t.events = x_events;
  }
  return t;
}

void analyze_trace(const TraceSummary& t, std::vector<Finding>& out) {
  if (t.dropped != 0) {
    out.push_back(Finding{
        "trace-dropped", Severity::kError, static_cast<double>(t.dropped),
        format("%llu trace event(s) dropped (ring full) - the trace is "
               "truncated",
               static_cast<unsigned long long>(t.dropped))});
  }
  if (t.per_rank.size() >= 2) {
    std::vector<double> busy;
    std::vector<int> ids;
    for (const RankBusy& rb : t.per_rank) {
      busy.push_back(rb.busy_us);
      ids.push_back(rb.rank);
    }
    const ImbalanceStat s = imbalance(busy, ids);
    out.push_back(Finding{
        "rank-busy-imbalance", severity_for_ratio(s.ratio), s.ratio,
        format("rank %d is busy %.1fx the mean (%.1f ms vs %.1f ms) - it "
               "is the straggler on the critical path",
               s.argmax, s.ratio, s.max / 1000.0, s.mean / 1000.0)});
  }
  if (t.events != 0 && !t.longest_name.empty()) {
    out.push_back(Finding{
        "critical-path", Severity::kInfo, t.critical_path_us / 1000.0,
        format("critical path %.1f ms; longest span \"%s\" %.1f ms on "
               "rank %d",
               t.critical_path_us / 1000.0, t.longest_name.c_str(),
               t.longest_dur_us / 1000.0, t.longest_rank)});
  }
  if (!t.ops.empty()) {
    const OpStat* slowest = &t.ops.front();
    for (const OpStat& op : t.ops) {
      if (op.dur_us > slowest->dur_us) slowest = &op;
    }
    double dom_us = 0.0;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      dom_us = std::max(dom_us, slowest->stage_us[s]);
    }
    out.push_back(Finding{
        "op-critical-path", Severity::kInfo, slowest->dur_us / 1000.0,
        format("slowest of %zu op(s): \"%s\" (op %llu) %.1f ms on rank %d, "
               "dominant stage %s (%.1f ms)",
               t.ops.size(), slowest->name.c_str(),
               static_cast<unsigned long long>(slowest->op),
               slowest->dur_us / 1000.0, slowest->rank,
               slowest->dominant.empty() ? "?" : slowest->dominant.c_str(),
               dom_us / 1000.0)});
  }
}

std::vector<FlightRecord> flight_records(const JsonValue& doc) {
  std::vector<FlightRecord> recs;
  const JsonValue* threads = doc.find("threads");
  if (threads == nullptr || !threads->is_array()) return recs;
  for (const JsonValue& t : threads->array) {
    const JsonValue* records = t.find("records");
    if (records == nullptr || !records->is_array()) continue;
    for (const JsonValue& r : records->array) {
      FlightRecord rec;
      rec.seq = r.uint_at("seq");
      rec.op = r.uint_at("op");
      rec.arg = r.uint_at("arg");
      rec.dur_us = r.number_at("dur_ns") / 1000.0;
      const JsonValue* kind = r.find("kind");
      rec.kind = kind != nullptr ? std::string(kind->as_string()) : "?";
      const JsonValue* name = r.find("name");
      rec.name = name != nullptr ? std::string(name->as_string()) : "?";
      rec.rank = static_cast<int>(r.number_at("rank", -1.0));
      recs.push_back(std::move(rec));
    }
  }
  return recs;
}

void analyze_flight(const JsonValue& doc, std::vector<Finding>& out) {
  if (const JsonValue* fmt = doc.find("format");
      fmt == nullptr || fmt->as_string() != "drx-flight") {
    out.push_back(Finding{
        "flight-bad-format", Severity::kError, 0.0,
        "not a drx-flight document (missing format marker)"});
    return;
  }
  const JsonValue* reason_v = doc.find("reason");
  const std::string reason(reason_v != nullptr ? reason_v->as_string()
                                               : "unknown");
  const JsonValue* threads_v = doc.find("threads");
  const std::size_t threads =
      threads_v != nullptr && threads_v->is_array() ? threads_v->array.size()
                                                    : 0;
  const std::vector<FlightRecord> recs = flight_records(doc);

  const Severity sev =
      reason == "on-demand" ? Severity::kInfo : Severity::kWarn;
  out.push_back(Finding{
      "flight-dump", sev, static_cast<double>(recs.size()),
      format("flight recorder dump (%s): %zu record(s) across %zu "
             "thread(s)",
             reason.c_str(), recs.size(), threads)});
  if (recs.empty()) return;

  // The causal chain of the most recent op: every surviving ring record
  // carrying that op id, in sequence order — what the op did, across
  // threads, right up to the failure.
  std::uint64_t last_seq = 0;
  std::uint64_t last_op = 0;
  for (const FlightRecord& r : recs) {
    if (r.op != 0 && r.seq >= last_seq) {
      last_seq = r.seq;
      last_op = r.op;
    }
  }
  if (last_op == 0) return;
  std::vector<const FlightRecord*> chain;
  for (const FlightRecord& r : recs) {
    if (r.op == last_op) chain.push_back(&r);
  }
  std::sort(chain.begin(), chain.end(),
            [](const FlightRecord* a, const FlightRecord* b) {
              return a->seq < b->seq;
            });
  std::string path;
  constexpr std::size_t kMaxChainNames = 8;
  for (std::size_t i = 0; i < chain.size() && i < kMaxChainNames; ++i) {
    if (i != 0) path += " -> ";
    path += chain[i]->name;
    if (chain[i]->kind == "flow_out") path += "(submit)";
    if (chain[i]->kind == "flow_in") path += "(dequeue)";
  }
  if (chain.size() > kMaxChainNames) path += " -> ...";
  out.push_back(Finding{
      "flight-causal-chain", Severity::kInfo,
      static_cast<double>(chain.size()),
      format("last op %llu: %zu record(s): ",
             static_cast<unsigned long long>(last_op), chain.size()) +
          path});
}

namespace {

const HistogramSample* find_histogram(const MetricsSnapshot& snap,
                                      std::string_view name) {
  for (const HistogramSample& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

void analyze_window(const JsonValue& doc, std::vector<Finding>& out) {
  if (const JsonValue* fmt = doc.find("format");
      fmt == nullptr || fmt->as_string() != "drx-window") {
    out.push_back(Finding{
        "window-bad-format", Severity::kError, 0.0,
        "not a drx-window document (missing format marker)"});
    return;
  }

  // The merged full-horizon view, the latest *completed* epoch delta, and
  // the trailing baseline: the epochs before it.
  MetricsSnapshot merged;
  std::uint64_t merged_span_us = 0;
  if (const JsonValue* w = doc.find("window"); w != nullptr) {
    if (const JsonValue* m = w->find("metrics"); m != nullptr) {
      merged = metrics_from_json(*m);
    }
    merged_span_us = w->uint_at("span_us");
  }
  MetricsSnapshot latest;
  MetricsSnapshot baseline;
  std::size_t trailing_epochs = 0;
  // Per epoch: did any counter whose name mentions "bytes"
  // (core.bytes_read, pfs.bytes_written, ...) move, and over what span.
  std::vector<bool> moved;
  std::vector<std::uint64_t> span_us;
  if (const JsonValue* deltas = doc.find("epoch_deltas");
      deltas != nullptr && deltas->is_array() && !deltas->array.empty()) {
    for (std::size_t i = 0; i < deltas->array.size(); ++i) {
      const JsonValue& e = deltas->array[i];
      MetricsSnapshot delta;
      if (const JsonValue* m = e.find("metrics"); m != nullptr) {
        delta = metrics_from_json(*m);
      }
      moved.push_back(std::any_of(
          delta.counters.begin(), delta.counters.end(),
          [](const CounterSample& c) {
            return c.value != 0 && c.name.find("bytes") != std::string::npos;
          }));
      span_us.push_back(e.uint_at("span_us"));
      if (i + 1 < deltas->array.size()) {
        baseline.merge(delta);
        ++trailing_epochs;
      } else {
        latest = std::move(delta);
      }
    }
  }

  // ---- window-regression ----------------------------------------------
  // Latency histograms only: a shifted byte-size distribution is a
  // workload change, not a regression.
  if (trailing_epochs > 0) {
    for (const HistogramSample& cur : latest.histograms) {
      if (cur.name.size() < 3 ||
          cur.name.compare(cur.name.size() - 3, 3, "_us") != 0) {
        continue;
      }
      const HistogramSample* base = find_histogram(baseline, cur.name);
      if (base == nullptr) continue;
      if (cur.count < kWindowMinCount || base->count < kWindowMinCount) {
        continue;
      }
      const HistogramSummary cur_s = summarize_histogram(cur);
      const HistogramSummary base_s = summarize_histogram(*base);
      if (base_s.p95 == 0) continue;
      const double ratio = static_cast<double>(cur_s.p95) /
                           static_cast<double>(base_s.p95);
      if (ratio < kRegressWarnRatio) continue;
      out.push_back(Finding{
          "window-regression",
          ratio >= kRegressErrorRatio ? Severity::kError : Severity::kWarn,
          ratio,
          format("%s: p95 %.1fx the trailing baseline (%llu vs %lluus "
                 "over %zu epoch(s)) - latency regressed within the live "
                 "window",
                 cur.name.c_str(), ratio,
                 static_cast<unsigned long long>(cur_s.p95),
                 static_cast<unsigned long long>(base_s.p95),
                 trailing_epochs)});
    }
  }

  // ---- io-stall -------------------------------------------------------
  // The longest run of flat epochs that activity resumed after; a
  // trailing flat tail is a job that ended, not a stall.
  std::size_t best_len = 0;
  std::size_t best_end = 0;  // index of the epoch that resumed
  std::size_t run = 0;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    if (!moved[i]) {
      ++run;
      continue;
    }
    if (run > best_len) {
      best_len = run;
      best_end = i;
    }
    run = 0;
  }
  if (best_len >= kStallEpochs) {
    std::uint64_t stall_us = 0;
    for (std::size_t i = best_end - best_len; i < best_end; ++i) {
      stall_us += span_us[i];
    }
    out.push_back(Finding{
        "io-stall", Severity::kWarn, static_cast<double>(best_len),
        format("I/O stalled for %zu consecutive epochs (~%.1f ms) before "
               "resuming - possible flush stall or lost overlap",
               best_len, static_cast<double>(stall_us) / 1000.0)});
  }

  out.push_back(Finding{
      "window", Severity::kInfo, static_cast<double>(merged_span_us) / 1e6,
      format("live window: %.1fs horizon, %zu trailing epoch(s), "
             "%zu histogram(s) in view",
             static_cast<double>(merged_span_us) / 1e6, trailing_epochs,
             merged.histograms.size())});
}

}  // namespace drx::obs::analysis
