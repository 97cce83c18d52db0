// Detector unit tests (obs/analysis.hpp) on synthetic inputs: imbalance
// math, label-family skew/metrics/trace/window-series detectors, and report
// rendering.
#include "obs/analysis.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace drx::obs::analysis {
namespace {

const Finding* find_by_id(const std::vector<Finding>& fs,
                          std::string_view id) {
  for (const Finding& f : fs) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

TEST(Imbalance, MathAndArgmax) {
  const double flat[] = {10.0, 10.0, 10.0, 10.0};
  ImbalanceStat s = imbalance(flat);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.ratio, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 10.0);

  const double skewed[] = {10.0, 10.0, 60.0, 0.0};
  const int ids[] = {5, 6, 7, 8};
  s = imbalance(skewed, ids);
  EXPECT_DOUBLE_EQ(s.max, 60.0);
  EXPECT_DOUBLE_EQ(s.mean, 20.0);
  EXPECT_DOUBLE_EQ(s.ratio, 3.0);
  EXPECT_EQ(s.argmax, 7);  // named by ids, not by index

  EXPECT_EQ(imbalance({}).n, 0u);
  const double zeros[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(imbalance(zeros).ratio, 1.0);  // no load = balanced
}

/// Zone traffic as DrxMpFile records it: core.zone.rank.<r>.calls and
/// .bytes per rank, given as (rank, calls, bytes).
struct ZoneCell {
  int rank;
  std::uint64_t calls;
  std::uint64_t bytes;
};

MetricsSnapshot zone_counters(const std::vector<ZoneCell>& cells) {
  MetricsSnapshot snap;
  for (const ZoneCell& c : cells) {
    const std::string prefix = "core.zone.rank." + std::to_string(c.rank);
    snap.counters.push_back(CounterSample{prefix + ".calls", c.calls});
    if (c.bytes != 0) {
      snap.counters.push_back(CounterSample{prefix + ".bytes", c.bytes});
    }
  }
  return snap;
}

ImbalanceStat rank_imbalance(const MetricsSnapshot& snap) {
  return label_imbalance(snap, "core.zone.rank", "bytes", "calls");
}

MetricsSnapshot skewed_counters() {
  // Rank 0 moves 4x the zone bytes of each of ranks 1..3; a host name
  // (rank -1) must be excluded from the reduction.
  MetricsSnapshot snap = zone_counters(
      {{0, 2, 8000}, {1, 1, 2000}, {2, 1, 2000}, {3, 1, 2000},
       {-1, 27, 999999}});
  snap.counters.push_back(CounterSample{"pfs.server.0.bytes", 10000});
  snap.counters.push_back(CounterSample{"pfs.server.1.bytes", 2000});
  return snap;
}

TEST(ProfileDetectors, RankChunkImbalanceExcludesHost) {
  const ImbalanceStat s = rank_imbalance(skewed_counters());
  EXPECT_EQ(s.n, 4u);  // ranks 0..3; the -1 host names are skipped
  EXPECT_EQ(s.argmax, 0);
  EXPECT_DOUBLE_EQ(s.max, 8000.0);
  EXPECT_DOUBLE_EQ(s.mean, 3500.0);
  EXPECT_NEAR(s.ratio, 8000.0 / 3500.0, 1e-12);
}

TEST(ProfileDetectors, AnalyzeProfileFlagsSkewAndSuggestsCyclic) {
  std::vector<Finding> fs;
  analyze_metrics(skewed_counters(), fs);

  const Finding* rank = find_by_id(fs, "rank-imbalance");
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(rank->severity, Severity::kWarn);  // 2.29x is >= kWarnRatio
  EXPECT_NE(rank->message.find("rank 0"), std::string::npos);
  EXPECT_NE(rank->message.find("BLOCK_CYCLIC"), std::string::npos);

  const Finding* server = find_by_id(fs, "pfs-hot-server");
  ASSERT_NE(server, nullptr);  // server 0: 10000 vs server 1: 2000
  EXPECT_EQ(server->severity, Severity::kWarn);
}

TEST(ProfileDetectors, BalancedProfileStaysInfo) {
  std::vector<Finding> fs;
  analyze_metrics(
      zone_counters({{0, 1, 1000}, {1, 1, 1000}, {2, 1, 1000}, {3, 1, 1000}}),
      fs);
  const Finding* rank = find_by_id(fs, "rank-imbalance");
  ASSERT_NE(rank, nullptr);  // still emitted, for run-to-run comparison
  EXPECT_EQ(rank->severity, Severity::kInfo);
  EXPECT_NEAR(rank->score, 1.0, 1e-12);
  EXPECT_EQ(rank->message.find("BLOCK_CYCLIC"), std::string::npos);
}

TEST(ProfileDetectors, IdleParticipantsCountAsZeroLoad) {
  // Ranks 2 and 3 took part (a zone call each) but moved no chunks: the
  // imbalance must be computed over all four ranks, not the busy two.
  const ImbalanceStat s = rank_imbalance(
      zone_counters({{0, 1, 1000}, {1, 1, 1000}, {2, 1, 0}, {3, 1, 0}}));
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 500.0);
  EXPECT_DOUBLE_EQ(s.ratio, 2.0);
}

TEST(ProfileDetectors, SingleRankEmitsNothing) {
  std::vector<Finding> fs;
  analyze_metrics(zone_counters({{0, 1, 100}}), fs);
  EXPECT_TRUE(fs.empty());  // n < 2: imbalance is meaningless
}

MetricsSnapshot with_counter(MetricsSnapshot snap, const std::string& name,
                             std::uint64_t value) {
  snap.counters.push_back(CounterSample{name, value});
  return snap;
}

TEST(MetricsDetectors, CacheThrash) {
  MetricsSnapshot snap;
  snap = with_counter(std::move(snap), "core.cache.hits", 30);
  snap = with_counter(std::move(snap), "core.cache.misses", 70);
  snap = with_counter(std::move(snap), "core.cache.evictions", 60);
  std::vector<Finding> fs;
  analyze_metrics(snap, fs);
  const Finding* f = find_by_id(fs, "cache-thrash");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);
  EXPECT_NEAR(f->score, 0.7, 1e-12);  // miss rate

  // A high hit rate must not trip the detector even with evictions.
  MetricsSnapshot healthy;
  healthy = with_counter(std::move(healthy), "core.cache.hits", 95);
  healthy = with_counter(std::move(healthy), "core.cache.misses", 5);
  healthy = with_counter(std::move(healthy), "core.cache.evictions", 100);
  fs.clear();
  analyze_metrics(healthy, fs);
  EXPECT_EQ(find_by_id(fs, "cache-thrash"), nullptr);

  // Too little traffic: no verdict either way.
  MetricsSnapshot tiny;
  tiny = with_counter(std::move(tiny), "core.cache.hits", 1);
  tiny = with_counter(std::move(tiny), "core.cache.misses", 9);
  tiny = with_counter(std::move(tiny), "core.cache.evictions", 9);
  fs.clear();
  analyze_metrics(tiny, fs);
  EXPECT_EQ(find_by_id(fs, "cache-thrash"), nullptr);
}

TEST(MetricsDetectors, PrefetchWasteAndLowYield) {
  MetricsSnapshot wasteful;
  wasteful = with_counter(std::move(wasteful),
                          "core.cache.prefetch_issued", 100);
  wasteful = with_counter(std::move(wasteful),
                          "core.cache.prefetch_useful", 20);
  wasteful = with_counter(std::move(wasteful),
                          "core.cache.prefetch_wasted", 70);
  std::vector<Finding> fs;
  analyze_metrics(wasteful, fs);
  const Finding* waste = find_by_id(fs, "prefetch-waste");
  ASSERT_NE(waste, nullptr);
  EXPECT_EQ(waste->severity, Severity::kWarn);
  EXPECT_NEAR(waste->score, 0.7, 1e-12);

  MetricsSnapshot pending;
  pending = with_counter(std::move(pending),
                         "core.cache.prefetch_issued", 100);
  pending = with_counter(std::move(pending),
                         "core.cache.prefetch_useful", 20);
  pending = with_counter(std::move(pending),
                         "core.cache.prefetch_wasted", 10);
  fs.clear();
  analyze_metrics(pending, fs);
  const Finding* low = find_by_id(fs, "prefetch-low-yield");
  ASSERT_NE(low, nullptr);
  EXPECT_EQ(low->severity, Severity::kInfo);
  EXPECT_EQ(find_by_id(fs, "prefetch-waste"), nullptr);
}

TEST(MetricsDetectors, CopyElementGranular) {
  // 1.6 elements per run over a big volume: run coalescing has collapsed.
  MetricsSnapshot degraded;
  degraded = with_counter(std::move(degraded), "core.copy.elements", 8000);
  degraded = with_counter(std::move(degraded), "core.copy.runs", 5000);
  std::vector<Finding> fs;
  analyze_metrics(degraded, fs);
  const Finding* f = find_by_id(fs, "copy-element-granular");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);
  EXPECT_NEAR(f->score, 1.6, 1e-12);  // elements per run

  // Healthy coalescing (many elements per memcpy run): no finding.
  MetricsSnapshot healthy;
  healthy = with_counter(std::move(healthy), "core.copy.elements", 8000);
  healthy = with_counter(std::move(healthy), "core.copy.runs", 100);
  fs.clear();
  analyze_metrics(healthy, fs);
  EXPECT_EQ(find_by_id(fs, "copy-element-granular"), nullptr);

  // Tiny volumes (single-element pokes) never trip the detector.
  MetricsSnapshot tiny;
  tiny = with_counter(std::move(tiny), "core.copy.elements", 64);
  tiny = with_counter(std::move(tiny), "core.copy.runs", 64);
  fs.clear();
  analyze_metrics(tiny, fs);
  EXPECT_EQ(find_by_id(fs, "copy-element-granular"), nullptr);
}

TEST(MetricsDetectors, DroppedTracesAreAnError) {
  MetricsSnapshot snap;
  snap = with_counter(std::move(snap), "obs.trace.dropped", 12);
  std::vector<Finding> fs;
  analyze_metrics(snap, fs);
  const Finding* f = find_by_id(fs, "trace-dropped");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_DOUBLE_EQ(f->score, 12.0);
}

TEST(MetricsFromJson, RebuildsCountersAndHistograms) {
  auto doc = json_parse(
      "{\"counters\":{\"a\":5,\"b\":7},"
      "\"histograms\":{\"h\":{\"count\":2,\"sum\":10,"
      "\"buckets\":[0,1,1]}}}");
  ASSERT_TRUE(doc.is_ok());
  const MetricsSnapshot snap = metrics_from_json(doc.value());
  EXPECT_EQ(snap.counter("a"), 5u);
  EXPECT_EQ(snap.counter("b"), 7u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_EQ(snap.histograms[0].sum, 10u);
  EXPECT_EQ(snap.histograms[0].buckets[1], 1u);
  EXPECT_EQ(snap.histograms[0].buckets[2], 1u);
}

// A two-rank trace: rank 0 (pid 1) has a 100us span containing a nested
// 60us span (busy must be 100, not 160) plus a disjoint 20us span; rank 1
// (pid 2) has a single 40us span. Host (pid 0) spans are ignored for the
// per-rank table.
constexpr const char* kTrace =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"outer\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
    "\"ts\":0,\"dur\":100},\n"
    "{\"name\":\"inner\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
    "\"ts\":20,\"dur\":60},\n"
    "{\"name\":\"tail\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
    "\"ts\":150,\"dur\":20},\n"
    "{\"name\":\"short\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":2,\"tid\":1,"
    "\"ts\":0,\"dur\":40},\n"
    "{\"name\":\"host\",\"cat\":\"t\",\"ph\":\"X\",\"pid\":0,\"tid\":1,"
    "\"ts\":0,\"dur\":1000}\n"
    "],\"metadata\":{\"events\":5,\"dropped\":0}}";

TEST(TraceAnalysis, NestedSpansUnionNotSum) {
  auto doc = json_parse(kTrace);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  auto sr = summarize_trace(doc.value());
  ASSERT_TRUE(sr.is_ok()) << sr.status().to_string();
  const TraceSummary& t = sr.value();

  EXPECT_EQ(t.events, 5u);
  EXPECT_EQ(t.dropped, 0u);
  ASSERT_EQ(t.per_rank.size(), 2u);  // pid 0 (host) excluded
  EXPECT_EQ(t.per_rank[0].rank, 0);
  EXPECT_DOUBLE_EQ(t.per_rank[0].busy_us, 120.0);  // 100 union + 20 tail
  EXPECT_EQ(t.per_rank[1].rank, 1);
  EXPECT_DOUBLE_EQ(t.per_rank[1].busy_us, 40.0);
  EXPECT_DOUBLE_EQ(t.critical_path_us, 120.0);
  EXPECT_EQ(t.longest_name, "host");  // longest single span overall
  EXPECT_DOUBLE_EQ(t.longest_dur_us, 1000.0);

  std::vector<Finding> fs;
  analyze_trace(t, fs);
  const Finding* imb = find_by_id(fs, "rank-busy-imbalance");
  ASSERT_NE(imb, nullptr);
  EXPECT_NEAR(imb->score, 120.0 / 80.0, 1e-12);
  EXPECT_EQ(imb->severity, Severity::kWarn);  // 1.5x is exactly kWarnRatio
  EXPECT_NE(find_by_id(fs, "critical-path"), nullptr);
}

TEST(TraceAnalysis, DroppedEventsBecomeError) {
  auto doc = json_parse(
      "{\"traceEvents\":[],\"metadata\":{\"events\":0,\"dropped\":3}}");
  ASSERT_TRUE(doc.is_ok());
  auto sr = summarize_trace(doc.value());
  ASSERT_TRUE(sr.is_ok());
  std::vector<Finding> fs;
  analyze_trace(sr.value(), fs);
  const Finding* f = find_by_id(fs, "trace-dropped");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(TraceAnalysis, RejectsNonTraceDocuments) {
  auto doc = json_parse("{\"format\":\"drx-window\"}");
  ASSERT_TRUE(doc.is_ok());
  EXPECT_FALSE(summarize_trace(doc.value()).is_ok());
}

/// A drx-window document whose epoch i moved bytes[i] bytes (1 ms each);
/// a zero still appears as a counter, as a hand-made document might.
std::string series_doc(const std::vector<std::uint64_t>& bytes) {
  std::string s =
      "{\"format\":\"drx-window\",\"version\":1,\"epoch_deltas\":[";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (i != 0) s += ",";
    s += "{\"t_us\":" + std::to_string((i + 1) * 1000) +
         ",\"span_us\":1000,\"metrics\":{\"counters\":{"
         "\"pfs.bytes_read\":" + std::to_string(bytes[i]) +
         ",\"serve.requests\":1},\"histograms\":{}}}";
  }
  s += "]}";
  return s;
}

TEST(SeriesAnalysis, DetectsStallWithResumption) {
  // Activity, then 4 flat epochs (other counters still move), then
  // resumption.
  auto parsed = json_parse(series_doc({100, 100, 0, 0, 0, 0, 100, 100}));
  ASSERT_TRUE(parsed.is_ok());
  std::vector<Finding> fs;
  analyze_window(parsed.value(), fs);
  const Finding* stall = find_by_id(fs, "io-stall");
  ASSERT_NE(stall, nullptr);
  EXPECT_EQ(stall->severity, Severity::kWarn);
  EXPECT_DOUBLE_EQ(stall->score, 4.0);
  EXPECT_NE(stall->message.find("~4.0 ms"), std::string::npos)
      << stall->message;
  EXPECT_NE(find_by_id(fs, "window"), nullptr);
}

TEST(SeriesAnalysis, TrailingFlatTailIsNotAStall) {
  // The run never resumes (job simply ended), and two flat epochs are
  // below the bar: no stall finding.
  auto parsed = json_parse(series_doc({100, 0, 0, 100, 0, 0, 0, 0, 0}));
  ASSERT_TRUE(parsed.is_ok());
  std::vector<Finding> fs;
  analyze_window(parsed.value(), fs);
  EXPECT_EQ(find_by_id(fs, "io-stall"), nullptr);
  EXPECT_NE(find_by_id(fs, "window"), nullptr);
}

TEST(Report, TextAndJsonRenderings) {
  Report r;
  r.findings.push_back(Finding{"rank-imbalance", Severity::kError, 4.5,
                               "rank 3 does 4.5x mean bytes"});
  r.findings.push_back(
      Finding{"series", Severity::kInfo, 9.0, "time series: 9 samples"});
  EXPECT_TRUE(has_errors(r));
  EXPECT_EQ(count_severity(r, Severity::kError), 1u);
  EXPECT_EQ(count_severity(r, Severity::kWarn), 0u);

  const std::string text = report_to_text(r);
  EXPECT_NE(text.find("[error]"), std::string::npos);
  EXPECT_NE(text.find("rank-imbalance"), std::string::npos);

  JsonWriter w;
  report_to_json(r, w);
  ASSERT_TRUE(json_validate(w.str())) << w.str();
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("format")->as_string(), "drx-doctor");
  EXPECT_EQ(doc.value().uint_at("errors"), 1u);
  ASSERT_TRUE(doc.value().find("findings")->is_array());
  EXPECT_EQ(doc.value().find("findings")->array.size(), 2u);

  EXPECT_EQ(report_to_text(Report{}),
            "drx doctor: no findings - all clear\n");
  JsonWriter we;
  report_to_json(Report{}, we);
  EXPECT_TRUE(json_validate(we.str()));
}


// ---- causal op-stage detectors -------------------------------------------

TEST(MetricsDetectors, QueueWaitDominatedSuggestsMoreIoThreads) {
  MetricsSnapshot snap;
  snap = with_counter(std::move(snap), "obs.op.count", 100);
  snap = with_counter(std::move(snap), "obs.op.dominant.queue_wait", 80);
  snap = with_counter(std::move(snap), "obs.op.dominant.io_service", 20);
  std::vector<Finding> fs;
  analyze_metrics(snap, fs);
  const Finding* f = find_by_id(fs, "op-queue-wait-dominated");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);
  EXPECT_NEAR(f->score, 0.8, 1e-12);
  EXPECT_NE(f->message.find("DRX_IO_THREADS"), std::string::npos);

  // A healthy mix must not trip it.
  MetricsSnapshot healthy;
  healthy = with_counter(std::move(healthy), "obs.op.count", 100);
  healthy = with_counter(std::move(healthy),
                         "obs.op.dominant.queue_wait", 20);
  healthy = with_counter(std::move(healthy),
                         "obs.op.dominant.io_service", 80);
  fs.clear();
  analyze_metrics(healthy, fs);
  EXPECT_EQ(find_by_id(fs, "op-queue-wait-dominated"), nullptr);

  // Too few ops: no verdict.
  MetricsSnapshot tiny;
  tiny = with_counter(std::move(tiny), "obs.op.count", 10);
  tiny = with_counter(std::move(tiny), "obs.op.dominant.queue_wait", 10);
  fs.clear();
  analyze_metrics(tiny, fs);
  EXPECT_EQ(find_by_id(fs, "op-queue-wait-dominated"), nullptr);
}

TEST(MetricsDetectors, LockWaitDominatedSuggestsShardingTheCache) {
  MetricsSnapshot snap;
  snap = with_counter(std::move(snap), "obs.op.count", 64);
  snap = with_counter(std::move(snap), "obs.op.dominant.lock_wait", 40);
  snap = with_counter(std::move(snap), "obs.op.dominant.copy", 24);
  std::vector<Finding> fs;
  analyze_metrics(snap, fs);
  const Finding* f = find_by_id(fs, "op-lock-wait-dominated");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);
  EXPECT_NEAR(f->score, 40.0 / 64.0, 1e-12);
  EXPECT_NE(f->message.find("shard"), std::string::npos);
}

// A trace containing op-summary events (cat "op") and flow arrows, as
// write_trace emits them.
constexpr const char* kOpTrace =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
    "{\"name\":\"op.read_box\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,"
    "\"tid\":1,\"ts\":0,\"dur\":500,\"args\":{\"op\":7,"
    "\"lock_wait_ns\":1000,\"cache_fault_ns\":2000,"
    "\"queue_wait_ns\":400000,\"io_service_ns\":50000,"
    "\"copy_ns\":10000,\"other_ns\":37000,"
    "\"dominant\":\"queue_wait\"}},\n"
    "{\"name\":\"op.read_box\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":2,"
    "\"tid\":1,\"ts\":0,\"dur\":200,\"args\":{\"op\":8,"
    "\"lock_wait_ns\":0,\"cache_fault_ns\":0,"
    "\"queue_wait_ns\":0,\"io_service_ns\":150000,"
    "\"copy_ns\":20000,\"other_ns\":30000,"
    "\"dominant\":\"io_service\"}},\n"
    "{\"name\":\"drx.flow\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":1,"
    "\"pid\":1,\"tid\":1,\"ts\":5,\"args\":{\"op\":7}},\n"
    "{\"name\":\"drx.flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
    "\"id\":1,\"pid\":1,\"tid\":2,\"ts\":9,\"args\":{\"op\":7}}\n"
    "],\"metadata\":{\"events\":2,\"flows\":2,\"ops\":2,\"dropped\":0}}";

TEST(TraceAnalysis, OpSummariesParseIntoStageAttribution) {
  auto doc = json_parse(kOpTrace);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  auto sr = summarize_trace(doc.value());
  ASSERT_TRUE(sr.is_ok());
  const TraceSummary& t = sr.value();
  EXPECT_EQ(t.flows, 1u);  // one "s" phase
  ASSERT_EQ(t.ops.size(), 2u);
  EXPECT_EQ(t.ops[0].name, "op.read_box");
  EXPECT_EQ(t.ops[0].op, 7u);
  EXPECT_EQ(t.ops[0].rank, 0);
  EXPECT_DOUBLE_EQ(t.ops[0].dur_us, 500.0);
  EXPECT_DOUBLE_EQ(
      t.ops[0].stage_us[static_cast<std::size_t>(Stage::kQueueWait)],
      400.0);
  EXPECT_EQ(t.ops[0].dominant, "queue_wait");

  std::vector<Finding> fs;
  analyze_trace(t, fs);
  const Finding* f = find_by_id(fs, "op-critical-path");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kInfo);
  EXPECT_NE(f->message.find("op.read_box"), std::string::npos);
  EXPECT_NE(f->message.find("queue_wait"), std::string::npos);
}

// ---- flight-recorder analysis --------------------------------------------

constexpr const char* kFlight =
    "{\"format\":\"drx-flight\",\"version\":1,"
    "\"reason\":\"deferred-io-error\",\"threads\":[\n"
    "{\"tid\":1,\"records\":[\n"
    "{\"seq\":1,\"kind\":\"span\",\"name\":\"core.read_chunk\","
    "\"ts_ns\":100,\"dur_ns\":50,\"arg\":64,\"op\":9,\"parent\":0,"
    "\"rank\":0},\n"
    "{\"seq\":2,\"kind\":\"flow_out\",\"name\":\"drx.flow\","
    "\"ts_ns\":200,\"dur_ns\":0,\"arg\":1,\"op\":9,\"parent\":0,"
    "\"rank\":0}]},\n"
    "{\"tid\":2,\"records\":[\n"
    "{\"seq\":3,\"kind\":\"flow_in\",\"name\":\"drx.flow\","
    "\"ts_ns\":300,\"dur_ns\":0,\"arg\":1,\"op\":9,\"parent\":0,"
    "\"rank\":0},\n"
    "{\"seq\":4,\"kind\":\"span\",\"name\":\"io.pool.job\","
    "\"ts_ns\":310,\"dur_ns\":90,\"arg\":0,\"op\":9,\"parent\":0,"
    "\"rank\":0}]}]}";

TEST(FlightAnalysis, ReconstructsCausalChainOfLastOp) {
  auto doc = json_parse(kFlight);
  ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
  std::vector<Finding> fs;
  analyze_flight(doc.value(), fs);

  const Finding* dump = find_by_id(fs, "flight-dump");
  ASSERT_NE(dump, nullptr);
  EXPECT_EQ(dump->severity, Severity::kWarn);  // not an on-demand dump
  EXPECT_NE(dump->message.find("deferred-io-error"), std::string::npos);
  EXPECT_NEAR(dump->score, 4.0, 1e-12);  // four records

  const Finding* chain = find_by_id(fs, "flight-causal-chain");
  ASSERT_NE(chain, nullptr);
  EXPECT_NEAR(chain->score, 4.0, 1e-12);  // all records belong to op 9
  EXPECT_NE(chain->message.find("op 9"), std::string::npos);
  EXPECT_NE(chain->message.find("core.read_chunk"), std::string::npos);
  EXPECT_NE(chain->message.find("drx.flow(submit)"), std::string::npos);
  EXPECT_NE(chain->message.find("io.pool.job"), std::string::npos);
}

TEST(FlightAnalysis, BadFormatIsAnError) {
  auto doc = json_parse("{\"format\":\"something-else\"}");
  ASSERT_TRUE(doc.is_ok());
  std::vector<Finding> fs;
  analyze_flight(doc.value(), fs);
  const Finding* f = find_by_id(fs, "flight-bad-format");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(FlightAnalysis, OnDemandDumpIsInfoWithoutChainWhenNoOps) {
  auto doc = json_parse(
      "{\"format\":\"drx-flight\",\"version\":1,"
      "\"reason\":\"on-demand\",\"threads\":[{\"tid\":1,\"records\":["
      "{\"seq\":1,\"kind\":\"span\",\"name\":\"test.s\",\"ts_ns\":1,"
      "\"dur_ns\":2,\"arg\":0,\"op\":0,\"parent\":0,\"rank\":-1}]}]}");
  ASSERT_TRUE(doc.is_ok());
  std::vector<Finding> fs;
  analyze_flight(doc.value(), fs);
  const Finding* dump = find_by_id(fs, "flight-dump");
  ASSERT_NE(dump, nullptr);
  EXPECT_EQ(dump->severity, Severity::kInfo);
  EXPECT_EQ(find_by_id(fs, "flight-causal-chain"), nullptr);
}

MetricsSnapshot shard_counters(const std::vector<std::uint64_t>& accesses) {
  MetricsSnapshot snap;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    snap.counters.push_back(CounterSample{
        "core.cache.shard." + std::to_string(i) + ".accesses",
        accesses[i]});
  }
  return snap;
}

TEST(MetricsDetectors, CacheShardImbalanceFlagsAHotShard) {
  // Shard 2 takes 4x the mean: error-grade skew. Names whose index is not
  // decimal are no shard at all, however loud (a snapshot read from a
  // file may carry anything).
  MetricsSnapshot snap =
      shard_counters({100, 100, 1400, 100, 100, 100, 100, 100});
  for (const char* name :
       {"core.cache.shard.x.accesses", "core.cache.shard.-1.accesses",
        "core.cache.shard. 3.accesses", "core.cache.shard..accesses"}) {
    snap.counters.push_back(CounterSample{name, 100000});
  }
  std::vector<Finding> fs;
  analyze_metrics(snap, fs);
  const Finding* f = find_by_id(fs, "cache-shard-imbalance");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_NE(f->message.find("shard 2"), std::string::npos);
  EXPECT_NE(f->message.find("over 8 shards"), std::string::npos);

  // Mild skew (2x the mean) warns.
  fs.clear();
  analyze_metrics(shard_counters({500, 500, 2000, 1000}), fs);
  f = find_by_id(fs, "cache-shard-imbalance");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);
}

TEST(MetricsDetectors, BalancedShardsStaySilent) {
  // Balanced load must not produce a finding at all (not even info):
  // a quiet doctor is the acceptance criterion for a healthy hash.
  std::vector<Finding> fs;
  analyze_metrics(shard_counters({500, 520, 480, 510}), fs);
  EXPECT_EQ(find_by_id(fs, "cache-shard-imbalance"), nullptr);

  // A single shard (the legacy cache) is exempt regardless of volume.
  fs.clear();
  analyze_metrics(shard_counters({100000}), fs);
  EXPECT_EQ(find_by_id(fs, "cache-shard-imbalance"), nullptr);

  // Too little traffic: no verdict.
  fs.clear();
  analyze_metrics(shard_counters({10, 1, 1, 1}), fs);
  EXPECT_EQ(find_by_id(fs, "cache-shard-imbalance"), nullptr);
}

MetricsSnapshot serve_spread(std::uint64_t sessions, std::uint64_t done,
                             std::uint64_t min, std::uint64_t max) {
  MetricsSnapshot snap;
  snap.counters.push_back(CounterSample{"serve.sessions", sessions});
  snap.counters.push_back(CounterSample{"serve.requests.completed", done});
  snap.counters.push_back(
      CounterSample{"serve.session.completed_min", min});
  snap.counters.push_back(
      CounterSample{"serve.session.completed_max", max});
  return snap;
}

TEST(MetricsDetectors, SessionStarvation) {
  // A session that completed nothing while others worked: error.
  std::vector<Finding> fs;
  analyze_metrics(serve_spread(8, 700, 0, 200), fs);
  const Finding* f = find_by_id(fs, "session-starvation");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);

  // Busiest session 5x the slowest: unfair, warn.
  fs.clear();
  analyze_metrics(serve_spread(8, 700, 20, 100), fs);
  f = find_by_id(fs, "session-starvation");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarn);

  // Even spread stays silent.
  fs.clear();
  analyze_metrics(serve_spread(8, 700, 80, 100), fs);
  EXPECT_EQ(find_by_id(fs, "session-starvation"), nullptr);

  // One session or trivial traffic: no verdict.
  fs.clear();
  analyze_metrics(serve_spread(1, 700, 0, 700), fs);
  EXPECT_EQ(find_by_id(fs, "session-starvation"), nullptr);
  fs.clear();
  analyze_metrics(serve_spread(8, 10, 0, 10), fs);
  EXPECT_EQ(find_by_id(fs, "session-starvation"), nullptr);
}

}  // namespace
}  // namespace drx::obs::analysis
