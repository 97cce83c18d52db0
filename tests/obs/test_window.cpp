// Sliding-window metric views (obs/window.hpp): snapshot-delta math,
// epoch ring behavior, DRX_STATS_WINDOW parsing, the series ticker, the
// Registry::reset() ring-clear contract, and the drx-window document +
// analyze_window detectors.
#include "obs/window.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace drx::obs {
namespace {

/// Every test leaves the global window engine the way it found it.
class WindowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_window_enabled(true);
    window_clear();
  }
  void TearDown() override {
    stop_window_ticker();
    set_window_config(WindowConfig{0, 0});  // back to env/default
    set_window_enabled(true);
    window_clear();
  }
};

TEST_F(WindowTest, SnapshotDeltaSubtractsAndSaturates) {
  MetricsSnapshot base;
  base.counters.push_back(CounterSample{"a", 10});
  base.counters.push_back(CounterSample{"gone", 99});
  HistogramSample hb;
  hb.name = "h";
  hb.count = 4;
  hb.sum = 100;
  hb.buckets[3] = 4;
  base.histograms.push_back(hb);

  MetricsSnapshot cur;
  cur.counters.push_back(CounterSample{"a", 17});
  cur.counters.push_back(CounterSample{"new", 5});
  // A reset between captures can make cur < base: must clamp to 0, not
  // wrap.
  cur.counters.push_back(CounterSample{"gone", 0});
  HistogramSample hc = hb;
  hc.count = 9;
  hc.sum = 180;
  hc.buckets[3] = 7;
  hc.buckets[5] = 2;
  cur.histograms.push_back(hc);

  const MetricsSnapshot d = snapshot_delta(cur, base);
  EXPECT_EQ(d.counter("a"), 7u);
  EXPECT_EQ(d.counter("new"), 5u);
  EXPECT_EQ(d.counter("gone"), 0u);  // saturated, and dropped as zero
  ASSERT_EQ(d.histograms.size(), 1u);
  EXPECT_EQ(d.histograms[0].count, 5u);
  EXPECT_EQ(d.histograms[0].sum, 80u);
  EXPECT_EQ(d.histograms[0].buckets[3], 3u);
  EXPECT_EQ(d.histograms[0].buckets[5], 2u);
}

TEST_F(WindowTest, DefaultConfigIsTenSecondsBySixEpochs) {
  set_window_config(WindowConfig{0, 0});
  const WindowConfig cfg = window_config();
  // DRX_STATS_WINDOW may override in exotic test environments, but the
  // shape must hold: a positive epoch and a multi-epoch horizon.
  EXPECT_GT(cfg.epoch_ms, 0u);
  EXPECT_GT(cfg.epochs, 0u);
  EXPECT_EQ(cfg.horizon_ms(), cfg.epoch_ms * cfg.epochs);
}

/// window_config() under DRX_STATS_WINDOW=`spec`; restores the variable.
WindowConfig config_for(const char* spec) {
  const char* prev = std::getenv("DRX_STATS_WINDOW");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("DRX_STATS_WINDOW", spec, 1);
  set_window_config(WindowConfig{0, 0});  // re-reads the variable
  const WindowConfig cfg = window_config();
  if (prev != nullptr) {
    setenv("DRX_STATS_WINDOW", saved.c_str(), 1);
  } else {
    unsetenv("DRX_STATS_WINDOW");
  }
  set_window_config(WindowConfig{0, 0});
  return cfg;
}

void expect_config(const char* spec, std::uint64_t epoch_ms,
                   std::size_t epochs) {
  const WindowConfig cfg = config_for(spec);
  EXPECT_EQ(cfg.epoch_ms, epoch_ms) << "DRX_STATS_WINDOW=" << spec;
  EXPECT_EQ(cfg.epochs, epochs) << "DRX_STATS_WINDOW=" << spec;
}

TEST_F(WindowTest, SpecTakesSecondsOrMilliseconds) {
  expect_config("20ms", 20, 6);
  expect_config("20msx4096", 20, 4096);
  expect_config("10", 10000, 6);  // a bare number is seconds
  expect_config("10x6", 10000, 6);
  expect_config("3x4", 3000, 4);
}

TEST_F(WindowTest, BadSpecFallsBackToDefaults) {
  // A bad epoch drops the whole spec.
  expect_config("abc", 10000, 6);
  expect_config("0", 10000, 6);
  expect_config("0msx4", 10000, 6);
  expect_config("86401", 10000, 6);  // over a day
  // A bad count or trailing garbage keeps the epoch, not the count.
  expect_config("20msx0", 20, 6);
  expect_config("20x4097", 20000, 6);
  expect_config("20x4q", 20000, 6);
  expect_config("20q", 20000, 6);
}

// Every number in the spec is a whole decimal: a leading blank or sign
// is a bad epoch, not one strtoull would skip past.
TEST(WindowSpec, NumbersAreWholeDecimals) {
  for (const char* bad : {" 10", "+10x6", " 20", "+20x4", "-20"}) {
    const WindowConfig cfg = detail::parse_window_spec(bad);
    EXPECT_EQ(cfg.epoch_ms, 10000u) << '"' << bad << '"';
    EXPECT_EQ(cfg.epochs, 6u) << '"' << bad << '"';
  }
  const WindowConfig cfg = detail::parse_window_spec("20msx4096");
  EXPECT_EQ(cfg.epoch_ms, 20u);
  EXPECT_EQ(cfg.epochs, 4096u);
  EXPECT_EQ(detail::parse_window_spec("20x +4").epochs, 6u);
  EXPECT_EQ(detail::parse_window_spec("20x +4").epoch_ms, 20000u);
}

TEST_F(WindowTest, TickerRecordsEpochsUntilStopped) {
  stop_window_ticker();
  set_window_config(WindowConfig{1, 4096});
  start_window_ticker();
  EXPECT_TRUE(window_ticker_running());
  // Each check ticks lazily and may add one capture of its own, so only
  // ring entries beyond the number of checks prove the ticker ran.
  std::size_t checks = 0;
  std::size_t epochs = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((epochs = window_epochs().size()) < ++checks + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(epochs, checks + 2);

  stop_window_ticker();
  EXPECT_FALSE(window_ticker_running());
  stop_window_ticker();  // idempotent
  EXPECT_FALSE(window_ticker_running());
  EXPECT_GE(window_epochs().size(), 2u);  // the series survives the stop
}

TEST_F(WindowTest, TickerStopIsPrompt) {
  stop_window_ticker();
  set_window_config(WindowConfig{60000, 4});
  start_window_ticker();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  stop_window_ticker();  // must not sit out the 60 s epoch
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  EXPECT_FALSE(window_ticker_running());
}

TEST_F(WindowTest, TickerRestartWithNewConfigClearsTheRing) {
  stop_window_ticker();
  set_window_config(WindowConfig{1, 4096});
  start_window_ticker();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (window_epochs().size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(window_epochs().size(), 3u);

  set_window_config(WindowConfig{3600000, 4});
  start_window_ticker();  // restart while running
  EXPECT_TRUE(window_ticker_running());
  stop_window_ticker();
  EXPECT_EQ(window_config().epoch_ms, 3600000u);
  // At most the restarted ticker's first capture is left: no completed
  // epoch from the old series survives.
  EXPECT_TRUE(window_epochs().empty());
}

TEST_F(WindowTest, ViewIsDeltaSinceOldestEpoch) {
  const MetricId c = counter_id("test.win.view.counter");
  const MetricId h = histogram_id("test.win.view.lat_us");
  process_registry().counter(c).add(5);
  window_record_epoch();  // ring: [snapshot with 5]
  process_registry().counter(c).add(7);
  process_registry().histogram(h).observe(100);
  const WindowView view = window_view();
  EXPECT_EQ(view.epochs, 1u);
  EXPECT_EQ(view.delta.counter("test.win.view.counter"), 7u);
  bool found = false;
  for (const HistogramSample& s : view.delta.histograms) {
    if (s.name == "test.win.view.lat_us") {
      found = true;
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(WindowTest, EmptyRingFallsBackToCumulative) {
  const MetricId c = counter_id("test.win.fallback.counter");
  process_registry().counter(c).add(3);
  window_clear();
  set_window_enabled(false);
  const WindowView view = window_view();
  EXPECT_EQ(view.epochs, 0u);
  EXPECT_GE(view.delta.counter("test.win.fallback.counter"), 3u);
}

TEST_F(WindowTest, EpochDeltasAreConsecutivePairs) {
  const MetricId c = counter_id("test.win.epochs.counter");
  window_record_epoch();
  process_registry().counter(c).add(2);
  window_record_epoch();
  process_registry().counter(c).add(9);
  window_record_epoch();
  const std::vector<EpochDelta> epochs = window_epochs();
  ASSERT_GE(epochs.size(), 2u);
  const std::size_t n = epochs.size();
  EXPECT_EQ(epochs[n - 2].delta.counter("test.win.epochs.counter"), 2u);
  EXPECT_EQ(epochs[n - 1].delta.counter("test.win.epochs.counter"), 9u);
}

TEST_F(WindowTest, RingIsTrimmedToConfiguredEpochs) {
  set_window_config(WindowConfig{1, 2});
  for (int i = 0; i < 6; ++i) window_record_epoch();
  EXPECT_LE(window_epochs().size(), 2u);
  const WindowView view = window_view();
  EXPECT_LE(view.epochs, 3u);  // epochs + 1 ring entries at most
}

TEST_F(WindowTest, RegistryResetClearsTheRing) {
  // Regression: reset() used to zero the fast-id slots in place but
  // leave pre-reset cumulative epochs in the ring, so the next window
  // view subtracted a stale large baseline from a small post-reset live
  // snapshot and reported garbage (saturated zeros).
  const MetricId c = counter_id("test.win.reset.counter");
  process_registry().counter(c).add(100);
  window_record_epoch();
  ASSERT_EQ(window_view().epochs, 1u);
  process_registry().reset();
  // The stale epoch must be gone: no completed epoch survives the reset
  // (the tick inside window_epochs reseeds at most one fresh capture).
  EXPECT_TRUE(window_epochs().empty());
  // And new traffic is visible immediately — with the stale baseline
  // still in the ring this delta would saturate to 0 (4 - 100).
  process_registry().counter(c).add(4);
  EXPECT_EQ(window_view().delta.counter("test.win.reset.counter"), 4u);
}

TEST_F(WindowTest, WindowJsonIsValidAndTagged) {
  const MetricId h = histogram_id("test.win.json.lat_us");
  window_record_epoch();
  process_registry().histogram(h).observe(512);
  window_record_epoch();
  JsonWriter w;
  window_to_json(w);
  ASSERT_TRUE(json_validate(w.str()));
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_ok());
  const JsonValue* fmt = doc.value().find("format");
  ASSERT_NE(fmt, nullptr);
  EXPECT_EQ(fmt->as_string(), "drx-window");
  EXPECT_NE(doc.value().find("config"), nullptr);
  EXPECT_EQ(doc.value().find("slo"), nullptr);
  EXPECT_NE(doc.value().find("window"), nullptr);
  EXPECT_NE(doc.value().find("epoch_deltas"), nullptr);
}

// ---- analyze_window -------------------------------------------------------

HistogramSample latency_histogram(std::uint64_t fast, std::uint64_t slow) {
  // `fast` observations land at ~512us (bucket 10, upper bound 1023),
  // `slow` at ~65ms (bucket 17).
  HistogramSample h;
  h.name = "serve.request.latency_us";
  h.count = fast + slow;
  h.sum = fast * 512 + slow * 65000;
  h.buckets[10] = fast;
  h.buckets[17] = slow;
  return h;
}

std::string window_doc(const HistogramSample& window_h,
                       const HistogramSample& latest_h,
                       const HistogramSample& trail_h) {
  const auto metrics = [](JsonWriter& w, const HistogramSample& h) {
    MetricsSnapshot snap;
    snap.histograms.push_back(h);
    metrics_to_json(snap, w);
  };
  JsonWriter w;
  w.begin_object();
  w.key("format").value("drx-window");
  w.key("version").value(std::uint64_t{1});
  w.key("window").begin_object();
  w.key("span_us").value(std::uint64_t{60000000});
  w.key("metrics");
  metrics(w, window_h);
  w.end_object();
  w.key("epoch_deltas").begin_array();
  w.begin_object();
  w.key("t_us").value(std::uint64_t{10000000});
  w.key("span_us").value(std::uint64_t{10000000});
  w.key("metrics");
  metrics(w, trail_h);
  w.end_object();
  w.begin_object();
  w.key("t_us").value(std::uint64_t{20000000});
  w.key("span_us").value(std::uint64_t{10000000});
  w.key("metrics");
  metrics(w, latest_h);
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

TEST(AnalyzeWindow, RegressionAgainstTrailingBaseline) {
  // Trailing epochs p95 ~1ms, latest epoch p95 ~65ms: an in-window
  // latency regression (ratio ~64x >= 8x error bar).
  auto doc = json_parse(window_doc(latency_histogram(100, 100),
                                   latency_histogram(0, 100),
                                   latency_histogram(100, 0)));
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  bool fired = false;
  for (const auto& f : findings) {
    if (f.id == "window-regression") {
      fired = true;
      EXPECT_EQ(f.severity, analysis::Severity::kError);
    }
  }
  EXPECT_TRUE(fired);
}

// Documents written before the SLO targets were dropped still carry an
// "slo" key; analysis ignores it.
TEST(AnalyzeWindow, IgnoresTheSloKeyOfOlderDocuments) {
  auto doc = json_parse(R"({"format":"drx-window","version":1,
      "slo":[{"histogram":"serve.request.latency_us","target_us":1,
              "budget":0.01}],
      "window":{"span_us":1000,"metrics":{"counters":{},"histograms":{}}},
      "epoch_deltas":[]})");
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].id, "window");
}

TEST(AnalyzeWindow, BadFormatIsAnError) {
  auto doc = json_parse(R"({"format":"drx-flight"})");
  ASSERT_TRUE(doc.is_ok());
  std::vector<analysis::Finding> findings;
  analysis::analyze_window(doc.value(), findings);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].id, "window-bad-format");
  EXPECT_EQ(findings[0].severity, analysis::Severity::kError);
}

}  // namespace
}  // namespace drx::obs
