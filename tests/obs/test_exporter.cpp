// Embedded metrics exporter (obs/exporter.hpp): Prometheus exposition
// rendering, scrape providers, the live HTTP listener, and the edge cases
// the telemetry plane must survive — concurrent scrape vs. reset, scrapes
// racing a DrxMpFile::close aggregation, malformed requests, and a port
// already in use.
#include "obs/exporter.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/drxmp.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"
#include "pfs/pfs.hpp"
#include "simpi/runtime.hpp"

namespace drx::obs {
namespace {

/// Serial HTTP tests share the process-wide exporter; each test starts
/// and stops its own listener on an ephemeral port.
class ExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stop_exporter();
    window_clear();
  }
  void TearDown() override {
    stop_exporter();
    window_clear();
  }
};

TEST(ExporterRender, PrometheusCountersAndTypes) {
  const MetricId c = counter_id("test.exp.requests");
  process_registry().counter(c).add(42);
  const std::string body = render_prometheus();
  EXPECT_NE(body.find("# TYPE drx_test_exp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("drx_test_exp_requests_total 42"), std::string::npos);
}

TEST(ExporterRender, ShardIndexBecomesALabel) {
  const MetricId c = counter_id("core.cache.shard.3.accesses");
  process_registry().counter(c).add(7);
  const std::string body = render_prometheus();
  EXPECT_NE(body.find("drx_core_cache_shard_accesses_total{shard=\"3\"}"),
            std::string::npos);
}

TEST(ExporterRender, WindowedHistogramHasBucketsAndWindowLabel) {
  const MetricId h = histogram_id("test.exp.lat_us");
  window_clear();
  window_record_epoch();
  process_registry().histogram(h).observe(100);
  process_registry().histogram(h).observe(5000);
  const std::string body = render_prometheus();
  EXPECT_NE(body.find("# TYPE drx_test_exp_lat_us histogram"),
            std::string::npos);
  // Cumulative le buckets from the *window* view, tagged with the horizon.
  EXPECT_NE(body.find("drx_test_exp_lat_us_bucket{"), std::string::npos);
  EXPECT_NE(body.find("window=\""), std::string::npos);
  EXPECT_NE(body.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(body.find("drx_test_exp_lat_us_count{"), std::string::npos);
  EXPECT_NE(body.find("drx_test_exp_lat_us_sum{"), std::string::npos);
  window_clear();
}

TEST(ExporterRender, ProviderGaugesAppearAndUnregisterRemoves) {
  const int handle = register_scrape_provider(
      [](std::vector<ScrapeGauge>& out) {
        out.push_back(ScrapeGauge{
            "test.exp.gauge", {{"array", "a"}, {"session", "0"}}, 2.5});
      });
  const std::string body = render_prometheus();
  EXPECT_NE(
      body.find("drx_test_exp_gauge{array=\"a\",session=\"0\"} 2.5"),
      std::string::npos);
  unregister_scrape_provider(handle);
  const std::string after = render_prometheus();
  EXPECT_EQ(after.find("drx_test_exp_gauge"), std::string::npos);
}

TEST(ExporterRender, ProviderGaugeCapDropsAndCounts) {
  const int handle = register_scrape_provider(
      [](std::vector<ScrapeGauge>& out) {
        for (std::size_t i = 0; i < kMaxProviderGauges + 10; ++i) {
          out.push_back(ScrapeGauge{"test.exp.flood", {}, 1.0});
        }
      });
  const std::uint64_t before =
      live_snapshot().counter("obs.exporter.gauges_dropped");
  const std::string body = render_prometheus();
  std::size_t occurrences = 0;
  for (std::size_t pos = body.find("drx_test_exp_flood");
       pos != std::string::npos;
       pos = body.find("drx_test_exp_flood", pos + 1)) {
    ++occurrences;
  }
  // name appears once per emitted gauge plus TYPE/label housekeeping
  // lines; the cap bounds it well under the flood size.
  EXPECT_LE(occurrences, kMaxProviderGauges + 2);
  const std::uint64_t after =
      live_snapshot().counter("obs.exporter.gauges_dropped");
  EXPECT_GE(after - before, 10u);
  unregister_scrape_provider(handle);
}

TEST(ExporterRender, LiveJsonIsValidAndTagged) {
  const int handle = register_scrape_provider(
      [](std::vector<ScrapeGauge>& out) {
        out.push_back(ScrapeGauge{"test.exp.live", {{"array", "x"}}, 1.0});
      });
  const std::string body = render_live_json();
  ASSERT_TRUE(json_validate(body));
  auto doc = json_parse(body);
  ASSERT_TRUE(doc.is_ok());
  const JsonValue* fmt = doc.value().find("format");
  ASSERT_NE(fmt, nullptr);
  EXPECT_EQ(fmt->as_string(), "drx-live");
  EXPECT_NE(doc.value().find("metrics"), nullptr);
  EXPECT_NE(doc.value().find("gauges"), nullptr);
  unregister_scrape_provider(handle);
}

// ---- live listener --------------------------------------------------------

TEST_F(ExporterTest, ServesAllEndpointsOnEphemeralPort) {
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  ASSERT_NE(port.value(), 0);
  EXPECT_EQ(exporter_port(), port.value());

  const MetricId c = counter_id("test.exp.http.counter");
  process_registry().counter(c).add(9);

  auto metrics = http_get("127.0.0.1", port.value(), "/metrics");
  ASSERT_TRUE(metrics.is_ok()) << metrics.status().to_string();
  EXPECT_NE(metrics.value().find("drx_test_exp_http_counter_total"),
            std::string::npos);

  auto live = http_get("127.0.0.1", port.value(), "/json");
  ASSERT_TRUE(live.is_ok());
  ASSERT_TRUE(json_validate(live.value()));
  auto live_doc = json_parse(live.value());
  ASSERT_TRUE(live_doc.is_ok());
  const JsonValue* live_metrics = live_doc.value().find("metrics");
  ASSERT_NE(live_metrics, nullptr);
  const JsonValue* counters = live_metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->uint_at("test.exp.http.counter"), 9u);

  auto window = http_get("127.0.0.1", port.value(), "/window.json");
  ASSERT_TRUE(window.is_ok());
  ASSERT_TRUE(json_validate(window.value()));
  auto doc = json_parse(window.value());
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("format")->as_string(), "drx-window");

  auto missing = http_get("127.0.0.1", port.value(), "/nope");
  EXPECT_FALSE(missing.is_ok());  // 404 surfaces as a non-200 error
}

TEST_F(ExporterTest, SecondStartFailsWhileRunning) {
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok());
  auto again = start_exporter(0);
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(ExporterTest, PortInUseFailsWithoutTakingProcessDown) {
  // Pre-bind a loopback socket; the exporter must report kIoError (the
  // DRX_METRICS_PORT init path logs this and stays disabled).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t taken = ntohs(addr.sin_port);

  auto result = start_exporter(taken);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kIoError);
  EXPECT_EQ(exporter_port(), 0);
  ::close(fd);
}

TEST_F(ExporterTest, MalformedRequestGetsA400) {
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.value());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char raw[] = "NOT-HTTP\r\n\r\n";
  ASSERT_GT(::send(fd, raw, sizeof(raw) - 1, 0), 0);
  char buf[256];
  std::string response;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    if (response.find("\r\n") != std::string::npos) break;
  }
  ::close(fd);
  EXPECT_NE(response.find("400"), std::string::npos);
  // The listener survives a bad request.
  auto metrics = http_get("127.0.0.1", port.value(), "/metrics");
  EXPECT_TRUE(metrics.is_ok());
}

TEST_F(ExporterTest, NonGetMethodGetsA405) {
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.value());
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char raw[] = "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(::send(fd, raw, sizeof(raw) - 1, 0), 0);
  char buf[256];
  std::string response;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
    if (response.find("\r\n") != std::string::npos) break;
  }
  ::close(fd);
  EXPECT_NE(response.find("405"), std::string::npos);
}

// ---- edge cases: scrapes racing mutation ----------------------------------

TEST_F(ExporterTest, ConcurrentScrapeVsResetNeverTearsOrCrashes) {
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok());
  const MetricId c = counter_id("test.exp.race.counter");
  const MetricId h = histogram_id("test.exp.race.lat_us");
  // Materialize both slots before the race starts: interning a name does
  // not create a registry slot, so a scrape that wins the first scheduling
  // slice against the mutator would otherwise see an empty registry and an
  // empty (well-formed, but family-less) exposition. reset() zeroes values
  // in place and slots never revert to null, so after this every scrape
  // carries at least the counter family.
  process_registry().counter(c).add(3);
  process_registry().histogram(h).observe(128);
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      process_registry().counter(c).add(3);
      process_registry().histogram(h).observe(128);
      process_registry().reset();
      window_record_epoch();
    }
  });
  int scrapes_ok = 0;
  for (int i = 0; i < 25; ++i) {
    auto body = http_get("127.0.0.1", port.value(), "/metrics");
    if (body.is_ok()) {
      ++scrapes_ok;
      // A scrape observed mid-reset must still be a complete, parseable
      // exposition, never a torn buffer.
      EXPECT_NE(body.value().find("# TYPE"), std::string::npos);
    }
    auto window = http_get("127.0.0.1", port.value(), "/window.json");
    if (window.is_ok()) {
      EXPECT_TRUE(json_validate(window.value()));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_GT(scrapes_ok, 0);
}

TEST_F(ExporterTest, ScrapeDuringMpFileCloseAggregation) {
  // DrxMpFile::close folds rank registries into the process registry;
  // scrapes hammering the exporter meanwhile must always see a coherent
  // snapshot (the registry's lock discipline, not luck).
  auto port = start_exporter(0);
  ASSERT_TRUE(port.is_ok());
  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto body = http_get("127.0.0.1", port.value(), "/metrics");
      if (body.is_ok()) ok.fetch_add(1, std::memory_order_relaxed);
      // /json renders the cumulative live snapshot, the view that rank
      // aggregation folds into.
      auto live = http_get("127.0.0.1", port.value(), "/json");
      if (live.is_ok()) {
        EXPECT_TRUE(json_validate(live.value()));
      }
    }
  });

  constexpr int kRanks = 4;
  pfs::PfsConfig cfg;
  cfg.num_servers = 2;
  pfs::Pfs fs(cfg);
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kInt32;
    auto fr = core::DrxMpFile::create(comm, fs, "scrape_close",
                                      core::Shape{20, 8}, core::Shape{4, 4},
                                      opts);
    ASSERT_TRUE(fr.is_ok()) << fr.status().to_string();
    core::DrxMpFile file = std::move(fr).value();
    const core::Distribution dist = file.block_distribution();
    std::vector<std::byte> buf(static_cast<std::size_t>(
        file.zone_buffer_bytes(dist, comm.rank())));
    ASSERT_TRUE(file
                    .write_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                   /*collective=*/true)
                    .is_ok());
    ASSERT_TRUE(file.close().is_ok());
  });

  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(ok.load(), 0);
}

}  // namespace
}  // namespace drx::obs
