// Embedded metrics exporter (docs/OBSERVABILITY.md "Live telemetry").
//
// A single background thread owns a minimal HTTP/1.1 listener (loopback
// only) so a live drx process can be scraped while serving:
//
//   GET /metrics      Prometheus text exposition 0.0.4 — cumulative
//                     counters (rate() handles windowing on the scraper
//                     side) plus *windowed* histograms (obs/window.hpp)
//                     labeled window="<horizon>", plus provider gauges.
//   GET /json         drx-live JSON: cumulative live_snapshot().
//   GET /window.json  the drx-window document (drx doctor --window,
//                     drx top).
//
// Enabled by DRX_METRICS_PORT (port number; 0 picks an ephemeral port) or
// programmatically via start_exporter(). A port already in use does NOT
// abort the process: the exporter logs a warning and stays disabled —
// telemetry must never take the service down.
//
// Cardinality is bounded by design: label values come only from
// fixed-size structure (shard indexes parsed from core.cache.shard.<i>.*
// counters) and from scrape providers, which must cap their own label
// sets (drx::serve::Server emits at most kMaxSessionLabels per-session
// series plus one "overflow" aggregate). The exporter additionally drops
// provider gauges past kMaxProviderGauges and counts the drops.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace drx::obs {

/// One labeled gauge contributed by a scrape provider. `name` is a
/// dotted drx metric name; the exporter sanitizes it for Prometheus.
struct ScrapeGauge {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0.0;
};

/// Providers append gauges on every scrape. Called with an internal
/// provider mutex held: callbacks must not re-enter the exporter and
/// should only read cheap state (atomics, immutable config).
using ScrapeProviderFn = std::function<void(std::vector<ScrapeGauge>&)>;

/// Per-provider series cap; gauges beyond it are dropped (counted in
/// obs.exporter.gauges_dropped).
inline constexpr std::size_t kMaxProviderGauges = 256;

/// Convention for per-session labels (enforced by drx::serve::Server):
/// at most this many distinct session label values, then one aggregate
/// with session="overflow".
inline constexpr std::size_t kMaxSessionLabels = 32;

/// Registers a provider; returns a handle for unregister. Safe from any
/// thread, before or after the exporter starts (providers also feed
/// render_prometheus() directly, exporter running or not).
int register_scrape_provider(ScrapeProviderFn fn);

/// Removes a provider. Blocks until no scrape is inside provider
/// callbacks, so the provider's captured state may be destroyed
/// immediately after this returns (Server's destructor relies on that).
void unregister_scrape_provider(int handle);

/// Starts the listener on 127.0.0.1:`port` (0 = ephemeral) and returns
/// the bound port. Fails (kFailedPrecondition if already running,
/// kIoError if the port is taken or socket setup fails).
[[nodiscard]] Result<std::uint16_t> start_exporter(std::uint16_t port);

/// Stops the listener and joins the thread. No-op when not running.
void stop_exporter();

/// Bound port of the running exporter, or 0 when not running.
[[nodiscard]] std::uint16_t exporter_port() noexcept;

/// The /metrics body (exposed for tests and offline rendering).
[[nodiscard]] std::string render_prometheus();

/// The /json body: {"format":"drx-live",...} around the cumulative
/// live snapshot.
[[nodiscard]] std::string render_live_json();

/// Minimal HTTP GET against a drx exporter (drx top, bench self-scrape,
/// tests). Returns the response body on status 200;
/// kIoError on connect/timeout errors or a non-200 response.
[[nodiscard]] Result<std::string> http_get(const std::string& host, std::uint16_t port,
                             const std::string& path, int timeout_ms = 2000);

}  // namespace drx::obs
