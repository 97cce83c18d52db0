// Sliding-window metric views (docs/OBSERVABILITY.md "Live telemetry").
//
// The Registry is cumulative: every counter and log2 histogram only ever
// grows, which is exactly what makes windows cheap. A window is the
// difference of two cumulative snapshots, and log2 histograms are
// mergeable bucket-wise, so p50/p95/p99 *over the last N seconds* falls
// out of plain subtraction — no per-observation bookkeeping, no decay
// math, and zero added cost on the metric hot path (the <2% obs-overhead
// gate that bench_obs_overhead enforces).
//
// Mechanics: a ring of epoch snapshots. Every DRX_STATS_WINDOW epoch
// (default 10 s, 6 epochs = a 60 s horizon) the engine captures one
// cumulative obs::live_snapshot() into the ring. The live window view is
// then live - oldest-in-ring (saturating, in case a Registry::reset()
// slipped between captures), and per-epoch deltas between consecutive
// ring entries feed the `drx doctor` window-regression detector
// (obs/analysis.hpp).
//
// Epoch capture is lazy: window_tick() captures only when the newest
// epoch is stale, and every consumer (the exporter's scrape handler, the
// listener's idle loop, window_view() itself) ticks on entry — so a
// process with no scraper pays nothing at all.
//
// Series mode: with DRX_STATS_SERIES=<path> set, a ticker thread records
// an epoch every epoch_ms instead, and the ring is dumped to <path> as a
// drx-window document at exit — a fine-grained time series (e.g.
// DRX_STATS_WINDOW=20msx4096) whose epoch deltas feed `drx doctor`'s
// io-stall detector.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace drx::obs {

class JsonWriter;

struct WindowConfig {
  std::uint64_t epoch_ms = 10000;  ///< one epoch of the ring
  std::size_t epochs = 6;          ///< ring length => horizon = epoch*epochs

  [[nodiscard]] std::uint64_t horizon_ms() const noexcept {
    return epoch_ms * static_cast<std::uint64_t>(epochs);
  }
};

/// DRX_STATS_WINDOW syntax: "<epoch>[x<epochs>]", where the epoch is
/// seconds ("10x6") or milliseconds with an "ms" suffix ("20msx4096");
/// unset keeps the defaults. Out-of-range pieces fall back to the
/// defaults rather than erroring: telemetry must never take the process
/// down.
[[nodiscard]] WindowConfig window_config() noexcept;

namespace detail {
/// The config a DRX_STATS_WINDOW value names. Each number is a whole
/// decimal (util::parse_knob); a bad epoch keeps both defaults, a bad
/// count or a trailing suffix keeps the default count. Warns on stderr.
[[nodiscard]] WindowConfig parse_window_spec(std::string_view spec);
}  // namespace detail

/// Programmatic override (tests/benches); clears the ring, since epochs
/// captured under another cadence would mislabel the horizon. An
/// epoch_ms of 0 restores the DRX_STATS_WINDOW / default behavior,
/// re-reading the variable.
void set_window_config(const WindowConfig& cfg);

/// Window engine master switch (bench ablation: the windowed-metrics
/// on/off rows in bench_obs_overhead). Disabled = tick/view no-ops and
/// window_view() reports an empty view.
[[nodiscard]] bool window_enabled() noexcept;
void set_window_enabled(bool on) noexcept;

/// Captures an epoch if the newest one is older than one epoch_ms.
/// Cheap when nothing is due (one mutex + one clock read).
void window_tick();

/// Unconditionally captures an epoch boundary now (the ticker, the end of
/// simpi::run, tests; the exporter calls window_tick instead).
void window_record_epoch();

/// Starts the series ticker: a thread that records an epoch every
/// epoch_ms of the current config. Clears the ring first, so a restart
/// begins a fresh series; replaces a ticker that is already running.
void start_window_ticker();

/// Stops and joins the ticker; the ring survives. Prompt (the thread
/// waits on a condition variable) and safe when not running.
void stop_window_ticker();

[[nodiscard]] bool window_ticker_running();

/// Drops every captured epoch. Registry::reset() calls this so windowed
/// views never subtract a pre-reset cumulative snapshot from a post-reset
/// one (the deltas would be nonsense); also used directly by tests.
void window_clear();

/// The live sliding-window view: everything that happened between the
/// oldest ring epoch and now. With an empty ring (engine just started or
/// just cleared) the view falls back to the cumulative snapshot with
/// epochs == 0, so consumers can tell "window" from "since boot".
struct WindowView {
  std::uint64_t now_us = 0;   ///< trace clock at evaluation
  std::uint64_t span_us = 0;  ///< horizon actually covered by the view
  std::size_t epochs = 0;     ///< ring epochs backing the view
  MetricsSnapshot delta;      ///< live minus oldest epoch, saturating
};

[[nodiscard]] WindowView window_view();

/// One completed epoch: the delta between two consecutive ring captures.
struct EpochDelta {
  std::uint64_t t_us = 0;     ///< end-of-epoch timestamp
  std::uint64_t span_us = 0;  ///< epoch duration actually covered
  MetricsSnapshot delta;
};

/// Completed epochs, oldest first (at most cfg.epochs of them). The last
/// entry is the freshest *completed* epoch — the one the window-regression
/// detector compares against the epochs before it.
[[nodiscard]] std::vector<EpochDelta> window_epochs();

/// Emits the "drx-window" v1 document: config, completed per-epoch
/// deltas, and the merged live window — the artifact `drx doctor --window`
/// ingests.
void window_to_json(JsonWriter& w);

/// Writes the drx-window document to `path` (DRX_STATS_SERIES at exit).
[[nodiscard]] Status write_window(const std::string& path);

}  // namespace drx::obs
