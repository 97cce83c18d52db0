#include "obs/window.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "util/knob.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"

namespace drx::obs {

namespace {

struct Epoch {
  std::uint64_t t_us = 0;
  MetricsSnapshot snap;
};

struct WindowState {
  util::Mutex mu;
  // Oldest first; trimmed to cfg.epochs + 1 entries so consecutive-pair
  // deltas yield up to cfg.epochs completed epochs.
  std::deque<Epoch> ring DRX_GUARDED_BY(mu);
  WindowConfig override_cfg DRX_GUARDED_BY(mu);
  bool has_override DRX_GUARDED_BY(mu) = false;
  bool env_parsed DRX_GUARDED_BY(mu) = false;
  WindowConfig env_cfg DRX_GUARDED_BY(mu);
  // A capture runs live_snapshot() outside mu (it takes the registry
  // locks; see Registry::reset for the inverse ordering). This flag keeps
  // concurrent tickers from stacking duplicate captures meanwhile.
  bool capture_in_flight DRX_GUARDED_BY(mu) = false;
  std::atomic<bool> enabled{true};
  // Series ticker (DRX_STATS_SERIES). The condition variable, not a
  // sleep, makes stop_window_ticker prompt at millisecond cadences.
  util::CondVar ticker_cv;
  bool ticker_stop DRX_GUARDED_BY(mu) = false;
  std::thread ticker DRX_GUARDED_BY(mu);
};

WindowState& state() {
  static WindowState* s = new WindowState;  // leaked: atexit-safe
  return *s;
}

WindowConfig config_locked(WindowState& s) DRX_REQUIRES(s.mu) {
  if (s.has_override) return s.override_cfg;
  if (!s.env_parsed) {
    const char* env = std::getenv("DRX_STATS_WINDOW");
    s.env_cfg = (env != nullptr && env[0] != '\0')
                    ? detail::parse_window_spec(env)
                    : WindowConfig{};
    s.env_parsed = true;
  }
  return s.env_cfg;
}

/// Captures one epoch. `force` skips the staleness check
/// (window_record_epoch); otherwise only a due capture proceeds.
void capture(bool force) {
  WindowState& s = state();
  const std::uint64_t now_us = trace_now_ns() / 1000;
  WindowConfig cfg;
  {
    util::MutexLock lock(s.mu);
    cfg = config_locked(s);
    if (s.capture_in_flight) return;
    if (!force && !s.ring.empty() &&
        now_us - s.ring.back().t_us < cfg.epoch_ms * 1000) {
      return;
    }
    s.capture_in_flight = true;
  }
  // The expensive part — registry walks under the registry locks — runs
  // with mu released so scrapes never serialize against metric readers.
  MetricsSnapshot snap = live_snapshot();
  {
    util::MutexLock lock(s.mu);
    s.capture_in_flight = false;
    // A clear/reconfigure may have raced the snapshot; dropping this
    // capture keeps the ring homogeneous (next tick recaptures).
    if (!s.ring.empty() && s.ring.back().t_us > now_us) return;
    s.ring.push_back(Epoch{now_us, std::move(snap)});
    while (s.ring.size() > cfg.epochs + 1) s.ring.pop_front();
  }
}

void ticker_main() {
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  while (!s.ticker_stop) {
    // Record first so even a run shorter than one epoch gets a point.
    lock.unlock();
    window_record_epoch();
    lock.lock();
    const std::uint64_t epoch_ms = config_locked(s).epoch_ms;
    s.ticker_cv.wait_for(
        lock, std::chrono::milliseconds(static_cast<std::int64_t>(epoch_ms)),
        [&] {
          s.mu.assert_held();
          return s.ticker_stop;
        });
  }
}

void stop_and_dump_at_exit() {
  stop_window_ticker();
  window_record_epoch();  // close the tail since the last tick
  const char* path = std::getenv("DRX_STATS_SERIES");
  const Status st = write_window(path != nullptr ? path : "");
  if (!st.is_ok()) {
    std::fprintf(stderr, "[drx E] DRX_STATS_SERIES dump failed: %s\n",
                 st.message().c_str());
  }
}

/// Series mode: DRX_STATS_SERIES starts the ticker at startup and dumps
/// the ring at exit.
struct EnvInit {
  EnvInit() {
    const char* path = std::getenv("DRX_STATS_SERIES");
    if (path == nullptr || path[0] == '\0') return;
    start_window_ticker();
    std::atexit(stop_and_dump_at_exit);
  }
};
EnvInit g_env_init;

}  // namespace

WindowConfig detail::parse_window_spec(std::string_view spec) {
  WindowConfig cfg;
  const std::size_t digits = std::min(spec.find_first_not_of("0123456789"),
                                      spec.size());
  std::string_view rest = spec.substr(digits);
  const bool millis = rest.starts_with("ms");
  if (millis) rest.remove_prefix(2);
  // At most one day, in either unit.
  const auto epoch =
      util::parse_knob(spec.substr(0, digits), 1, millis ? 86400000 : 86400);
  if (!epoch) {
    DRX_LOG(kWarn) << "DRX_STATS_WINDOW: bad epoch in '" << spec
                   << "', keeping default";
    return cfg;
  }
  cfg.epoch_ms = millis ? *epoch : *epoch * 1000;
  if (rest.starts_with('x')) {
    if (const auto n = util::parse_knob(rest.substr(1), 1, 4096)) {
      cfg.epochs = static_cast<std::size_t>(*n);
    } else {
      DRX_LOG(kWarn) << "DRX_STATS_WINDOW: bad epoch count in '" << spec
                     << "', keeping default";
    }
  } else if (!rest.empty()) {
    DRX_LOG(kWarn) << "DRX_STATS_WINDOW: trailing garbage in '" << spec
                   << "', keeping default epoch count";
  }
  return cfg;
}

WindowConfig window_config() noexcept {
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  return config_locked(s);
}

void set_window_config(const WindowConfig& cfg) {
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  if (cfg.epoch_ms == 0) {
    s.has_override = false;
  } else {
    s.override_cfg = cfg;
    if (s.override_cfg.epochs == 0) s.override_cfg.epochs = 1;
    s.has_override = true;
  }
  s.env_parsed = false;
  s.ring.clear();
}

bool window_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void set_window_enabled(bool on) noexcept {
  state().enabled.store(on, std::memory_order_relaxed);
  if (!on) window_clear();
}

void window_tick() {
  if (!window_enabled()) return;
  capture(/*force=*/false);
}

void window_record_epoch() {
  if (!window_enabled()) return;
  capture(/*force=*/true);
}

void window_clear() {
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  s.ring.clear();
}

void start_window_ticker() {
  stop_window_ticker();
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  s.ring.clear();
  s.ticker_stop = false;
  s.ticker = std::thread(ticker_main);
}

void stop_window_ticker() {
  WindowState& s = state();
  std::thread ticker;
  {
    util::MutexLock lock(s.mu);
    if (!s.ticker.joinable()) return;
    s.ticker_stop = true;
    ticker = std::move(s.ticker);
  }
  s.ticker_cv.notify_all();
  ticker.join();
}

bool window_ticker_running() {
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  return s.ticker.joinable();
}

WindowView window_view() {
  WindowView view;
  window_tick();
  MetricsSnapshot live = live_snapshot();
  view.now_us = trace_now_ns() / 1000;
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  if (!window_enabled() || s.ring.empty()) {
    // No ring: report cumulative since boot so a fresh process still
    // scrapes something; epochs == 0 marks the fallback.
    view.delta = std::move(live);
    return view;
  }
  const Epoch& oldest = s.ring.front();
  view.span_us = view.now_us > oldest.t_us ? view.now_us - oldest.t_us : 0;
  view.epochs = s.ring.size();
  view.delta = snapshot_delta(live, oldest.snap);
  return view;
}

std::vector<EpochDelta> window_epochs() {
  window_tick();
  WindowState& s = state();
  util::MutexLock lock(s.mu);
  std::vector<EpochDelta> out;
  for (std::size_t i = 1; i < s.ring.size(); ++i) {
    EpochDelta d;
    d.t_us = s.ring[i].t_us;
    d.span_us = s.ring[i].t_us - s.ring[i - 1].t_us;
    d.delta = snapshot_delta(s.ring[i].snap, s.ring[i - 1].snap);
    out.push_back(std::move(d));
  }
  return out;
}

void window_to_json(JsonWriter& w) {
  const WindowConfig cfg = window_config();
  const WindowView view = window_view();
  const std::vector<EpochDelta> epochs = window_epochs();
  w.begin_object();
  w.key("format").value("drx-window");
  w.key("version").value(std::uint64_t{1});
  w.key("config").begin_object();
  w.key("epoch_ms").value(cfg.epoch_ms);
  w.key("epochs").value(static_cast<std::uint64_t>(cfg.epochs));
  w.key("horizon_ms").value(cfg.horizon_ms());
  w.end_object();
  w.key("now_us").value(view.now_us);
  w.key("window").begin_object();
  w.key("span_us").value(view.span_us);
  w.key("epochs").value(static_cast<std::uint64_t>(view.epochs));
  w.key("metrics");
  metrics_to_json(view.delta, w);
  w.end_object();
  w.key("epoch_deltas").begin_array();
  for (const EpochDelta& e : epochs) {
    w.begin_object();
    w.key("t_us").value(e.t_us);
    w.key("span_us").value(e.span_us);
    w.key("metrics");
    metrics_to_json(e.delta, w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

Status write_window(const std::string& path) {
  JsonWriter w;
  window_to_json(w);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return Status(ErrorCode::kIoError, "cannot open window dump file: " + path);
  }
  out << w.str() << '\n';
  if (!out) {
    return Status(ErrorCode::kIoError, "short write to window dump file: " + path);
  }
  return Status::ok();
}

}  // namespace drx::obs
