// drx_top — live terminal view of a serving drx process.
//
// Polls the embedded metrics exporter (obs/exporter.hpp, enabled with
// DRX_METRICS_PORT) and renders the sliding-window view: request rate
// and windowed p50/p95/p99 per latency histogram, the rate of every
// counter that moved in the window, per-shard cache traffic, the cache
// fast-hit ratio, queue depth, and per-session progress — the
// operator's answer to "what is the array server doing
// RIGHT NOW", where drx_stats answers "what has it done since boot".
//
// Usage:
//   drx_top [--host <ip>] [--port <p>] [--interval <secs>] [--count <n>]
//           [--no-clear]
//   drx_top --render <window.json> [--gauges <live.json>]
//
// --port defaults to $DRX_METRICS_PORT. --count 0 (default) polls until
// interrupted. --render performs one offline rendering of saved
// /window.json (+ optional /json) documents — the same code path the
// live loop uses, which is how the CLI contract test exercises the
// renderer without a live server.
//
// Exit codes: 0 ok; 1 scrape/parse failure; 2 usage.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using drx::obs::JsonValue;

struct GaugeRow {
  std::string name;
  std::string array;
  std::string session;
  double value = 0.0;
};

std::vector<GaugeRow> parse_gauges(const JsonValue& live) {
  std::vector<GaugeRow> rows;
  const JsonValue* gauges = live.find("gauges");
  if (gauges == nullptr || !gauges->is_array()) return rows;
  for (const JsonValue& g : gauges->array) {
    GaugeRow row;
    const JsonValue* name = g.find("name");
    row.name = name != nullptr ? std::string(name->as_string()) : "?";
    if (const JsonValue* labels = g.find("labels"); labels != nullptr) {
      const JsonValue* array = labels->find("array");
      if (array != nullptr) row.array = std::string(array->as_string());
      const JsonValue* session = labels->find("session");
      if (session != nullptr) row.session = std::string(session->as_string());
    }
    row.value = g.number_at("value");
    rows.push_back(std::move(row));
  }
  return rows;
}

double gauge_value(const std::vector<GaugeRow>& rows, std::string_view name,
                   double dflt = -1.0) {
  for (const GaugeRow& r : rows) {
    if (r.name == name) return r.value;
  }
  return dflt;
}

/// Parses a whole decimal argument in [lo, hi]. strtoul would accept
/// "-1" and wrap it to 2^64-1, and a bare strtol would take "9477x" as
/// 9477.
bool parse_long(const char* v, long lo, long hi, long& out) {
  char* end = nullptr;
  out = std::strtol(v, &end, 10);
  return end != v && *end == '\0' && out >= lo && out <= hi;
}

/// One frame of output from a parsed /window.json (+ optional /json).
void render(const JsonValue& window_doc, const JsonValue* live_doc,
            const std::string& source) {
  const JsonValue* window = window_doc.find("window");
  const double span_s =
      window != nullptr ? window->number_at("span_us") / 1e6 : 0.0;
  drx::obs::MetricsSnapshot view;
  if (window != nullptr) {
    if (const JsonValue* m = window->find("metrics"); m != nullptr) {
      view = drx::obs::analysis::metrics_from_json(*m);
    }
  }
  double horizon_s = 0.0;
  if (const JsonValue* cfg = window_doc.find("config"); cfg != nullptr) {
    horizon_s = cfg->number_at("horizon_ms") / 1000.0;
  }
  std::printf("drx_top — %s — window %.0fs (span %.1fs)\n", source.c_str(),
              horizon_s, span_s);

  // Latency histograms: rate + windowed quantiles. Sorted by traffic so
  // the busiest op class leads.
  std::vector<const drx::obs::HistogramSample*> lat;
  for (const drx::obs::HistogramSample& h : view.histograms) {
    if (h.count == 0) continue;
    if (h.name.size() < 3 ||
        h.name.compare(h.name.size() - 3, 3, "_us") != 0) {
      continue;
    }
    lat.push_back(&h);
  }
  std::stable_sort(lat.begin(), lat.end(), [](const auto* a, const auto* b) {
    return a->count > b->count;
  });
  std::printf("%-32s %10s %8s %8s %8s %8s\n", "op (windowed)", "req/s",
              "p50us", "p95us", "p99us", "maxus");
  for (const auto* h : lat) {
    const drx::obs::HistogramSummary s = drx::obs::summarize_histogram(*h);
    const double rate =
        span_s > 0.0 ? static_cast<double>(h->count) / span_s : 0.0;
    std::printf("%-32s %10.1f %8llu %8llu %8llu %8llu\n", h->name.c_str(),
                rate, static_cast<unsigned long long>(s.p50),
                static_cast<unsigned long long>(s.p95),
                static_cast<unsigned long long>(s.p99),
                static_cast<unsigned long long>(s.max));
  }

  // Every counter that moved within the window, as a rate.
  bool counter_header = false;
  for (const drx::obs::CounterSample& c : view.counters) {
    if (c.value == 0) continue;
    if (!counter_header) {
      std::printf("%-32s %10s %10s\n", "counter (windowed)", "per s",
                  "total");
      counter_header = true;
    }
    const double rate =
        span_s > 0.0 ? static_cast<double>(c.value) / span_s : 0.0;
    std::printf("%-32s %10.1f %10llu\n", c.name.c_str(), rate,
                static_cast<unsigned long long>(c.value));
  }

  // Per-shard cache traffic within the window.
  struct ShardRow {
    int shard;
    std::uint64_t accesses;
  };
  std::vector<ShardRow> shards;
  for (const drx::obs::CounterSample& c : view.counters) {
    const auto l = drx::obs::parse_labelled(c.name);
    if (!l || l->label != "shard" || l->metric != "accesses") continue;
    shards.push_back(ShardRow{l->index, c.value});
  }
  std::sort(shards.begin(), shards.end(),
            [](const ShardRow& a, const ShardRow& b) {
              return a.shard < b.shard;
            });
  if (!shards.empty()) {
    std::printf("cache shards (windowed accesses):");
    for (const ShardRow& s : shards) {
      std::printf(" %d:%llu", s.shard,
                  static_cast<unsigned long long>(s.accesses));
    }
    std::printf("\n");
  }

  if (live_doc != nullptr) {
    const std::vector<GaugeRow> gauges = parse_gauges(*live_doc);
    const double depth = gauge_value(gauges, "serve.queue.depth");
    const double fast = gauge_value(gauges, "serve.cache.fast_hit_ratio");
    if (depth >= 0.0 || fast >= 0.0) {
      std::printf("queue depth %.0f   cache fast-hit ratio %.2f\n",
                  depth >= 0.0 ? depth : 0.0, fast >= 0.0 ? fast : 0.0);
    }
    bool header = false;
    for (const GaugeRow& r : gauges) {
      if (r.name != "serve.session.submitted") continue;
      if (!header) {
        std::printf("%-10s %-10s %12s %12s %12s\n", "array", "session",
                    "submitted", "completed", "failed");
        header = true;
      }
      const auto find_peer = [&](std::string_view name) {
        for (const GaugeRow& p : gauges) {
          if (p.name == name && p.array == r.array &&
              p.session == r.session) {
            return p.value;
          }
        }
        return 0.0;
      };
      std::printf("%-10s %-10s %12.0f %12.0f %12.0f\n", r.array.c_str(),
                  r.session.c_str(), r.value,
                  find_peer("serve.session.completed"),
                  find_peer("serve.session.failed"));
    }
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int render_offline(const std::string& window_path,
                   const std::string& gauges_path) {
  std::string raw;
  if (!read_file(window_path, raw)) {
    std::fprintf(stderr, "error: cannot read %s\n", window_path.c_str());
    return 1;
  }
  auto window_doc = drx::obs::json_parse(raw);
  if (!window_doc.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", window_path.c_str(),
                 window_doc.status().to_string().c_str());
    return 1;
  }
  drx::Result<JsonValue> live_doc =
      drx::Status(drx::ErrorCode::kNotFound, "no gauges file");
  if (!gauges_path.empty()) {
    std::string live_raw;
    if (!read_file(gauges_path, live_raw)) {
      std::fprintf(stderr, "error: cannot read %s\n", gauges_path.c_str());
      return 1;
    }
    live_doc = drx::obs::json_parse(live_raw);
    if (!live_doc.is_ok()) {
      std::fprintf(stderr, "error: %s: %s\n", gauges_path.c_str(),
                   live_doc.status().to_string().c_str());
      return 1;
    }
  }
  render(window_doc.value(),
         live_doc.is_ok() ? &live_doc.value() : nullptr, window_path);
  return 0;
}

int poll_loop(const std::string& host, std::uint16_t port, double interval_s,
              std::size_t count, bool clear) {
  const std::string source = host + ":" + std::to_string(port);
  std::size_t polls = 0;
  while (count == 0 || polls < count) {
    if (polls != 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
    ++polls;
    auto window_raw = drx::obs::http_get(host, port, "/window.json");
    if (!window_raw.is_ok()) {
      std::fprintf(stderr, "error: %s\n",
                   window_raw.status().to_string().c_str());
      return 1;
    }
    auto window_doc = drx::obs::json_parse(window_raw.value());
    if (!window_doc.is_ok()) {
      std::fprintf(stderr, "error: bad /window.json: %s\n",
                   window_doc.status().to_string().c_str());
      return 1;
    }
    // The gauges endpoint is best-effort: a process without a serve
    // layer still has windows worth rendering.
    auto live_raw = drx::obs::http_get(host, port, "/json");
    drx::Result<JsonValue> live_doc =
        drx::Status(drx::ErrorCode::kNotFound, "unavailable");
    if (live_raw.is_ok()) live_doc = drx::obs::json_parse(live_raw.value());
    if (clear) std::printf("\x1b[2J\x1b[H");
    render(window_doc.value(),
           live_doc.is_ok() ? &live_doc.value() : nullptr, source);
    std::fflush(stdout);
  }
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: drx_top [--host <ip>] [--port <p>] [--interval <secs>]\n"
      "               [--count <n>] [--no-clear]\n"
      "       drx_top --render <window.json> [--gauges <live.json>]\n"
      "--port defaults to $DRX_METRICS_PORT; --count 0 polls forever.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  long port = -1;
  double interval_s = 2.0;
  long count = 0;
  bool no_clear = false;
  std::string render_path;
  std::string gauges_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr || !parse_long(v, 0, 65535, port)) {
        usage();
        return 2;
      }
    } else if (arg == "--interval") {
      const char* v = next();
      char* end = nullptr;
      if (v == nullptr) { usage(); return 2; }
      interval_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || interval_s <= 0.0) {
        usage();
        return 2;
      }
    } else if (arg == "--count") {
      const char* v = next();
      if (v == nullptr || !parse_long(v, 0, LONG_MAX, count)) {
        usage();
        return 2;
      }
    } else if (arg == "--no-clear") {
      no_clear = true;
    } else if (arg == "--render") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      render_path = v;
    } else if (arg == "--gauges") {
      const char* v = next();
      if (v == nullptr) { usage(); return 2; }
      gauges_path = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!render_path.empty()) {
    return render_offline(render_path, gauges_path);
  }
  if (port < 0) {
    // The exporter rejects a malformed value and never starts, so
    // polling it would only end in a connection error.
    const char* env = std::getenv("DRX_METRICS_PORT");
    if (env != nullptr && env[0] != '\0' &&
        !parse_long(env, 0, 65535, port)) {
      std::fprintf(stderr, "error: bad DRX_METRICS_PORT '%s'\n", env);
      usage();
      return 2;
    }
  }
  if (port <= 0) {
    std::fprintf(stderr,
                 "error: no port (--port or DRX_METRICS_PORT required)\n");
    usage();
    return 2;
  }
  // Clear only when a human is watching; piped output stays appendable.
  const bool clear = !no_clear && ::isatty(STDOUT_FILENO) != 0;
  return poll_loop(host, static_cast<std::uint16_t>(port), interval_s,
                   static_cast<std::size_t>(count), clear);
}
