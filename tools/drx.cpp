// drx — the command-line tool for DRX arrays and their observability
// artifacts, one subcommand per job:
//
//   drx stats [--json] <snapshot>         render a DRX_METRICS snapshot
//   drx stats [--json] --diff <a> <b>     per-metric delta b - a
//   drx stats --check-json <file>         exit 0 iff <file> is JSON or
//                                         JSON lines (CI validates
//                                         DRX_TRACE/DRX_BENCH_JSON output)
//   drx stats --top <N> <file>            N slowest ops, from a DRX_TRACE
//                                         trace (per-stage breakdown) or a
//                                         drx-flight dump (dominant stage)
//   drx top [--host <ip>] [--port <p>] [--interval <secs>] [--count <n>]
//           [--no-clear]                  live windowed view of a serving
//                                         process's exporter
//   drx top --render <window.json> [--gauges <live.json>]
//   drx doctor [--json] [--strict] [--metrics <snapshot.bin>]
//              [--trace <trace.json>] [--bench <report.json>]
//              [--flight <flight.json>] [--window <window.json>]
//   drx inspect [--chunk-table|--json] <name>   metadata of <name>.xmd
//
// Every subcommand reads its inputs through one loader (read_file,
// load_json, load_snapshot, for_each_json_line). It reads through the
// stream, so pipes and /dev/stdin work, and reports every unreadable or
// malformed input as "drx <sub>: error: <path>: <why>".
//
// Exit codes: 0 ok and 2 usage everywhere. An unreadable or malformed
// input is 1 for stats, top and inspect (top also for a failed scrape)
// and 3 for doctor, whose 1 means --strict and dropped trace events.
// Analysis verdicts (imbalance, thrash, stalls) never gate: a multi-phase
// bench legitimately accumulates skewed-looking totals.
//
// `drx stats` answers "what has it done since boot"; `drx top` renders
// the exporter's sliding window (obs/window.hpp), counters as rates,
// "what is it doing right now". The JSON renderings are the ones the
// bench reports use (obs::metrics_to_json), so every surface prints
// metrics identically.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/metadata.hpp"
#include "obs/analysis.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "util/knob.hpp"

using namespace drx;  // NOLINT: tool brevity
using obs::JsonValue;
using obs::JsonWriter;
using obs::MetricsSnapshot;
using obs::analysis::Finding;
using Args = std::vector<std::string>;

namespace {

std::string g_cmd = "drx";  // "drx <sub>" once dispatched

/// Prints "<cmd>: <why>" to stderr and returns `code`.
int fail(int code, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", g_cmd.c_str(), why.c_str());
  return code;
}

int fail(int code, const Status& s) { return fail(code, "error: " + s.message()); }

int usage(const char* text) {
  std::fputs(text, stderr);
  return 2;
}

/// The value after the flag at args[i], advancing i; nullptr at the end.
const std::string* next_value(const Args& args, std::size_t& i) {
  return i + 1 < args.size() ? &args[++i] : nullptr;
}

// ---- the one artifact loader ---------------------------------------------

/// `s` as an error about `path`: the one form every loader reports.
Status about(const std::string& path, const Status& s) {
  return Status(s.code(), path + ": " + s.message());
}

/// All of `path`, read through the stream (no seeking), so pipes and
/// /dev/stdin work.
Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  if (in) text << in.rdbuf();
  if (!in || in.bad()) {
    return Status(ErrorCode::kIoError, "cannot read " + path);
  }
  return text.str();
}

Result<JsonValue> load_json(const std::string& path) {
  auto text = read_file(path);
  if (!text.is_ok()) return text.status();
  auto doc = obs::json_parse(text.value());
  if (!doc.is_ok()) return about(path, doc.status());
  return doc;
}

/// A binary DRX_METRICS snapshot.
Result<MetricsSnapshot> load_snapshot(const std::string& path) {
  auto raw = read_file(path);
  if (!raw.is_ok()) return raw.status();
  auto snap = MetricsSnapshot::deserialize(std::as_bytes(std::span(raw.value())));
  if (!snap.is_ok()) return about(path, snap.status());
  return snap;
}

/// Parses each non-blank line of a JSON-lines file (DRX_BENCH_JSON
/// appends one document per line) and hands it to `fn`. Fails on the
/// first malformed line and on a file with no document; returns the
/// number of documents.
Result<std::size_t> for_each_json_line(
    const std::string& path, std::string_view text,
    const std::function<void(const JsonValue&)>& fn) {
  std::size_t docs = 0;
  for (std::size_t line_no = 1; !text.empty(); ++line_no) {
    const std::size_t nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{} : text.substr(nl + 1);
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    auto doc = obs::json_parse(line);
    if (!doc.is_ok()) {
      return about(path + ":" + std::to_string(line_no), doc.status());
    }
    fn(doc.value());
    ++docs;
  }
  if (docs == 0) return Status(ErrorCode::kCorrupt, path + ": no JSON document");
  return docs;
}

// ---- drx stats -----------------------------------------------------------

int check_json(const std::string& path) {
  auto text = read_file(path);
  if (!text.is_ok()) return fail(1, text.status());
  const std::string& whole = text.value();
  if (obs::json_validate(whole)) {
    std::printf("%s: valid JSON (%zu bytes)\n", path.c_str(), whole.size());
    return 0;
  }
  auto records = for_each_json_line(path, whole, [](const JsonValue&) {});
  if (!records.is_ok()) return fail(1, records.status());
  std::printf("%s: valid JSON lines (%zu records, %zu bytes)\n", path.c_str(),
              records.value(), whole.size());
  return 0;
}

int render_snapshot(const std::string& path, bool json) {
  auto snap = load_snapshot(path);
  if (!snap.is_ok()) return fail(1, snap.status());
  if (json) {
    JsonWriter w;
    obs::metrics_to_json(snap.value(), w);
    std::printf("%s\n", w.str().c_str());
  } else {
    std::fputs(obs::metrics_to_text(snap.value()).c_str(), stdout);
  }
  return 0;
}

/// Prints the per-metric delta b - a.
int diff(const std::string& a_path, const std::string& b_path, bool json) {
  auto a_snap = load_snapshot(a_path);
  auto b_snap = load_snapshot(b_path);
  for (const auto* r : {&a_snap, &b_snap}) {
    if (!r->is_ok()) return fail(1, r->status());
  }
  const MetricsSnapshot& a = a_snap.value();
  const MetricsSnapshot& b = b_snap.value();
  // Union of metric names, in b's order then a-only extras; delta = b - a
  // (negative deltas mean the metric only appears in the baseline, e.g. a
  // run that skipped a phase).
  struct CounterDelta {
    std::string name;
    std::int64_t delta;
  };
  std::vector<CounterDelta> counters;
  for (const auto& c : b.counters) {
    counters.push_back(CounterDelta{
        c.name, static_cast<std::int64_t>(c.value) -
                    static_cast<std::int64_t>(a.counter(c.name))});
  }
  for (const auto& c : a.counters) {
    if (std::find_if(b.counters.begin(), b.counters.end(),
                     [&](const auto& s) { return s.name == c.name; }) ==
        b.counters.end()) {
      counters.push_back(
          CounterDelta{c.name, -static_cast<std::int64_t>(c.value)});
    }
  }

  struct HistDelta {
    std::string name;
    std::int64_t count;
    std::int64_t sum;
  };
  const auto hist_of = [](const MetricsSnapshot& s, const std::string& name)
      -> const obs::HistogramSample* {
    for (const auto& h : s.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };
  std::vector<HistDelta> hists;
  for (const auto& h : b.histograms) {
    const auto* prev = hist_of(a, h.name);
    hists.push_back(HistDelta{
        h.name,
        static_cast<std::int64_t>(h.count) -
            static_cast<std::int64_t>(prev != nullptr ? prev->count : 0),
        static_cast<std::int64_t>(h.sum) -
            static_cast<std::int64_t>(prev != nullptr ? prev->sum : 0)});
  }
  for (const auto& h : a.histograms) {
    if (hist_of(b, h.name) == nullptr) {
      hists.push_back(HistDelta{h.name,
                                -static_cast<std::int64_t>(h.count),
                                -static_cast<std::int64_t>(h.sum)});
    }
  }

  if (json) {
    JsonWriter w;
    w.begin_object();
    w.key("counters").begin_object();
    for (const auto& c : counters) w.key(c.name).value(c.delta);
    w.end_object();
    w.key("histograms").begin_object();
    for (const auto& h : hists) {
      w.key(h.name).begin_object();
      w.key("count").value(h.count);
      w.key("sum").value(h.sum);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }

  std::size_t width = 0;
  for (const auto& c : counters) width = std::max(width, c.name.size());
  for (const auto& h : hists) width = std::max(width, h.name.size());
  std::printf("delta %s -> %s\ncounters:\n", a_path.c_str(),
              b_path.c_str());
  for (const auto& c : counters) {
    if (c.delta == 0) continue;  // unchanged metrics stay out of the way
    std::printf("  %-*s %+lld\n", static_cast<int>(width), c.name.c_str(),
                static_cast<long long>(c.delta));
  }
  std::printf("histograms:\n");
  for (const auto& h : hists) {
    if (h.count == 0 && h.sum == 0) continue;
    std::printf("  %-*s count=%+lld sum=%+lld\n", static_cast<int>(width),
                h.name.c_str(), static_cast<long long>(h.count),
                static_cast<long long>(h.sum));
  }
  return 0;
}

int top_ops(const std::string& path, std::uint64_t n) {
  auto doc = load_json(path);
  if (!doc.is_ok()) return fail(1, doc.status());

  std::vector<obs::analysis::OpStat> ops;
  bool from_flight = false;
  if (doc.value().find("traceEvents") != nullptr) {
    auto summary = obs::analysis::summarize_trace(doc.value());
    if (!summary.is_ok()) return fail(1, about(path, summary.status()));
    ops = std::move(summary.value().ops);
  } else if (const auto* fmt = doc.value().find("format");
             fmt != nullptr && fmt->as_string() == "drx-flight") {
    // Flight records are fixed-size, so only the dominant stage (the
    // record's `arg`) survives, not the full per-stage breakdown.
    for (const auto& r : obs::analysis::flight_records(doc.value())) {
      if (r.kind != "op") continue;
      obs::analysis::OpStat op;
      op.name = r.name;
      op.op = r.op;
      op.dur_us = r.dur_us;
      op.rank = r.rank;
      if (r.arg < obs::kStageCount) {
        op.dominant = obs::stage_name(static_cast<obs::Stage>(r.arg));
      }
      ops.push_back(std::move(op));
    }
    from_flight = true;
  } else {
    return fail(1, "error: " + path +
                       " is neither a trace (traceEvents) nor a drx-flight dump");
  }

  std::stable_sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
    return a.dur_us > b.dur_us;
  });
  if (ops.size() > n) ops.resize(static_cast<std::size_t>(n));

  std::printf("top %zu op(s) by wall time from %s:\n", ops.size(),
              path.c_str());
  std::printf("%-24s %6s %5s %10s", "op", "id", "rank", "wall us");
  if (!from_flight) {
    for (std::size_t s = 0; s < obs::kStageCount; ++s) {
      std::printf(" %10s", obs::stage_name(static_cast<obs::Stage>(s)));
    }
  }
  std::printf(" %10s\n", "dominant");
  for (const auto& op : ops) {
    std::printf("%-24s %6llu %5d %10.1f", op.name.c_str(),
                static_cast<unsigned long long>(op.op), op.rank, op.dur_us);
    if (!from_flight) {
      for (const double us : op.stage_us) std::printf(" %10.1f", us);
    }
    std::printf(" %10s\n", op.dominant.empty() ? "?" : op.dominant.c_str());
  }
  return 0;
}

int run_stats(const Args& args) {
  const char* const kUsage =
      "usage: drx stats [--json] <snapshot>\n"
      "       drx stats [--json] --diff <a> <b>\n"
      "       drx stats --check-json <file>\n"
      "       drx stats --top <N> <trace.json|flight.json>\n";
  bool json = false;
  bool check = false;
  bool do_diff = false;
  std::uint64_t top_n = 0;
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json = true;
    } else if (args[i] == "--check-json") {
      check = true;
    } else if (args[i] == "--diff") {
      do_diff = true;
    } else if (args[i] == "--top") {
      const std::string* v = next_value(args, i);
      const auto n = v ? util::parse_knob(*v, 1, UINT64_MAX) : std::nullopt;
      if (!n) return usage(kUsage);
      top_n = *n;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (top_n != 0) {
    if (paths.size() != 1 || json || check || do_diff) return usage(kUsage);
    return top_ops(paths[0], top_n);
  }
  if (do_diff) {
    if (paths.size() != 2 || check) return usage(kUsage);
    return diff(paths[0], paths[1], json);
  }
  if (paths.size() != 1 || (json && check)) return usage(kUsage);
  return check ? check_json(paths[0]) : render_snapshot(paths[0], json);
}

// ---- drx top -------------------------------------------------------------

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

/// One frame of output from a parsed /window.json (+ optional /json).
void render_window(const JsonValue& window_doc, const JsonValue* live_doc,
                   const std::string& source) {
  const JsonValue* window = window_doc.find("window");
  const double span_s =
      window != nullptr ? window->number_at("span_us") / 1e6 : 0.0;
  MetricsSnapshot view;
  if (window != nullptr) {
    if (const JsonValue* m = window->find("metrics"); m != nullptr) {
      view = obs::analysis::metrics_from_json(*m);
    }
  }
  double horizon_s = 0.0;
  if (const JsonValue* cfg = window_doc.find("config"); cfg != nullptr) {
    horizon_s = cfg->number_at("horizon_ms") / 1000.0;
  }
  std::printf("drx top — %s — window %.0fs (span %.1fs)\n", source.c_str(),
              horizon_s, span_s);

  // Latency histograms: rate + windowed quantiles. Sorted by traffic so
  // the busiest op class leads.
  std::vector<const obs::HistogramSample*> lat;
  for (const obs::HistogramSample& h : view.histograms) {
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
    const obs::HistogramSummary s = obs::summarize_histogram(*h);
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
  for (const obs::CounterSample& c : view.counters) {
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
  for (const obs::CounterSample& c : view.counters) {
    const auto l = obs::parse_labelled(c.name);
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

int render_offline(const std::string& window_path,
                   const std::string& gauges_path) {
  auto window_doc = load_json(window_path);
  if (!window_doc.is_ok()) return fail(1, window_doc.status());
  std::optional<JsonValue> live_doc;
  if (!gauges_path.empty()) {
    auto gauges = load_json(gauges_path);
    if (!gauges.is_ok()) return fail(1, gauges.status());
    live_doc = std::move(gauges).value();
  }
  render_window(window_doc.value(), live_doc ? &*live_doc : nullptr,
                window_path);
  return 0;
}

int poll_loop(const std::string& host, std::uint16_t port, double interval_s,
              std::uint64_t count, bool clear) {
  const std::string source = host + ":" + std::to_string(port);
  for (std::uint64_t polls = 0; count == 0 || polls < count; ++polls) {
    if (polls != 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
    auto window_raw = obs::http_get(host, port, "/window.json");
    if (!window_raw.is_ok()) return fail(1, window_raw.status());
    auto window_doc = obs::json_parse(window_raw.value());
    if (!window_doc.is_ok()) {
      return fail(1, about("/window.json", window_doc.status()));
    }
    // The gauges endpoint is best-effort: a process without a serve
    // layer still has windows worth rendering.
    std::optional<JsonValue> live_doc;
    if (auto live_raw = obs::http_get(host, port, "/json"); live_raw.is_ok()) {
      auto parsed = obs::json_parse(live_raw.value());
      if (parsed.is_ok()) live_doc = std::move(parsed).value();
    }
    if (clear) std::printf("\x1b[2J\x1b[H");
    render_window(window_doc.value(), live_doc ? &*live_doc : nullptr, source);
    std::fflush(stdout);
  }
  return 0;
}

int run_top(const Args& args) {
  const char* const kUsage =
      "usage: drx top [--host <ip>] [--port <p>] [--interval <secs>]\n"
      "               [--count <n>] [--no-clear]\n"
      "       drx top --render <window.json> [--gauges <live.json>]\n"
      "--port defaults to $DRX_METRICS_PORT; --count 0 polls forever.\n";
  std::string host = "127.0.0.1";
  std::optional<std::uint64_t> port;
  double interval_s = 2.0;
  std::uint64_t count = 0;
  bool no_clear = false;
  std::string render_path;
  std::string gauges_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--no-clear") {
      no_clear = true;
      continue;
    }
    const std::string* v = next_value(args, i);
    if (v == nullptr) return usage(kUsage);
    if (arg == "--host") {
      host = *v;
    } else if (arg == "--port") {
      port = util::parse_knob(*v, 0, 65535);
      if (!port) return usage(kUsage);
    } else if (arg == "--interval") {
      // At most a day: sleep_for converts to integer ticks, which NaN,
      // infinity and huge values overflow.
      const char* end = v->data() + v->size();
      const auto [ptr, ec] = std::from_chars(v->data(), end, interval_s);
      if (ec != std::errc{} || ptr != end || !(interval_s > 0.0) ||
          interval_s > 86400.0) {
        return usage(kUsage);
      }
    } else if (arg == "--count") {
      const auto n = util::parse_knob(*v, 0, UINT64_MAX);
      if (!n) return usage(kUsage);
      count = *n;
    } else if (arg == "--render") {
      render_path = *v;
    } else if (arg == "--gauges") {
      gauges_path = *v;
    } else {
      return usage(kUsage);
    }
  }
  if (!render_path.empty()) return render_offline(render_path, gauges_path);
  if (!port) {
    // The exporter rejects a malformed value and never starts, so
    // polling it would only end in a connection error.
    const char* env = std::getenv("DRX_METRICS_PORT");
    if (env != nullptr && env[0] != '\0') {
      port = util::parse_knob(env, 0, 65535);
      if (!port) {
        fail(2, std::string("error: bad DRX_METRICS_PORT '") + env + "'");
        return usage(kUsage);
      }
    }
  }
  if (port.value_or(0) == 0) {
    fail(2, "error: no port (--port or DRX_METRICS_PORT required)");
    return usage(kUsage);
  }
  // Clear only when a human is watching; piped output stays appendable.
  const bool clear = !no_clear && ::isatty(STDOUT_FILENO) != 0;
  return poll_loop(host, static_cast<std::uint16_t>(*port), interval_s, count,
                   clear);
}

// ---- drx doctor ----------------------------------------------------------

/// Runs the detectors for one `--<kind> <path>` input.
Status analyze_input(const std::string& kind, const std::string& path,
                     std::vector<Finding>& out) {
  namespace analysis = obs::analysis;
  if (kind == "metrics") {
    auto snap = load_snapshot(path);
    if (!snap.is_ok()) return snap.status();
    analysis::analyze_metrics(snap.value(), out);
    return Status::ok();
  }
  if (kind == "bench") {
    auto text = read_file(path);
    if (!text.is_ok()) return text.status();
    return for_each_json_line(path, text.value(), [&](const JsonValue& doc) {
      const JsonValue* metrics = doc.find("metrics");
      if (metrics == nullptr) return;
      const JsonValue* name = doc.find("bench");
      std::vector<Finding> fs;
      analysis::analyze_metrics(analysis::metrics_from_json(*metrics), fs);
      // Prefix so findings from different bench reports stay attributable.
      for (Finding& f : fs) {
        f.message = std::string(name != nullptr ? name->as_string() : "bench")
                        .append(": ")
                        .append(f.message);
        out.push_back(std::move(f));
      }
    }).status();
  }
  auto doc = load_json(path);
  if (!doc.is_ok()) return doc.status();
  if (kind == "trace") {
    auto summary = analysis::summarize_trace(doc.value());
    if (!summary.is_ok()) return about(path, summary.status());
    analysis::analyze_trace(summary.value(), out);
  } else if (kind == "flight") {
    analysis::analyze_flight(doc.value(), out);
  } else {
    analysis::analyze_window(doc.value(), out);
  }
  return Status::ok();
}

int run_doctor(const Args& args) {
  const char* const kUsage =
      "usage: drx doctor [--json] [--strict]\n"
      "                  [--metrics <snapshot.bin>]\n"
      "                  [--trace <trace.json>]\n"
      "                  [--bench <report.json>]\n"
      "                  [--flight <flight.json>]\n"
      "                  [--window <window.json>]\n";
  bool json = false;
  bool strict = false;
  std::vector<std::pair<std::string, std::string>> inputs;  // (kind, path)
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--metrics" || arg == "--trace" || arg == "--bench" ||
               arg == "--flight" || arg == "--window") {
      const std::string* v = next_value(args, i);
      if (v == nullptr) return usage(kUsage);
      inputs.emplace_back(arg.substr(2), *v);
    } else {
      return usage(kUsage);
    }
  }
  if (inputs.empty()) return usage(kUsage);

  obs::analysis::Report report;
  for (const auto& [kind, path] : inputs) {
    const Status st = analyze_input(kind, path, report.findings);
    if (!st.is_ok()) return fail(3, st);
  }

  // Several inputs can surface the same defect (e.g. dropped traces show
  // up in both the metrics snapshot and the trace metadata): keep the
  // highest-scoring instance of each finding id.
  std::vector<Finding> unique;
  for (Finding& f : report.findings) {
    bool merged = false;
    for (Finding& u : unique) {
      if (u.id == f.id && u.message == f.message) {
        if (f.score > u.score) u = std::move(f);
        merged = true;
        break;
      }
    }
    if (!merged) unique.push_back(std::move(f));
  }
  report.findings = std::move(unique);

  // Most severe first; ties broken by score.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.severity != b.severity) return a.severity > b.severity;
                     return a.score > b.score;
                   });

  if (json) {
    JsonWriter w;
    obs::analysis::report_to_json(report, w);
    std::printf("%s\n", w.str().c_str());
  } else {
    std::fputs(obs::analysis::report_to_text(report).c_str(), stdout);
  }
  const bool dropped =
      std::any_of(report.findings.begin(), report.findings.end(),
                  [](const Finding& f) { return f.id == "trace-dropped"; });
  if (strict && dropped) return fail(1, "--strict: trace events were dropped");
  return 0;
}

// ---- drx inspect ---------------------------------------------------------

using core::Metadata;

Result<Metadata> load_metadata(const std::string& name) {
  const std::string path = name + ".xmd";
  auto image = read_file(path);
  if (!image.is_ok()) return image.status();
  auto meta = Metadata::from_bytes(std::as_bytes(std::span(image.value())));
  if (!meta.is_ok()) return about(path, meta.status());
  return meta;
}

void shape_to_json(const core::Shape& s, JsonWriter& w) {
  w.begin_array();
  for (std::uint64_t v : s) w.value(v);
  w.end_array();
}

/// Metadata as a JSON object (same writer the metrics JSON uses, so tool
/// output stays uniformly parseable).
void inspect_json(const std::string& name, const Metadata& m) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value(name);
  w.key("rank").value(static_cast<std::uint64_t>(m.rank()));
  w.key("element_type").value(core::element_type_name(m.dtype));
  w.key("element_bytes").value(m.element_bytes());
  w.key("in_chunk_order")
      .value(m.in_chunk_order == core::MemoryOrder::kRowMajor ? "row-major"
                                                              : "column-major");
  w.key("element_bounds");
  shape_to_json(m.element_bounds, w);
  w.key("chunk_shape");
  shape_to_json(m.chunk_shape, w);
  w.key("chunk_grid");
  shape_to_json(m.mapping.bounds(), w);
  w.key("total_chunks").value(m.mapping.total_chunks());
  w.key("chunk_bytes").value(m.chunk_bytes());
  w.key("data_file_bytes").value(m.data_file_bytes());
  w.key("codec").value(codec::codec_name(m.codec));
  w.key("address_order_runs").value(m.address_order_runs());
  if (m.compressed()) {
    const std::uint64_t live = m.stored_live_bytes();
    w.key("stored_bytes").value(live);
    w.key("data_end").value(m.data_end);
    w.key("compression_ratio")
        .value(live == 0 ? 0.0
                         : static_cast<double>(m.data_file_bytes()) /
                               static_cast<double>(live));
    w.key("chunk_slots").begin_array();
    for (std::size_t a = 0; a < m.chunk_table.size(); ++a) {
      const core::ChunkSlot& slot = m.chunk_table[a];
      w.begin_object();
      w.key("address").value(static_cast<std::uint64_t>(a));
      w.key("offset").value(slot.offset);
      w.key("stored").value(static_cast<std::uint64_t>(slot.stored));
      w.key("capacity").value(static_cast<std::uint64_t>(slot.capacity));
      w.key("codec").value(
          codec::codec_name(static_cast<codec::CodecId>(slot.codec)));
      w.end_object();
    }
    w.end_array();
  }
  w.key("axial_records").value(m.mapping.total_records());
  w.key("axial_vectors").begin_array();
  for (std::size_t d = 0; d < m.rank(); ++d) {
    w.begin_array();
    for (const auto& r : m.mapping.axial_vector(d).records()) {
      if (r.start_address == core::ExpansionRecord::kUnallocated) continue;
      w.begin_object();
      w.key("start_index").value(r.start_index);
      w.key("start_address").value(static_cast<std::int64_t>(r.start_address));
      w.key("coeffs").begin_array();
      for (std::uint64_t c : r.coeffs) w.value(c);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
}

void inspect_text(const std::string& name, const Metadata& m,
                  bool chunk_table) {
  std::printf("DRX extendible array: %s\n", name.c_str());
  std::printf("  rank            : %zu\n", m.rank());
  std::printf("  element type    : %s (%llu bytes)\n",
              std::string(core::element_type_name(m.dtype)).c_str(),
              static_cast<unsigned long long>(m.element_bytes()));
  std::printf("  in-chunk order  : %s\n",
              m.in_chunk_order == core::MemoryOrder::kRowMajor
                  ? "row-major (C)"
                  : "column-major (FORTRAN)");
  auto print_shape = [](const char* label, const core::Shape& s) {
    std::printf("  %-16s:", label);
    for (std::uint64_t v : s) {
      std::printf(" %llu", static_cast<unsigned long long>(v));
    }
    std::printf("\n");
  };
  print_shape("element bounds", m.element_bounds);
  print_shape("chunk shape", m.chunk_shape);
  print_shape("chunk grid", m.mapping.bounds());
  std::printf("  chunks          : %llu (%llu bytes each; .xta = %llu "
              "bytes)\n",
              static_cast<unsigned long long>(m.mapping.total_chunks()),
              static_cast<unsigned long long>(m.chunk_bytes()),
              static_cast<unsigned long long>(m.data_file_bytes()));
  std::printf("  axial records E : %llu (F* cost ~ O(k + log E))\n",
              static_cast<unsigned long long>(m.mapping.total_records()));
  std::printf("  codec           : %s\n",
              std::string(codec::codec_name(m.codec)).c_str());
  // 1 = an address-order scan is one sequential pass over the .xta.
  std::printf("  address order   : %llu storage-contiguous run(s) of %llu "
              "chunks\n",
              static_cast<unsigned long long>(m.address_order_runs()),
              static_cast<unsigned long long>(m.mapping.total_chunks()));
  if (m.compressed()) {
    const std::uint64_t live = m.stored_live_bytes();
    const double ratio = live == 0
                             ? 0.0
                             : static_cast<double>(m.data_file_bytes()) /
                                   static_cast<double>(live);
    std::printf("  stored bytes    : %llu of %llu logical (ratio %.2fx, "
                "data_end %llu)\n",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(m.data_file_bytes()),
                ratio, static_cast<unsigned long long>(m.data_end));
    constexpr std::size_t kMaxSlotRows = 64;
    std::printf("  chunk slots (address: offset stored/capacity codec):\n");
    for (std::size_t a = 0;
         a < std::min(m.chunk_table.size(), kMaxSlotRows); ++a) {
      const core::ChunkSlot& slot = m.chunk_table[a];
      std::printf("    %6zu: %10llu %8llu/%-8llu %s\n", a,
                  static_cast<unsigned long long>(slot.offset),
                  static_cast<unsigned long long>(slot.stored),
                  static_cast<unsigned long long>(slot.capacity),
                  std::string(codec::codec_name(
                                  static_cast<codec::CodecId>(slot.codec)))
                      .c_str());
    }
    if (m.chunk_table.size() > kMaxSlotRows) {
      std::printf("    ... %zu more (use --json for the full slot table)\n",
                  m.chunk_table.size() - kMaxSlotRows);
    }
  }

  for (std::size_t d = 0; d < m.rank(); ++d) {
    std::printf("  axial vector D%zu:\n", d);
    for (const auto& r : m.mapping.axial_vector(d).records()) {
      if (r.start_address == core::ExpansionRecord::kUnallocated) {
        std::printf("    <sentinel: dimension never hosted a segment>\n");
        continue;
      }
      std::printf("    segment from index %llu at chunk address %lld, C = [",
                  static_cast<unsigned long long>(r.start_index),
                  static_cast<long long>(r.start_address));
      for (std::size_t j = 0; j < r.coeffs.size(); ++j) {
        std::printf("%s%llu", j ? ", " : "",
                    static_cast<unsigned long long>(r.coeffs[j]));
      }
      std::printf("]\n");
    }
  }

  if (!chunk_table) return;
  if (m.rank() != 2 || m.mapping.total_chunks() > 4096) {
    std::printf("  (chunk table printed for 2-D arrays up to 4096 "
                "chunks only)\n");
    return;
  }
  std::printf("  chunk address table (rows = D0, cols = D1):\n");
  for (std::uint64_t i = 0; i < m.mapping.bounds()[0]; ++i) {
    std::printf("   ");
    for (std::uint64_t j = 0; j < m.mapping.bounds()[1]; ++j) {
      std::printf(" %6llu", static_cast<unsigned long long>(
                                m.mapping.address_of(core::Index{i, j})));
    }
    std::printf("\n");
  }
}

int run_inspect(const Args& args) {
  const char* const kUsage = "usage: drx inspect [--chunk-table|--json] <name>\n";
  bool chunk_table = false;
  bool json = false;
  std::string name;
  for (const std::string& arg : args) {
    if (arg == "--chunk-table") {
      chunk_table = true;
    } else if (arg == "--json") {
      json = true;
    } else if (name.empty()) {
      name = arg;
    } else {
      return usage(kUsage);
    }
  }
  if (name.empty() || (chunk_table && json)) return usage(kUsage);
  auto meta = load_metadata(name);
  if (!meta.is_ok()) return fail(1, meta.status());
  if (json) {
    inspect_json(name, meta.value());
  } else {
    inspect_text(name, meta.value(), chunk_table);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  struct Subcommand {
    const char* name;
    int (*run)(const Args&);
  };
  static constexpr Subcommand kSubcommands[] = {{"stats", run_stats},
                                                {"top", run_top},
                                                {"doctor", run_doctor},
                                                {"inspect", run_inspect}};
  for (const Subcommand& sub : kSubcommands) {
    if (argc >= 2 && std::string_view(argv[1]) == sub.name) {
      g_cmd = std::string("drx ") + sub.name;
      return sub.run(Args(argv + 2, argv + argc));
    }
  }
  return usage("usage: drx stats|top|doctor|inspect [args]\n");
}
