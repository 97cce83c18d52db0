// drx_stats — renders DRX metrics snapshots and validates emitted JSON.
//
// Usage:
//   drx_stats <snapshot>            # text table (snapshot written via
//                                   # DRX_METRICS=<path>)
//   drx_stats --json <snapshot>     # same snapshot as a JSON object
//   drx_stats --diff <a> <b>        # per-metric delta table b - a
//                                   # (--json for machine-readable form)
//   drx_stats --check-json <file>   # exit 0 iff <file> is well-formed JSON
//                                   # or JSON-lines (CI validates DRX_TRACE
//                                   # and DRX_BENCH_JSON output with this)
//   drx_stats --top <N> <file>      # N slowest ops with per-stage latency
//                                   # breakdown, from a DRX_TRACE trace or
//                                   # a drx-flight dump (flight records
//                                   # carry only the dominant stage)
//
// Live telemetry from a running process is drx_top's job (it renders
// the exporter's windowed view, counters included, as rates).
//
// The JSON rendering is the same one the bench JSON reports use
// (obs::metrics_to_json), so every surface prints metrics identically.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"

namespace {

bool read_file(const std::string& path, std::vector<char>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  in.seekg(0, std::ios::beg);
  out.resize(static_cast<std::size_t>(size));
  in.read(out.data(), size);
  return static_cast<bool>(in);
}

int check_json(const std::string& path) {
  std::vector<char> text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  const std::string_view whole(text.data(), text.size());
  if (drx::obs::json_validate(whole)) {
    std::printf("%s: valid JSON (%zu bytes)\n", path.c_str(), text.size());
    return 0;
  }
  // DRX_BENCH_JSON files are JSON-lines: each bench table appends one
  // document per line, so a multi-table run is not a single document.
  std::size_t records = 0;
  std::string_view rest = whole;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{}
                                        : rest.substr(nl + 1);
    if (line.empty()) continue;
    if (!drx::obs::json_validate(line)) {
      std::fprintf(stderr, "error: %s is not well-formed JSON\n",
                   path.c_str());
      return 1;
    }
    ++records;
  }
  if (records == 0) {
    std::fprintf(stderr, "error: %s is not well-formed JSON\n", path.c_str());
    return 1;
  }
  std::printf("%s: valid JSON lines (%zu records, %zu bytes)\n", path.c_str(),
              records, text.size());
  return 0;
}

int render(const std::string& path, bool json) {
  std::vector<char> raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  auto snap = drx::obs::MetricsSnapshot::deserialize(std::span(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  if (!snap.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 snap.status().to_string().c_str());
    return 1;
  }
  if (json) {
    drx::obs::JsonWriter w;
    drx::obs::metrics_to_json(snap.value(), w);
    std::printf("%s\n", w.str().c_str());
  } else {
    std::fputs(drx::obs::metrics_to_text(snap.value()).c_str(), stdout);
  }
  return 0;
}

drx::Result<drx::obs::MetricsSnapshot> load_snapshot(
    const std::string& path) {
  std::vector<char> raw;
  if (!read_file(path, raw)) {
    return drx::Status(drx::ErrorCode::kIoError, "cannot read " + path);
  }
  return drx::obs::MetricsSnapshot::deserialize(std::span(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
}

/// Prints the per-metric delta b - a.
int diff(const std::string& a_path, const std::string& b_path, bool json) {
  auto a_snap = load_snapshot(a_path);
  auto b_snap = load_snapshot(b_path);
  for (const auto* r : {&a_snap, &b_snap}) {
    if (!r->is_ok()) {
      std::fprintf(stderr, "error: %s\n", r->status().to_string().c_str());
      return 1;
    }
  }
  const drx::obs::MetricsSnapshot& a = a_snap.value();
  const drx::obs::MetricsSnapshot& b = b_snap.value();
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
  const auto hist_of = [](const drx::obs::MetricsSnapshot& s,
                          const std::string& name)
      -> const drx::obs::HistogramSample* {
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
    drx::obs::JsonWriter w;
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

/// Ops from a drx-flight dump: every kind=="op" ring record. Flight
/// records are fixed-size, so only the dominant stage (the record's
/// `arg`) survives, not the full per-stage breakdown.
std::vector<drx::obs::analysis::OpStat> flight_ops(
    const drx::obs::JsonValue& doc) {
  std::vector<drx::obs::analysis::OpStat> ops;
  const drx::obs::JsonValue* threads = doc.find("threads");
  if (threads == nullptr || !threads->is_array()) return ops;
  for (const auto& t : threads->array) {
    const drx::obs::JsonValue* records = t.find("records");
    if (records == nullptr || !records->is_array()) continue;
    for (const auto& r : records->array) {
      const drx::obs::JsonValue* kind = r.find("kind");
      if (kind == nullptr || kind->as_string() != "op") continue;
      drx::obs::analysis::OpStat op;
      const drx::obs::JsonValue* name = r.find("name");
      op.name = name != nullptr ? std::string(name->as_string()) : "?";
      op.op = r.uint_at("op");
      op.dur_us = r.number_at("dur_ns") / 1000.0;
      op.rank = static_cast<int>(r.number_at("rank", -1.0));
      const auto dom = r.uint_at("arg");
      if (dom < drx::obs::kStageCount) {
        op.dominant =
            drx::obs::stage_name(static_cast<drx::obs::Stage>(dom));
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

int top_ops(const std::string& path, std::size_t n) {
  std::vector<char> raw;
  if (!read_file(path, raw)) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 1;
  }
  auto doc =
      drx::obs::json_parse(std::string_view(raw.data(), raw.size()));
  if (!doc.is_ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 doc.status().to_string().c_str());
    return 1;
  }

  std::vector<drx::obs::analysis::OpStat> ops;
  bool from_flight = false;
  if (doc.value().find("traceEvents") != nullptr) {
    auto summary = drx::obs::analysis::summarize_trace(doc.value());
    if (!summary.is_ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   summary.status().to_string().c_str());
      return 1;
    }
    ops = std::move(summary.value().ops);
  } else if (const auto* fmt = doc.value().find("format");
             fmt != nullptr && fmt->as_string() == "drx-flight") {
    ops = flight_ops(doc.value());
    from_flight = true;
  } else {
    std::fprintf(stderr,
                 "error: %s is neither a trace (traceEvents) nor a "
                 "drx-flight dump\n",
                 path.c_str());
    return 1;
  }

  std::stable_sort(ops.begin(), ops.end(),
                   [](const auto& a, const auto& b) {
                     return a.dur_us > b.dur_us;
                   });
  if (ops.size() > n) ops.resize(n);

  std::printf("top %zu op(s) by wall time from %s:\n", ops.size(),
              path.c_str());
  std::printf("%-24s %6s %5s %10s", "op", "id", "rank", "wall us");
  if (!from_flight) {
    for (std::size_t s = 0; s < drx::obs::kStageCount; ++s) {
      std::printf(" %10s",
                  drx::obs::stage_name(static_cast<drx::obs::Stage>(s)));
    }
  }
  std::printf(" %10s\n", "dominant");
  for (const auto& op : ops) {
    std::printf("%-24s %6llu %5d %10.1f", op.name.c_str(),
                static_cast<unsigned long long>(op.op), op.rank, op.dur_us);
    if (!from_flight) {
      for (const double us : op.stage_us) std::printf(" %10.1f", us);
    }
    std::printf(" %10s\n",
                op.dominant.empty() ? "?" : op.dominant.c_str());
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: drx_stats [--json] <snapshot>\n"
               "       drx_stats [--json] --diff <a> <b>\n"
               "       drx_stats --check-json <file>\n"
               "       drx_stats --top <N> <trace.json|flight.json>\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool check = false;
  bool do_diff = false;
  long top_n = 0;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--check-json") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      do_diff = true;
    } else if (std::strcmp(argv[i], "--top") == 0) {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      char* end = nullptr;
      top_n = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || top_n <= 0) {
        usage();
        return 2;
      }
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (top_n != 0) {
    if (paths.size() != 1 || json || check || do_diff) {
      usage();
      return 2;
    }
    return top_ops(paths[0], static_cast<std::size_t>(top_n));
  }
  if (do_diff) {
    if (paths.size() != 2 || check) {
      usage();
      return 2;
    }
    return diff(paths[0], paths[1], json);
  }
  if (paths.size() != 1 || (json && check)) {
    usage();
    return 2;
  }
  return check ? check_json(paths[0]) : render(paths[0], json);
}
