// drx_doctor — turns observability artifacts into a health report.
//
// Ingests any combination of:
//   --metrics <snapshot.bin>   binary DRX_METRICS snapshot
//   --trace <trace.json>       DRX_TRACE Trace Event Format output
//   --bench <report.json>      DRX_BENCH_JSON report file (one doc/line)
//   --flight <flight.json>     flight-recorder post-mortem dump
//   --window <window.json>     drx-window document: the exporter's
//                              /window.json or a DRX_STATS_SERIES dump
//                              (SLO burn rates, in-window latency
//                              regressions, I/O stalls)
//
// and runs the obs::analysis detectors: rank/server imbalance (from the
// core.zone.rank.<r>.* and pfs.server.<i>.bytes counters of a metrics
// snapshot or bench report), cache thrash, prefetch effectiveness,
// dropped traces, critical path, and I/O stalls. Output is a human
// report, or strict JSON with --json.
//
// Analysis verdicts (imbalance, thrash, stalls) are advisory: a CI job
// should read them, not fail on them — a multi-phase bench legitimately
// accumulates skewed-looking totals. --strict gates only on findings
// that mean the artifacts themselves are untrustworthy (dropped trace
// events); unreadable or malformed inputs always fail with exit 3.
//
// Exit codes: 0 ok; 1 dropped trace events and --strict was given;
// 2 usage; 3 an input file was unreadable or malformed.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace {

using drx::obs::JsonValue;
using drx::obs::analysis::Finding;
using drx::obs::analysis::Report;
using drx::obs::analysis::Severity;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return in.good() || in.eof();
}

int fail_input(const std::string& path, const std::string& why) {
  std::fprintf(stderr, "drx_doctor: %s: %s\n", path.c_str(), why.c_str());
  return 3;
}

int analyze_metrics_file(const std::string& path, Report& report) {
  std::string raw;
  if (!read_file(path, raw)) return fail_input(path, "cannot read");
  auto snap = drx::obs::MetricsSnapshot::deserialize(std::span(
      reinterpret_cast<const std::byte*>(raw.data()), raw.size()));
  if (!snap.is_ok()) return fail_input(path, snap.status().to_string());
  drx::obs::analysis::analyze_metrics(snap.value(), report.findings);
  return 0;
}

int analyze_trace_file(const std::string& path, Report& report) {
  std::string raw;
  if (!read_file(path, raw)) return fail_input(path, "cannot read");
  auto doc = drx::obs::json_parse(raw);
  if (!doc.is_ok()) return fail_input(path, doc.status().to_string());
  auto summary = drx::obs::analysis::summarize_trace(doc.value());
  if (!summary.is_ok()) return fail_input(path, summary.status().to_string());
  drx::obs::analysis::analyze_trace(summary.value(), report.findings);
  return 0;
}

int analyze_flight_file(const std::string& path, Report& report) {
  std::string raw;
  if (!read_file(path, raw)) return fail_input(path, "cannot read");
  auto doc = drx::obs::json_parse(raw);
  if (!doc.is_ok()) return fail_input(path, doc.status().to_string());
  drx::obs::analysis::analyze_flight(doc.value(), report.findings);
  return 0;
}

int analyze_window_file(const std::string& path, Report& report) {
  std::string raw;
  if (!read_file(path, raw)) return fail_input(path, "cannot read");
  auto doc = drx::obs::json_parse(raw);
  if (!doc.is_ok()) return fail_input(path, doc.status().to_string());
  drx::obs::analysis::analyze_window(doc.value(), report.findings);
  return 0;
}

int analyze_bench_file(const std::string& path, Report& report) {
  std::string raw;
  if (!read_file(path, raw)) return fail_input(path, "cannot read");
  // DRX_BENCH_JSON appends one JSON document per line.
  std::istringstream lines(raw);
  std::string line;
  std::size_t benches = 0;
  while (std::getline(lines, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto doc = drx::obs::json_parse(line);
    if (!doc.is_ok()) return fail_input(path, doc.status().to_string());
    ++benches;
    const JsonValue* name = doc.value().find("bench");
    if (const JsonValue* metrics = doc.value().find("metrics");
        metrics != nullptr) {
      const drx::obs::MetricsSnapshot snap =
          drx::obs::analysis::metrics_from_json(*metrics);
      std::vector<Finding> fs;
      drx::obs::analysis::analyze_metrics(snap, fs);
      // Prefix so findings from different bench reports stay attributable.
      for (Finding& f : fs) {
        f.message = std::string(name != nullptr ? name->as_string() : "bench")
                        .append(": ")
                        .append(f.message);
        report.findings.push_back(std::move(f));
      }
    }
  }
  if (benches == 0) return fail_input(path, "no bench report lines");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: drx_doctor [--json] [--strict]\n"
               "                  [--metrics <snapshot.bin>]\n"
               "                  [--trace <trace.json>]\n"
               "                  [--bench <report.json>]\n"
               "                  [--flight <flight.json>]\n"
               "                  [--window <window.json>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool strict = false;
  std::vector<std::pair<std::string, std::string>> inputs;  // (kind, path)
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--metrics" || arg == "--trace" || arg == "--bench" ||
               arg == "--flight" || arg == "--window") {
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      inputs.emplace_back(arg.substr(2), argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  Report report;
  for (const auto& [kind, path] : inputs) {
    int rc = 0;
    if (kind == "metrics") rc = analyze_metrics_file(path, report);
    if (kind == "trace") rc = analyze_trace_file(path, report);
    if (kind == "bench") rc = analyze_bench_file(path, report);
    if (kind == "flight") rc = analyze_flight_file(path, report);
    if (kind == "window") rc = analyze_window_file(path, report);
    if (rc != 0) return rc;
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
    drx::obs::JsonWriter w;
    drx::obs::analysis::report_to_json(report, w);
    std::printf("%s\n", w.str().c_str());
  } else {
    std::fputs(drx::obs::analysis::report_to_text(report).c_str(), stdout);
  }
  if (strict) {
    for (const Finding& f : report.findings) {
      if (f.id == "trace-dropped") {
        std::fprintf(stderr,
                     "drx_doctor: --strict: trace events were dropped\n");
        return 1;
      }
    }
  }
  return 0;
}
