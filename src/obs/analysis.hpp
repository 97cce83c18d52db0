// Pure analysis functions over observability artifacts: metrics
// snapshots, trace JSON, flight dumps and sampled time series. Each
// detector appends Findings; `drx doctor` is a thin CLI over this header,
// and tests drive the detectors directly on synthetic inputs.
//
// The detectors encode the paper's performance story: balanced zone
// partitions (rank imbalance, from the core.zone.rank.<r>.* counters),
// even striping (hot pfs servers, from pfs.server.<i>.bytes; two-phase
// aggregators own whole servers, so this also covers aggregator skew), and
// a cache/read-ahead pipeline that overlaps instead of thrashing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "util/error.hpp"

namespace drx::obs {
class JsonWriter;
struct JsonValue;
}  // namespace drx::obs

namespace drx::obs::analysis {

// ---- findings -------------------------------------------------------------

enum class Severity : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

[[nodiscard]] std::string_view severity_name(Severity s);

struct Finding {
  std::string id;        ///< stable kebab-case detector id
  Severity severity = Severity::kInfo;
  double score = 0.0;    ///< detector magnitude (ratio, fraction, count)
  std::string message;   ///< one human-readable sentence
};

struct Report {
  std::vector<Finding> findings;
};

[[nodiscard]] std::size_t count_severity(const Report& r, Severity s);
[[nodiscard]] bool has_errors(const Report& r);

[[nodiscard]] std::string report_to_text(const Report& r);

/// Emits {"format":"drx-doctor", ...} into a writer position expecting a
/// value (strict JSON, validated in tests with obs::json_validate).
void report_to_json(const Report& r, JsonWriter& w);

// ---- imbalance math -------------------------------------------------------

/// max/mean skew over a per-entity load vector. `ids` (optional, parallel
/// to `values`) names the argmax entity; otherwise argmax is the index.
struct ImbalanceStat {
  std::size_t n = 0;
  double max = 0.0;
  double mean = 0.0;
  double total = 0.0;
  double ratio = 1.0;  ///< max/mean; 1.0 = perfectly balanced
  int argmax = -1;
};

[[nodiscard]] ImbalanceStat imbalance(std::span<const double> values,
                                      std::span<const int> ids = {});

/// Skew across one label family of a snapshot (obs::parse_labelled): the
/// load of index i is counter `<family>.<i>.<metric>`. An index that only
/// carries `<family>.<i>.<presence>` counts as zero load: a zone rank
/// that took part but moved nothing IS the skew. Names whose index is not
/// decimal (the host's core.zone.rank.-1.bytes, ...) are skipped.
[[nodiscard]] ImbalanceStat label_imbalance(const MetricsSnapshot& snap,
                                            std::string_view family,
                                            std::string_view metric,
                                            std::string_view presence = {});

/// Imbalance thresholds shared by all skew detectors.
inline constexpr double kWarnRatio = 1.5;
inline constexpr double kErrorRatio = 4.0;

// ---- metrics detectors ----------------------------------------------------

/// Cache thrash, prefetch effectiveness (issued vs useful vs wasted),
/// dropped trace events, and the label-family skews: rank-imbalance
/// (core.zone.rank.<r>.bytes, participants by .calls), pfs-hot-server
/// (pfs.server.<i>.bytes) and cache-shard-imbalance
/// (core.cache.shard.<i>.accesses). The first two are always emitted when
/// two or more ranks/servers are present (info when balanced), so
/// balanced and skewed runs are comparable.
void analyze_metrics(const MetricsSnapshot& snap, std::vector<Finding>& out);

/// Rebuilds a (counter + histogram count/sum) snapshot from the JSON
/// rendering metrics_to_json produces — the form embedded in bench
/// reports, which `drx doctor` ingests.
[[nodiscard]] MetricsSnapshot metrics_from_json(const JsonValue& doc);

// ---- trace analysis -------------------------------------------------------

struct RankBusy {
  int rank = -1;
  double busy_us = 0.0;  ///< union of span intervals (critical path length)
};

/// One op-summary event (cat "op") from a trace: wall time plus the
/// per-stage attribution recorded by the closing OpScope.
struct OpStat {
  std::string name;
  std::uint64_t op = 0;
  double dur_us = 0.0;
  std::array<double, kStageCount> stage_us{};
  std::string dominant;
  int rank = -1;
};

struct TraceSummary {
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t flows = 0;         ///< submit->dequeue flow arrows ("s" phase)
  std::vector<RankBusy> per_rank;  ///< simulated ranks only (rank >= 0)
  double critical_path_us = 0.0;   ///< max per-rank busy: the straggler
  std::string longest_name;        ///< single longest span
  double longest_dur_us = 0.0;
  int longest_rank = -1;
  std::vector<OpStat> ops;         ///< per-op stage attribution summaries
};

/// Digests a parsed Trace Event Format document (as written by
/// obs::write_trace). Per-rank busy time is the union of that rank's span
/// intervals, so nested spans do not double-count.
[[nodiscard]] Result<TraceSummary> summarize_trace(const JsonValue& doc);

void analyze_trace(const TraceSummary& t, std::vector<Finding>& out);

// ---- flight-recorder analysis ---------------------------------------------

/// One ring record of a "drx-flight" dump (obs/flight.hpp).
struct FlightRecord {
  std::uint64_t seq = 0;
  std::uint64_t op = 0;
  std::uint64_t arg = 0;  ///< an op record's dominant Stage
  double dur_us = 0.0;
  std::string kind;       ///< "span", "op", "flow_out", "flow_in", ...
  std::string name;
  int rank = -1;
};

/// Every record of every thread of a "drx-flight" dump, thread by thread
/// in dump order; empty when the document holds none.
[[nodiscard]] std::vector<FlightRecord> flight_records(const JsonValue& doc);

/// Digests a "drx-flight" post-mortem dump (obs/flight.hpp): reports why
/// and when the dump happened, and reconstructs the causal chain (spans,
/// flow arrows, op summary) of the most recent op on record — the op
/// that was in flight when things went wrong.
void analyze_flight(const JsonValue& doc, std::vector<Finding>& out);

// ---- live-window analysis -------------------------------------------------

/// window-regression thresholds in log2-quantile space: one bucket is a
/// 2x step, so 4x (two buckets) is the smallest movement that cannot be
/// rounding noise, and 8x is unambiguous.
inline constexpr double kRegressWarnRatio = 4.0;
inline constexpr double kRegressErrorRatio = 8.0;

/// Observations below this (in both windows compared) mute the window
/// detectors: quantile math over a handful of samples is noise.
inline constexpr std::uint64_t kWindowMinCount = 16;

/// io-stall: at least this many consecutive epochs with no byte-counter
/// movement, followed by an epoch with some.
inline constexpr std::size_t kStallEpochs = 3;

/// Digests a "drx-window" document (obs/window.hpp): compares the latest
/// completed epoch's latency p95 against the merged trailing-epoch
/// baseline (window-regression, *_us histograms only), and scans the
/// epoch deltas for I/O stalls (io-stall: flush stalls, lost overlap).
void analyze_window(const JsonValue& doc, std::vector<Finding>& out);

}  // namespace drx::obs::analysis
