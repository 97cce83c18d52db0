// Shared helpers for the experiment harness: aligned table printing and
// simulated-time measurement around PFS phases.
//
// Each bench binary regenerates one experiment from DESIGN.md §4.2 and
// prints a self-contained table; absolute numbers come from the PFS cost
// model (DESIGN.md §2), so only the *shapes* — who wins, by what factor,
// where crossovers fall — are meaningful.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pfs/pfs.hpp"
#include "simpi/comm.hpp"

namespace drx::bench {

/// printf-append into a std::string.
inline std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[256];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

/// Minimal fixed-width table writer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("| ");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf("%-*s | ", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

  [[nodiscard]] const std::vector<std::string>& headers() const noexcept {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows()
      const noexcept {
    return rows_;
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Machine-readable bench output: when DRX_BENCH_JSON=<path> is set,
/// appends one JSON document per call — the result table plus a snapshot
/// of the obs metrics registry (rank registries have already folded into
/// the process registry once simpi::run returns, so the snapshot covers
/// the whole experiment). No-op when the variable is unset.
inline void write_json_report(const std::string& bench_name,
                              const Table& table) {
  const char* path = std::getenv("DRX_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value(bench_name);
  w.key("table").begin_object();
  w.key("headers").begin_array();
  for (const auto& h : table.headers()) w.value(h);
  w.end_array();
  w.key("rows").begin_array();
  for (const auto& row : table.rows()) {
    w.begin_array();
    for (const auto& cell : row) w.value(cell);
    w.end_array();
  }
  w.end_array();
  w.end_object();
  w.key("metrics");
  obs::metrics_to_json(obs::registry().snapshot(), w);
  w.end_object();
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write DRX_BENCH_JSON=%s\n", path);
    return;
  }
  out << w.str() << '\n';
}

/// Captures per-server stats around a multi-rank phase and reports
/// simulated elapsed time (max per-server busy delta) plus aggregate
/// deltas. Construct it on every rank after the previous phase's barrier:
/// it snapshots, then barriers, so no rank's I/O in the phase can reach
/// the PFS before every rank has its "before" snapshot (independent I/O
/// needs this; two-phase I/O happens to allreduce first).
class PfsPhase {
 public:
  PfsPhase(const pfs::Pfs& fs, simpi::Comm& comm)
      : fs_(&fs), before_(fs.server_stats()) {
    comm.barrier();
  }

  [[nodiscard]] double elapsed_ms() const {
    return pfs::Pfs::phase_elapsed_us(before_, fs_->server_stats()) / 1000.0;
  }

  [[nodiscard]] pfs::IoStats delta() const {
    pfs::IoStats total;
    const auto after = fs_->server_stats();
    for (std::size_t i = 0; i < after.size(); ++i) {
      total += after[i] - before_[i];
    }
    return total;
  }

 private:
  const pfs::Pfs* fs_;
  std::vector<pfs::IoStats> before_;
};

}  // namespace drx::bench
