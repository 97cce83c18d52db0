// Deterministic I/O cost model for the PFS simulator.
//
// The reproduction environment has one CPU core and no cluster, so the
// performance axis of every experiment is *simulated* service time: each
// I/O server accumulates busy-time per the model below, and a parallel
// phase costs the maximum busy-time across servers (the straggler).
// The model captures exactly the effects the paper reasons about — seeks
// caused by discontiguous access, bandwidth proportional to bytes, and
// per-request overheads that collective I/O amortizes.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace drx::pfs {

struct CostModel {
  /// Head reposition cost charged when a request's offset differs from the
  /// current head position of the datafile (avg seek + rotational delay).
  double seek_us = 8000.0;

  /// Per-byte transfer cost; 0.01 us/byte == 100 MB/s disk streaming.
  double disk_per_byte_us = 0.01;

  /// Fixed server-side cost per request (syscall, queueing, metadata).
  double request_overhead_us = 50.0;

  /// Client<->server round-trip latency charged once per request.
  double network_latency_us = 100.0;

  /// Per-byte network cost; 0.001 us/byte == 1 GB/s interconnect.
  double network_per_byte_us = 0.001;

  /// Data-sieving break-even: a read that crosses a hole of h < this many
  /// bytes costs less than the separate request (and seek) it saves,
  /// i.e. h * per-byte cost < seek + request overhead + latency. About
  /// 724 KiB under the defaults; 0 when a request costs nothing fixed.
  [[nodiscard]] std::uint64_t sieve_gap_bytes() const {
    const double fixed = seek_us + request_overhead_us + network_latency_us;
    const double per_byte = disk_per_byte_us + network_per_byte_us;
    if (fixed <= 0.0) return 0;
    const double gap = per_byte > 0.0 ? std::ceil(fixed / per_byte) : 0x1p64;
    return gap >= 0x1p64 ? std::numeric_limits<std::uint64_t>::max()
                         : static_cast<std::uint64_t>(gap);
  }
};

/// Counters exposed per server and aggregated per file system.
struct IoStats {
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t seeks = 0;
  double busy_us = 0.0;  ///< accumulated service time under the cost model

  IoStats& operator+=(const IoStats& o) {
    read_requests += o.read_requests;
    write_requests += o.write_requests;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    seeks += o.seeks;
    busy_us += o.busy_us;
    return *this;
  }
  friend IoStats operator-(IoStats a, const IoStats& b) {
    a.read_requests -= b.read_requests;
    a.write_requests -= b.write_requests;
    a.bytes_read -= b.bytes_read;
    a.bytes_written -= b.bytes_written;
    a.seeks -= b.seeks;
    a.busy_us -= b.busy_us;
    return a;
  }
};

}  // namespace drx::pfs
