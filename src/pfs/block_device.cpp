#include "pfs/block_device.hpp"

#include <cstring>

#include "obs/metrics.hpp"

namespace drx::pfs {

Status check_gather(std::uint64_t lo, std::uint64_t hi,
                    std::span<const GatherPiece> pieces, std::uint64_t size) {
  if (lo > hi || hi > size) {
    return Status(ErrorCode::kOutOfRange, "gather range past end of file");
  }
  for (const GatherPiece& p : pieces) {
    if (p.offset < lo || p.offset > hi || p.out.size() > hi - p.offset) {
      return Status(ErrorCode::kOutOfRange, "gather piece outside its range");
    }
  }
  return Status::ok();
}

void BlockDevice::charge(std::uint64_t offset, std::uint64_t nbytes,
                         bool is_write) {
  double us = model_->request_overhead_us + model_->network_latency_us;
  const bool seeked = offset != head_;
  if (seeked) {
    us += model_->seek_us;
    ++stats_.seeks;
  }
  us += static_cast<double>(nbytes) *
        (model_->disk_per_byte_us + model_->network_per_byte_us);
  stats_.busy_us += us;
  head_ = offset + nbytes;
  if (is_write) {
    ++stats_.write_requests;
    stats_.bytes_written += nbytes;
  } else {
    ++stats_.read_requests;
    stats_.bytes_read += nbytes;
  }

  // Device costs are also charged to the *calling rank's* obs registry, so
  // a collective's per-rank trace/metrics carry the seeks and busy-time it
  // caused — the causal link the ad-hoc IoStats never had.
  static const obs::MetricId kReads = obs::counter_id("pfs.read_requests");
  static const obs::MetricId kWrites = obs::counter_id("pfs.write_requests");
  static const obs::MetricId kBytesRead = obs::counter_id("pfs.bytes_read");
  static const obs::MetricId kBytesWritten =
      obs::counter_id("pfs.bytes_written");
  static const obs::MetricId kSeeks = obs::counter_id("pfs.seeks");
  static const obs::MetricId kBusyUs = obs::counter_id("pfs.busy_us");
  static const obs::MetricId kRequestBytes =
      obs::histogram_id("pfs.request_bytes");
  obs::Registry& reg = obs::registry();
  if (seeked) reg.counter(kSeeks).add();
  reg.counter(kBusyUs).add(static_cast<std::uint64_t>(us));
  if (is_write) {
    reg.counter(kWrites).add();
    reg.counter(kBytesWritten).add(nbytes);
  } else {
    reg.counter(kReads).add();
    reg.counter(kBytesRead).add(nbytes);
  }
  reg.histogram(kRequestBytes).observe(nbytes);
}

Status BlockDevice::read(std::uint64_t offset, std::span<std::byte> out) {
  if (offset + out.size() > data_.size()) {
    return Status(ErrorCode::kOutOfRange, "read past end of datafile");
  }
  charge(offset, out.size(), /*is_write=*/false);
  // Empty spans may carry a null data(), which memcpy must never see.
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + offset, out.size());
  }
  return Status::ok();
}

Status BlockDevice::read_gather(std::uint64_t lo, std::uint64_t hi,
                                std::span<const GatherPiece> pieces) {
  DRX_RETURN_IF_ERROR(check_gather(lo, hi, pieces, data_.size()));
  charge(lo, hi - lo, /*is_write=*/false);
  for (const GatherPiece& p : pieces) {
    if (!p.out.empty()) {
      std::memcpy(p.out.data(), data_.data() + p.offset, p.out.size());
    }
  }
  return Status::ok();
}

Status BlockDevice::write(std::uint64_t offset,
                          std::span<const std::byte> data) {
  const std::uint64_t end = offset + data.size();
  if (end > data_.size()) data_.resize(end);  // zero-fills the gap
  charge(offset, data.size(), /*is_write=*/true);
  if (!data.empty()) {
    std::memcpy(data_.data() + offset, data.data(), data.size());
  }
  return Status::ok();
}

Status BlockDevice::truncate(std::uint64_t new_size) {
  data_.resize(new_size);
  if (head_ > new_size) head_ = new_size;
  return Status::ok();
}

}  // namespace drx::pfs
