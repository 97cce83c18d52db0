#include "pfs/block_device.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "obs/metrics.hpp"
#include "util/checked.hpp"

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

std::uint64_t BlockDevice::resident_bytes() const noexcept {
  const auto live =
      std::count_if(pages_.begin(), pages_.end(),
                    [](const auto& page) { return page != nullptr; });
  return static_cast<std::uint64_t>(live) * kPageBytes;
}

void BlockDevice::copy_out(std::uint64_t offset,
                           std::span<std::byte> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t page = pos / kPageBytes;
    const std::size_t within = pos % kPageBytes;
    const std::size_t take = std::min(out.size() - done, kPageBytes - within);
    std::byte* dst = out.data() + done;
    if (page < pages_.size() && pages_[page] != nullptr) {
      std::memcpy(dst, pages_[page].get() + within, take);
    } else {
      std::memset(dst, 0, take);
    }
    done += take;
  }
}

Status BlockDevice::read(std::uint64_t offset, std::span<std::byte> out) {
  const std::optional<std::uint64_t> end = try_add(offset, out.size());
  if (!end) {
    return Status(ErrorCode::kOutOfRange, "read past the largest offset");
  }
  const GatherPiece whole{offset, out};
  return read_gather(offset, *end, {&whole, 1});
}

Status BlockDevice::read_gather(std::uint64_t lo, std::uint64_t hi,
                                std::span<const GatherPiece> pieces) {
  DRX_RETURN_IF_ERROR(check_gather(lo, hi, pieces, size_));
  charge(lo, hi - lo, /*is_write=*/false);
  for (const GatherPiece& p : pieces) copy_out(p.offset, p.out);
  return Status::ok();
}

Status BlockDevice::write(std::uint64_t offset,
                          std::span<const std::byte> data) {
  const std::optional<std::uint64_t> end = try_add(offset, data.size());
  if (!end) {
    return Status(ErrorCode::kOutOfRange, "write past the largest offset");
  }
  charge(offset, data.size(), /*is_write=*/true);
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::size_t index = checked_size(pos / kPageBytes);
    const std::size_t within = pos % kPageBytes;
    const std::size_t take = std::min(data.size() - done, kPageBytes - within);
    if (index >= pages_.size()) pages_.resize(index + 1);
    std::unique_ptr<std::byte[]>& page = pages_[index];
    if (page == nullptr) page = std::make_unique<std::byte[]>(kPageBytes);
    std::memcpy(page.get() + within, data.data() + done, take);
    done += take;
  }
  size_ = std::max(size_, *end);
  return Status::ok();
}

Status BlockDevice::truncate(std::uint64_t new_size) {
  if (new_size < size_) {
    const std::uint64_t keep = ceil_div(new_size, kPageBytes);
    if (pages_.size() > keep) pages_.resize(checked_size(keep));
    const std::size_t tail = new_size % kPageBytes;
    if (tail != 0 && keep <= pages_.size() && pages_[keep - 1] != nullptr) {
      std::memset(pages_[keep - 1].get() + tail, 0, kPageBytes - tail);
    }
  }
  size_ = new_size;
  if (head_ > new_size) head_ = new_size;
  return Status::ok();
}

}  // namespace drx::pfs
