#include "pfs/pfs.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"

namespace drx::pfs {

/// An I/O server: a service point that handles one request at a time.
/// The mutex guards the server's slice of every file: each (file, server)
/// datafile in FileHandle::State, which GUARDED_BY cannot express across
/// structs (the static contract lives in the access pattern below: every
/// datafiles[s] touch holds servers[s]->mu).
struct Pfs::Server {
  explicit Server(int index)
      : bytes(obs::counter_id("pfs.server." + std::to_string(index) +
                              ".bytes")) {}

  // drx-verify: allow(unannotated-mutex-member) guards fields of another struct
  util::Mutex mu;
  /// pfs.server.<i>.bytes: bytes read or written on this server (the
  /// pfs-hot-server detector's input).
  const obs::MetricId bytes;
};

/// Striped file state: one datafile (BlockDevice) per server, plus the
/// logical size. Holds shared ownership of the servers so handles stay
/// valid for the life of the Pfs.
struct FileHandle::State {
  State(const PfsConfig& config,
        std::vector<std::shared_ptr<Pfs::Server>> srv)
      : cost(config.cost), stripe(config.stripe_size), servers(std::move(srv)) {
    datafiles.reserve(servers.size());
    for (std::size_t i = 0; i < servers.size(); ++i) {
      datafiles.push_back(std::make_unique<BlockDevice>(&cost));
    }
  }

  CostModel cost;
  std::uint64_t stripe;
  std::vector<std::shared_ptr<Pfs::Server>> servers;
  std::vector<std::unique_ptr<BlockDevice>> datafiles;

  util::Mutex size_mu;
  std::uint64_t logical_size DRX_GUARDED_BY(size_mu) = 0;

  /// One scatter/gather piece of a server request: `length` bytes at
  /// `buf_offset` in the caller's buffer.
  struct Piece {
    std::uint64_t buf_offset;
    std::uint64_t length;
  };

  /// One request to one server: a locally-contiguous datafile range served
  /// by a single device access, gathered from / scattered to possibly
  /// discontiguous caller-buffer pieces (the iovec a real PFS client
  /// ships with the request).
  struct Segment {
    std::size_t server;
    std::uint64_t local_offset;  ///< offset within the server's datafile
    std::uint64_t length;
    std::vector<Piece> pieces;
  };

  /// One device access reading [lo, hi) of `server`'s datafile, which
  /// copies only `pieces` (BlockDevice::read_gather). The range may cross
  /// a sparse hole whose stripes were never materialized on this server;
  /// holes read as zeros, and growing the datafile over them allocates
  /// nothing.
  [[nodiscard]] Status read_datafile(std::size_t server, std::uint64_t lo,
                                     std::uint64_t hi,
                                     std::span<const GatherPiece> pieces) {
    obs::registry().counter(servers[server]->bytes).add(hi - lo);
    obs::ScopedSpan seg_span("pfs.server_read", "pfs", hi - lo);
    util::MutexLock lock(servers[server]->mu);
    BlockDevice& device = *datafiles[server];
    if (hi > device.size()) DRX_RETURN_IF_ERROR(device.truncate(hi));
    return device.read_gather(lo, hi, pieces);
  }

  /// One device access on `server`'s datafile; a gap before it reads
  /// as zeros.
  [[nodiscard]] Status write_datafile(std::size_t server, std::uint64_t local,
                                      std::span<const std::byte> data) {
    obs::registry().counter(servers[server]->bytes).add(data.size());
    obs::ScopedSpan seg_span("pfs.server_write", "pfs", data.size());
    util::MutexLock lock(servers[server]->mu);
    return datafiles[server]->write(local, data);
  }

  void grow_logical_size(std::uint64_t end) {
    util::MutexLock lock(size_mu);
    logical_size = std::max(logical_size, end);
  }

  [[nodiscard]] Location locate(std::uint64_t offset) const {
    const std::uint64_t n = servers.size();
    const std::uint64_t stripe_idx = offset / stripe;
    const std::uint64_t within = offset % stripe;
    return Location{static_cast<std::size_t>(stripe_idx % n),
                    (stripe_idx / n) * stripe + within, stripe - within};
  }

  /// Splits a global byte range at stripe boundaries and coalesces
  /// locally-contiguous runs per server (one request per run, as a real
  /// PFS client would issue). Runs of different servers interleave in the
  /// global range, so each run's buffer pieces are discontiguous.
  [[nodiscard]] std::vector<Segment> map_range(std::uint64_t offset,
                                               std::uint64_t length) const {
    std::vector<Segment> segs;
    // Index of the open segment per server, or npos.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> open(servers.size(), kNone);
    std::uint64_t pos = offset;
    std::uint64_t remaining = length;
    std::uint64_t buf = 0;
    while (remaining > 0) {
      const Location at = locate(pos);
      const std::uint64_t take = std::min(remaining, at.stripe_left);
      std::size_t& idx = open[at.server];
      if (idx != kNone &&
          segs[idx].local_offset + segs[idx].length == at.local) {
        segs[idx].length += take;
        segs[idx].pieces.push_back(Piece{buf, take});
      } else {
        idx = segs.size();
        segs.push_back(
            Segment{at.server, at.local, take, {Piece{buf, take}}});
      }
      pos += take;
      buf += take;
      remaining -= take;
    }
    return segs;
  }
};

Status FileHandle::read_at(std::uint64_t offset, std::span<std::byte> out) {
  DRX_CHECK(valid());
  obs::ScopedSpan span("pfs.read", "pfs", out.size());
  obs::StageTimer io(obs::Stage::kIoService);
  {
    util::MutexLock lock(state_->size_mu);
    if (checked_add(offset, out.size()) > state_->logical_size) {
      return Status(ErrorCode::kOutOfRange, "read past end of file");
    }
  }
  std::vector<GatherPiece> gather;
  for (const auto& seg : state_->map_range(offset, out.size())) {
    gather.clear();
    std::uint64_t local = seg.local_offset;
    for (const auto& piece : seg.pieces) {
      gather.push_back(GatherPiece{
          local, out.subspan(checked_size(piece.buf_offset),
                             checked_size(piece.length))});
      local += piece.length;
    }
    DRX_RETURN_IF_ERROR(state_->read_datafile(
        seg.server, seg.local_offset, seg.local_offset + seg.length, gather));
  }
  return Status::ok();
}

Status FileHandle::write_at(std::uint64_t offset,
                            std::span<const std::byte> data) {
  DRX_CHECK(valid());
  obs::ScopedSpan span("pfs.write", "pfs", data.size());
  obs::StageTimer io(obs::Stage::kIoService);
  std::vector<std::byte> staging;
  for (const auto& seg : state_->map_range(offset, data.size())) {
    staging.resize(checked_size(seg.length));
    std::uint64_t run = 0;
    for (const auto& piece : seg.pieces) {
      std::memcpy(staging.data() + run, data.data() + piece.buf_offset,
                  checked_size(piece.length));
      run += piece.length;
    }
    DRX_RETURN_IF_ERROR(
        state_->write_datafile(seg.server, seg.local_offset, staging));
  }
  state_->grow_logical_size(checked_add(offset, data.size()));
  return Status::ok();
}

Location FileHandle::locate(std::uint64_t offset) const {
  DRX_CHECK(valid());
  return state_->locate(offset);
}

Status FileHandle::read_local(std::size_t server, std::uint64_t lo,
                              std::uint64_t hi,
                              std::span<const GatherPiece> pieces) {
  DRX_CHECK(valid());
  DRX_CHECK(server < state_->servers.size());
  DRX_CHECK(lo <= hi);
  obs::ScopedSpan span("pfs.read", "pfs", hi - lo);
  obs::StageTimer io(obs::Stage::kIoService);
  return state_->read_datafile(server, lo, hi, pieces);
}

Status FileHandle::write_local(std::size_t server, std::uint64_t local,
                               std::span<const std::byte> data,
                               std::uint64_t file_end) {
  DRX_CHECK(valid());
  DRX_CHECK(server < state_->servers.size());
  obs::ScopedSpan span("pfs.write", "pfs", data.size());
  obs::StageTimer io(obs::Stage::kIoService);
  DRX_RETURN_IF_ERROR(state_->write_datafile(server, local, data));
  state_->grow_logical_size(file_end);
  return Status::ok();
}

std::uint64_t FileHandle::size() const {
  DRX_CHECK(valid());
  util::MutexLock lock(state_->size_mu);
  return state_->logical_size;
}

Status FileHandle::truncate(std::uint64_t new_size) {
  DRX_CHECK(valid());
  util::MutexLock size_lock(state_->size_mu);
  // Resize every datafile to exactly the portion of new_size it holds;
  // growth materializes no bytes (the datafiles are sparse).
  for (std::size_t s = 0; s < state_->servers.size(); ++s) {
    util::MutexLock lock(state_->servers[s]->mu);
    const std::uint64_t n = state_->servers.size();
    const std::uint64_t full_stripes = new_size / state_->stripe;
    const std::uint64_t rem = new_size % state_->stripe;
    std::uint64_t local = (full_stripes / n) * state_->stripe;
    const std::uint64_t last_server = full_stripes % n;
    if (s < last_server) local += state_->stripe;
    if (s == last_server) local += rem;
    DRX_RETURN_IF_ERROR(state_->datafiles[s]->truncate(local));
  }
  state_->logical_size = new_size;
  return Status::ok();
}

std::uint64_t FileHandle::resident_bytes(std::size_t server) const {
  DRX_CHECK(valid());
  DRX_CHECK(server < state_->servers.size());
  util::MutexLock lock(state_->servers[server]->mu);
  return state_->datafiles[server]->resident_bytes();
}

std::uint64_t FileHandle::stripe_size() const {
  DRX_CHECK(valid());
  return state_->stripe;
}

Pfs::Pfs(PfsConfig config) : config_(config) {
  DRX_CHECK(config_.num_servers >= 1);
  DRX_CHECK(config_.stripe_size >= 1);
  servers_.reserve(static_cast<std::size_t>(config_.num_servers));
  for (int i = 0; i < config_.num_servers; ++i) {
    servers_.push_back(std::make_unique<Server>(i));
  }
}

Pfs::~Pfs() = default;

Result<FileHandle> Pfs::create(const std::string& name, bool overwrite) {
  util::MutexLock lock(ns_mu_);
  if (files_.contains(name) && !overwrite) {
    return Status(ErrorCode::kAlreadyExists, "file exists: " + name);
  }
  std::vector<std::shared_ptr<Server>> shared_servers;
  shared_servers.reserve(servers_.size());
  for (auto& s : servers_) {
    shared_servers.push_back(
        std::shared_ptr<Server>(s.get(), [](Server*) {}));
  }
  auto state = std::make_shared<FileHandle::State>(
      config_, std::move(shared_servers));
  files_[name] = state;
  return FileHandle(state);
}

Result<FileHandle> Pfs::open(const std::string& name) {
  util::MutexLock lock(ns_mu_);
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status(ErrorCode::kNotFound, "no such file: " + name);
  }
  return FileHandle(it->second);
}

bool Pfs::exists(const std::string& name) const {
  util::MutexLock lock(ns_mu_);
  return files_.contains(name);
}

Status Pfs::remove(const std::string& name) {
  util::MutexLock lock(ns_mu_);
  if (files_.erase(name) == 0) {
    return Status(ErrorCode::kNotFound, "no such file: " + name);
  }
  return Status::ok();
}

std::vector<std::string> Pfs::list() const {
  util::MutexLock lock(ns_mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, _] : files_) names.push_back(name);
  return names;
}

std::vector<IoStats> Pfs::server_stats() const {
  util::MutexLock lock(ns_mu_);
  std::vector<IoStats> stats(servers_.size());
  for (const auto& [_, state] : files_) {
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      util::MutexLock server_lock(servers_[s]->mu);
      stats[s] += state->datafiles[s]->stats();
    }
  }
  return stats;
}

IoStats Pfs::total_stats() const {
  IoStats total;
  for (const IoStats& s : server_stats()) total += s;
  return total;
}

double Pfs::phase_elapsed_us(const std::vector<IoStats>& before,
                             const std::vector<IoStats>& after) {
  DRX_CHECK(before.size() == after.size());
  double max_us = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    max_us = std::max(max_us, after[i].busy_us - before[i].busy_us);
  }
  return max_us;
}

}  // namespace drx::pfs
