// The parallel file system simulator (PVFS2-equivalent substrate).
//
// A Pfs instance models one file system deployment: a set of I/O servers
// and a namespace of striped files. Each file is divided into fixed-size
// stripes distributed round-robin over the servers; each (file, server)
// pair is a private *datafile* (a BlockDevice), exactly as PVFS2 lays data
// out; datafiles are sparse, so a stripe never written holds no memory.
// Client requests are split at stripe boundaries, serviced per server
// under a per-server lock, and charged to that server's simulated clock.
//
// Thread model: every method is safe to call concurrently from simpi
// rank-threads; per-server mutexes serialize device access (a real server
// services one request at a time), and a namespace mutex guards the file
// table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pfs/block_device.hpp"
#include "pfs/cost_model.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace drx::pfs {

struct PfsConfig {
  int num_servers = 4;
  std::uint64_t stripe_size = 64 * 1024;
  CostModel cost;
};

class Pfs;

/// Where a global file byte lives under the striping layout.
struct Location {
  std::size_t server;         ///< I/O server holding the byte
  std::uint64_t local;        ///< offset within that server's datafile
  std::uint64_t stripe_left;  ///< bytes from here to the end of the stripe
};

/// An open striped file. Cheap handle; the state lives in the Pfs.
class FileHandle {
 public:
  FileHandle() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Reads [offset, offset+out.size()); fails past EOF.
  [[nodiscard]] Status read_at(std::uint64_t offset, std::span<std::byte> out);

  /// Writes, extending as needed; a gap before the data reads as zeros.
  [[nodiscard]] Status write_at(std::uint64_t offset, std::span<const std::byte> data);

  /// The server and datafile offset of global byte `offset`.
  [[nodiscard]] Location locate(std::uint64_t offset) const;

  /// Reads [lo, hi) of `server`'s datafile in one device access, charged
  /// for hi - lo bytes, and copies only `pieces` (each inside [lo, hi);
  /// BlockDevice::read_gather). Holes read as zeros; the caller checks
  /// the logical size.
  [[nodiscard]] Status read_local(std::size_t server, std::uint64_t lo,
                                  std::uint64_t hi,
                                  std::span<const GatherPiece> pieces);

  /// Writes `data` at `local` in `server`'s datafile in one device access,
  /// then grows the logical size to at least `file_end` (the global end
  /// offset of the bytes written).
  [[nodiscard]] Status write_local(std::size_t server, std::uint64_t local,
                                   std::span<const std::byte> data,
                                   std::uint64_t file_end);

  [[nodiscard]] std::uint64_t size() const;
  [[nodiscard]] Status truncate(std::uint64_t new_size);

  [[nodiscard]] std::uint64_t stripe_size() const;

  /// Bytes `server`'s datafile holds in allocated pages (tests and
  /// diagnostics; see BlockDevice::resident_bytes).
  [[nodiscard]] std::uint64_t resident_bytes(std::size_t server) const;

 private:
  friend class Pfs;
  struct State;
  explicit FileHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

class Pfs {
 public:
  explicit Pfs(PfsConfig config);
  ~Pfs();

  Pfs(const Pfs&) = delete;
  Pfs& operator=(const Pfs&) = delete;

  Result<FileHandle> create(const std::string& name, bool overwrite = false);
  [[nodiscard]] Result<FileHandle> open(const std::string& name);
  [[nodiscard]] bool exists(const std::string& name) const;
  [[nodiscard]] Status remove(const std::string& name);
  [[nodiscard]] std::vector<std::string> list() const;

  [[nodiscard]] int num_servers() const noexcept {
    return config_.num_servers;
  }
  [[nodiscard]] const PfsConfig& config() const noexcept { return config_; }

  /// Per-server statistics snapshot (index = server id).
  [[nodiscard]] std::vector<IoStats> server_stats() const;

  /// Sum of per-server stats.
  [[nodiscard]] IoStats total_stats() const;

  /// Simulated elapsed time of the phase between two snapshots: the
  /// maximum per-server busy-time delta (servers work in parallel; the
  /// busiest one gates completion).
  static double phase_elapsed_us(const std::vector<IoStats>& before,
                                 const std::vector<IoStats>& after);

  struct Server;  ///< implementation detail, public for FileHandle::State

 private:

  PfsConfig config_;
  std::vector<std::unique_ptr<Server>> servers_;

  mutable util::Mutex ns_mu_;
  std::map<std::string, std::shared_ptr<FileHandle::State>> files_
      DRX_GUARDED_BY(ns_mu_);
};

}  // namespace drx::pfs
