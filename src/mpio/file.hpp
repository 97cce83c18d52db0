// MPI-IO style parallel file access over simpi + the PFS simulator.
//
// Mirrors the MPI_File_* subset the paper's code listing uses, plus the
// collective read/write DRX-MP is built on:
//   open/close (collective), set_view, seek, read/write (+_at variants),
//   read_all/write_all (+_at_all) with two-phase collective buffering,
//   get_size/set_size/sync.
//
// Offsets follow MPI-IO semantics: explicit offsets and the individual
// file pointer are in units of the view's *etype*; the view's filetype is
// tiled from the displacement onward.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "mpio/file_view.hpp"
#include "pfs/pfs.hpp"
#include "simpi/comm.hpp"
#include "simpi/datatype.hpp"

namespace drx::mpio {

/// Open-mode bits (MPI_MODE_*).
enum ModeBits : int {
  kModeRdOnly = 1,
  kModeWrOnly = 2,
  kModeRdWr = 4,
  kModeCreate = 8,
  kModeExcl = 16,
  kModeDeleteOnClose = 32,
};

class File {
 public:
  File() = default;

  /// Collective open across `comm`.
  [[nodiscard]] static Result<File> open(simpi::Comm& comm, pfs::Pfs& fs,
                           const std::string& name, int mode);

  /// Collective close. Under kModeDeleteOnClose rank 0 removes the file
  /// and every rank returns rank 0's status; the handle closes either way.
  [[nodiscard]] Status close();

  [[nodiscard]] bool is_open() const noexcept { return state_ != nullptr; }

  /// Sets this rank's view (MPI_File_set_view). Resets the individual
  /// file pointer to 0. Collective in MPI; each rank may pass a different
  /// filetype, so no synchronization is required here beyond the caller
  /// invoking it everywhere.
  void set_view(std::uint64_t disp, const simpi::Datatype& etype,
                const simpi::Datatype& filetype);

  [[nodiscard]] const FileView& view() const;

  // ---- independent I/O -------------------------------------------------
  // `offset` is in etypes relative to the view; buffers are described by a
  // count of memory-datatype items, as in MPI.

  [[nodiscard]] Status read_at(std::uint64_t offset, void* buf, std::uint64_t count,
                 const simpi::Datatype& memtype);
  [[nodiscard]] Status write_at(std::uint64_t offset, const void* buf, std::uint64_t count,
                  const simpi::Datatype& memtype);

  /// Read/write at the individual file pointer, advancing it.
  [[nodiscard]] Status read(void* buf, std::uint64_t count, const simpi::Datatype& memtype);
  [[nodiscard]] Status write(const void* buf, std::uint64_t count,
               const simpi::Datatype& memtype);

  /// MPI_File_seek with MPI_SEEK_SET semantics (etype units).
  void seek(std::uint64_t offset_etypes);
  [[nodiscard]] std::uint64_t position() const;

  // ---- collective I/O ---------------------------------------------------
  // Two-phase: requests are exchanged, each PFS server's stripes belong to
  // one of the first min(P, servers) ranks acting as aggregators, each
  // aggregator issues one access per contiguous run of a server's
  // datafile (a read also crosses holes below the PFS cost model's
  // sieve gap), and payloads are redistributed with alltoallv. A call is
  // two collectives: the request exchange, then for a write a status
  // allreduce that also completes it, for a read the reply exchange, each
  // reply ending in its aggregator's status byte.

  [[nodiscard]] Status read_all(void* buf, std::uint64_t count,
                  const simpi::Datatype& memtype);
  [[nodiscard]] Status write_all(const void* buf, std::uint64_t count,
                   const simpi::Datatype& memtype);
  [[nodiscard]] Status read_at_all(std::uint64_t offset, void* buf, std::uint64_t count,
                     const simpi::Datatype& memtype);
  [[nodiscard]] Status write_at_all(std::uint64_t offset, const void* buf,
                      std::uint64_t count, const simpi::Datatype& memtype);

  // ---- metadata ----------------------------------------------------------

  [[nodiscard]] std::uint64_t get_size() const;  ///< bytes (MPI_File_get_size)
  /// Collective; every rank returns rank 0's truncate status.
  [[nodiscard]] Status set_size(std::uint64_t bytes);
  [[nodiscard]] Status sync();                                 ///< collective

 private:
  struct State {
    simpi::Comm* comm = nullptr;
    pfs::Pfs* fs = nullptr;
    std::string name;
    int mode = 0;
    pfs::FileHandle handle;
    FileView view;
    std::uint64_t pointer_etypes = 0;  ///< individual file pointer
  };

  explicit File(std::unique_ptr<State> state) : state_(std::move(state)) {}

  [[nodiscard]] Status check_readable() const;
  [[nodiscard]] Status check_writable() const;

  /// Independent transfer core: maps the view range and performs per-extent
  /// PFS accesses through a pack/unpack staging buffer.
  [[nodiscard]] Status transfer_independent(std::uint64_t offset_etypes, void* buf,
                              std::uint64_t count,
                              const simpi::Datatype& memtype, bool writing);

  /// Two-phase collective transfer core.
  [[nodiscard]] Status transfer_collective(std::uint64_t offset_etypes, void* buf,
                             std::uint64_t count,
                             const simpi::Datatype& memtype, bool writing);

  std::unique_ptr<State> state_;
};

}  // namespace drx::mpio
