// One-sided communication: MPI-2 RMA windows (MPI_Win) with Get / Put /
// Accumulate and fence synchronization, as used by DRX-MP's GlobalAccessor
// (the Global-Arrays-style shared view of a distributed principal array).
//
// Because simpi ranks share an address space, Get/Put are memcpy under a
// per-target lock; the API nevertheless enforces MPI's discipline (window
// creation and free are collective, epochs bounded by fence), so code
// written against it ports directly to real MPI RMA or ARMCI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simpi/comm.hpp"
#include "util/sync.hpp"

namespace drx::simpi {

namespace detail {
/// Counts an RMA accumulate against the calling rank's obs registry
/// (out-of-line so the header stays free of obs includes).
void note_rma_accumulate(std::size_t bytes);
}  // namespace detail

class Window {
 public:
  /// Collective: every rank of `comm` exposes `local` (may be empty).
  Window(Comm& comm, std::span<std::byte> local);

  /// Collective free (MPI_Win_free); implicitly fences.
  ~Window();

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// Size in bytes of rank r's exposed region.
  [[nodiscard]] std::uint64_t size_at(int rank) const;

  /// Copies `out.size()` bytes from (target_rank, target_offset) into out.
  void get(int target_rank, std::uint64_t target_offset,
           std::span<std::byte> out);

  /// Copies `data` into (target_rank, target_offset).
  void put(int target_rank, std::uint64_t target_offset,
           std::span<const std::byte> data);

  /// Element-wise `+=` of `data` into the target region (MPI_Accumulate
  /// with MPI_SUM). Atomic with respect to other accumulates on the same
  /// target rank.
  template <typename T>
  void accumulate_sum(int target_rank, std::uint64_t target_offset,
                      std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    detail::note_rma_accumulate(data.size_bytes());
    std::byte* base = target_base(target_rank, target_offset,
                                  data.size_bytes());
    util::MutexLock lock(target_mutex(target_rank));
    T* dst = reinterpret_cast<T*>(base);
    for (std::size_t i = 0; i < data.size(); ++i) dst[i] += data[i];
  }

  /// Closes the current access epoch and opens the next (MPI_Win_fence).
  void fence();

 private:
  /// Validates the target range and returns its local address.
  std::byte* target_base(int target_rank, std::uint64_t offset,
                         std::uint64_t len) const;
  util::Mutex& target_mutex(int target_rank) const;

  /// The per-target lock table. Each lock serializes one-sided access to
  /// that rank's exposed region — memory owned by user code, so there is
  /// no field here for GUARDED_BY to name.
  struct Shared {
    explicit Shared(std::size_t n) : locks(n) {}
    // drx-verify: allow(unannotated-mutex-member) guards caller-owned memory
    std::vector<util::Mutex> locks;
  };

  Comm* comm_;
  std::vector<std::uintptr_t> bases_;  ///< rank -> exposed base address
  std::vector<std::uint64_t> sizes_;   ///< rank -> exposed byte count
  Shared* shared_ = nullptr;           ///< owned by rank 0, freed in dtor
};

}  // namespace drx::simpi
