// Internal shared state of a simpi "job": per-rank mailboxes, barrier
// generations and context-id allocation.
//
// simpi emulates an MPI-2 job with one std::thread per rank. User code
// written against simpi must follow message-passing discipline (no shared
// mutable state between ranks other than through simpi calls); the library
// itself uses the shared address space only inside this file and in the
// RMA window implementation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace drx::simpi {

/// Wildcards mirroring MPI_ANY_SOURCE / MPI_ANY_TAG.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

namespace detail {

/// An in-flight point-to-point message (buffered-send semantics: the
/// payload is copied into the mailbox, so send never blocks).
struct Message {
  int source = 0;
  int tag = 0;
  std::uint32_t context = 0;  ///< communicator context id
  std::vector<std::byte> payload;
};

/// True if a job of `nranks` rank threads may spin while it waits: only
/// when every rank can have a core (`hardware_concurrency` of them), so a
/// spinning rank never takes the core of the rank it waits for.
[[nodiscard]] bool spin_waits(int nranks);

/// One receive queue per rank. Senders push; the owning rank pops with
/// (source, tag, context) matching in arrival order, as MPI requires for
/// matching (non-overtaking between a given pair). Only the owning rank's
/// thread waits on it.
class Mailbox {
 public:
  /// `spin`: waits spin before they park (spin_waits).
  explicit Mailbox(bool spin) : spin_(spin) {}

  void push(Message msg);

  /// Blocks until a matching message arrives, then removes and returns it.
  Message pop(int source, int tag, std::uint32_t context);

  /// Non-destructive probe: blocks until a match exists, returns its
  /// (source, tag, payload size).
  void probe(int source, int tag, std::uint32_t context, int& out_source,
             int& out_tag, std::size_t& out_size);

  /// Non-blocking pop: removes and returns a matching message if one is
  /// already queued (MPI_Test's underlying primitive).
  std::optional<Message> try_pop(int source, int tag, std::uint32_t context);

 private:
  [[nodiscard]] bool matches(const Message& m, int source, int tag,
                             std::uint32_t context) const;

  /// Waits until a message matching (source, tag, context) is queued and
  /// returns `take(it)` for it, under the lock.
  template <typename Take>
  auto await_match(int source, int tag, std::uint32_t context, Take take);

  const bool spin_;
  util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Message> queue_ DRX_GUARDED_BY(mu_);
  /// Messages ever pushed; written under mu_, read by spinning waiters
  /// without it.
  std::atomic<std::uint64_t> pushes_{0};
};

/// Centralized barrier, one instance per context id. A waiter watches the
/// generation the last arrival publishes.
class BarrierState {
 public:
  BarrierState(int nranks, bool spin) : spin_(spin), nranks_(nranks) {}
  void arrive_and_wait();

 private:
  const bool spin_;
  util::Mutex mu_;
  util::CondVar cv_;
  int nranks_;
  int arrived_ DRX_GUARDED_BY(mu_) = 0;
  /// Written under mu_, read by spinning waiters without it.
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace detail

/// Shared state of one simpi job. Created by Runtime; referenced by Comm.
class World {
 public:
  explicit World(int nranks);

  [[nodiscard]] int nranks() const noexcept { return nranks_; }

  detail::Mailbox& mailbox(int rank);

  /// Barrier instance for a communicator context; created on first use
  /// with the communicator's member count.
  detail::BarrierState& barrier(std::uint32_t context, int nranks);

  /// Allocates a fresh communicator context id. Must be called collectively
  /// (all ranks obtain the same id by having rank 0 allocate and broadcast;
  /// Comm::dup handles that protocol).
  std::uint32_t allocate_context();

 private:
  int nranks_;
  bool spin_;
  // Mailbox is neither movable nor copyable; a deque constructs in place.
  std::deque<detail::Mailbox> mailboxes_;

  util::Mutex barrier_mu_;
  // BarrierState is neither movable nor copyable; store stable pointers.
  std::vector<std::pair<std::uint32_t, std::unique_ptr<detail::BarrierState>>>
      barriers_ DRX_GUARDED_BY(barrier_mu_);

  util::Mutex context_mu_;
  /// 0 is reserved for the world comm.
  std::uint32_t next_context_ DRX_GUARDED_BY(context_mu_) = 1;
};

}  // namespace drx::simpi
