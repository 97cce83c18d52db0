// Communicator: the central simpi object, mirroring MPI_Comm.
//
// Supports point-to-point send/recv/probe (buffered-send semantics),
// sendrecv, the collective set used by DRX-MP (barrier, bcast, reduce,
// allreduce, gather(v), allgather(v), scatter(v), alltoall(v), scan) and
// communicator management (dup, split).
//
// All byte-count parameters are std::size_t; typed convenience templates
// wrap the byte-level primitives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "simpi/world.hpp"
#include "util/error.hpp"

namespace drx::simpi {

/// Result of a receive, mirroring MPI_Status.
struct RecvStatus {
  int source = 0;
  int tag = 0;
  std::size_t bytes = 0;
};

/// Reduction operators understood by the byte-level reduce engine.
enum class ReduceOp { kSum, kMin, kMax, kProd, kLand, kLor };

class Comm {
 public:
  /// Constructs the world communicator for `rank` of `world`. Normally
  /// called only by Runtime.
  Comm(std::shared_ptr<World> world, int rank);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members_.size());
  }

  // ---- point to point -----------------------------------------------

  /// Buffered send: copies `data` into the destination mailbox; never
  /// blocks. dest/tag use communicator-local ranks and non-negative tags.
  void send(std::span<const std::byte> data, int dest, int tag);

  /// Blocking receive into `out` (must be exactly the message size for the
  /// fixed-size variant). Returns the matched envelope.
  RecvStatus recv(std::span<std::byte> out, int source, int tag);

  /// Blocking receive of an unknown-size message.
  std::vector<std::byte> recv_any_size(int source, int tag,
                                       RecvStatus* status = nullptr);

  /// Blocks until a matching message is available; fills the envelope
  /// without consuming the message (MPI_Probe).
  RecvStatus probe(int source, int tag);

  /// Combined send+recv that cannot deadlock (MPI_Sendrecv).
  RecvStatus sendrecv(std::span<const std::byte> send_data, int dest,
                      int send_tag, std::span<std::byte> recv_data,
                      int source, int recv_tag);

  // ---- nonblocking point to point --------------------------------------
  // Buffered sends complete immediately, so MPI_Isend degenerates to
  // send(); Request covers the receive side (MPI_Irecv / Test / Wait).

  /// A pending nonblocking receive. Move-only; must be completed by
  /// wait()/test() before destruction (checked).
  class Request {
   public:
    Request() = default;
    Request(Request&& o) noexcept { *this = std::move(o); }
    Request& operator=(Request&& o) noexcept {
      std::swap(comm_, o.comm_);
      std::swap(out_, o.out_);
      std::swap(source_, o.source_);
      std::swap(tag_, o.tag_);
      std::swap(done_, o.done_);
      std::swap(status_, o.status_);
      return *this;
    }
    ~Request() { DRX_CHECK_MSG(done_ || comm_ == nullptr,
                               "request destroyed while pending"); }

    [[nodiscard]] bool done() const noexcept { return done_; }
    [[nodiscard]] const RecvStatus& status() const {
      DRX_CHECK(done_);
      return status_;
    }

   private:
    friend class Comm;
    Comm* comm_ = nullptr;
    std::span<std::byte> out_;
    int source_ = 0;
    int tag_ = 0;
    bool done_ = true;
    RecvStatus status_;
  };

  /// Posts a nonblocking receive into `out` (whose lifetime must cover the
  /// completion). Matching follows the same rules as recv().
  Request irecv(std::span<std::byte> out, int source, int tag);

  /// Blocks until the request completes (MPI_Wait).
  void wait(Request& request);

  /// Completes the request if a matching message is queued (MPI_Test).
  bool test(Request& request);

  /// Waits for every request (MPI_Waitall).
  void wait_all(std::span<Request> requests);

  // ---- collectives (must be called by every member) ------------------

  void barrier();

  /// Broadcast `data` (same byte count everywhere) from `root`.
  void bcast_bytes(std::span<std::byte> data, int root);

  /// Broadcast a variable-size buffer: non-root ranks resize to match.
  void bcast_vector(std::vector<std::byte>& data, int root);

  /// Element-wise reduction of `count` elements of width `elem_size` using
  /// `combine(dst, src)`; result lands on root only (reduce) or on all
  /// ranks (allreduce).
  using CombineFn =
      std::function<void(std::byte* dst, const std::byte* src)>;
  void reduce_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                    std::size_t elem_size, const CombineFn& combine,
                    int root);
  void allreduce_bytes(std::span<const std::byte> in,
                       std::span<std::byte> out, std::size_t elem_size,
                       const CombineFn& combine);

  /// Fixed-size gather: every rank contributes in.size() bytes; root
  /// receives size()*in.size() bytes, rank-ordered.
  void gather_bytes(std::span<const std::byte> in, std::span<std::byte> out,
                    int root);
  void allgather_bytes(std::span<const std::byte> in,
                       std::span<std::byte> out);

  /// Variable-size gather; per-rank byte counts collected automatically.
  std::vector<std::vector<std::byte>> gatherv_bytes(
      std::span<const std::byte> in, int root);
  std::vector<std::vector<std::byte>> allgatherv_bytes(
      std::span<const std::byte> in);

  /// Root scatters chunks[r] to rank r. Non-roots pass an empty vector.
  std::vector<std::byte> scatterv_bytes(
      const std::vector<std::vector<std::byte>>& chunks, int root);

  /// Each rank provides send_chunks[r] for every destination r; returns
  /// the vector of buffers received, indexed by source rank. The send
  /// buffers are consumed: each one moves into its message (the rank's
  /// own part straight into the result), so a receiver holds the very
  /// buffer its sender filled and no byte is copied.
  std::vector<std::vector<std::byte>> alltoallv_bytes(
      std::vector<std::vector<std::byte>> send_chunks);

  /// Inclusive prefix reduction over one u64 per rank (enough for the
  /// offset bookkeeping DRX-MP needs).
  std::uint64_t scan_sum_u64(std::uint64_t value);

  // ---- communicator management ---------------------------------------

  /// Duplicate with a fresh context (collective).
  Comm dup();

  /// Split into sub-communicators by color; ranks ordered by (key, rank).
  /// color < 0 yields an invalid comm (size 0) for that rank (collective).
  Comm split(int color, int key);

  // ---- typed conveniences ----------------------------------------------

  template <typename T>
  void send_value(const T& v, int dest, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send(std::as_bytes(std::span<const T>(&v, 1)), dest, tag);
  }

  template <typename T>
  T recv_value(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    recv(std::as_writable_bytes(std::span<T>(&v, 1)), source, tag);
    return v;
  }

  template <typename T>
  void bcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(std::as_writable_bytes(data), root);
  }

  template <typename T>
  void bcast_value(T& v, int root) {
    bcast(std::span<T>(&v, 1), root);
  }

  template <typename T>
  void allreduce(std::span<const T> in, std::span<T> out, ReduceOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    DRX_CHECK(in.size() == out.size());
    allreduce_bytes(std::as_bytes(in), std::as_writable_bytes(out),
                    sizeof(T), make_combine<T>(op));
  }

  template <typename T>
  T allreduce_value(T v, ReduceOp op) {
    T out{};
    allreduce(std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }

  template <typename T>
  std::vector<T> allgather_value(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> out(static_cast<std::size_t>(size()));
    allgather_bytes(std::as_bytes(std::span<const T>(&v, 1)),
                    std::as_writable_bytes(std::span<T>(out)));
    return out;
  }

 private:
  Comm(std::shared_ptr<World> world, std::uint32_t context, int rank,
       std::vector<int> members);

  template <typename T>
  static CombineFn make_combine(ReduceOp op);

  /// World rank of communicator member r.
  [[nodiscard]] int world_rank(int r) const;

  /// Sends on the internal collective context (keeps collective traffic
  /// from matching user receives). The span form copies `data`; the
  /// vector form moves `payload` into the message.
  void coll_send(std::span<const std::byte> data, int dest, int tag);
  void coll_send(std::vector<std::byte> payload, int dest, int tag);
  std::vector<std::byte> coll_recv(int source, int tag);

  std::shared_ptr<World> world_;
  std::uint32_t context_;       ///< user p2p context
  std::uint32_t coll_context_;  ///< internal collective context
  int rank_;                    ///< communicator-local rank
  std::vector<int> members_;    ///< comm rank -> world rank
};

template <typename T>
Comm::CombineFn Comm::make_combine(ReduceOp op) {
  return [op](std::byte* dst_raw, const std::byte* src_raw) {
    T dst, src;
    std::memcpy(&dst, dst_raw, sizeof(T));
    std::memcpy(&src, src_raw, sizeof(T));
    switch (op) {
      case ReduceOp::kSum: dst = static_cast<T>(dst + src); break;
      case ReduceOp::kProd: dst = static_cast<T>(dst * src); break;
      case ReduceOp::kMin: dst = src < dst ? src : dst; break;
      case ReduceOp::kMax: dst = src > dst ? src : dst; break;
      case ReduceOp::kLand: dst = static_cast<T>(dst && src); break;
      case ReduceOp::kLor: dst = static_cast<T>(dst || src); break;
    }
    std::memcpy(dst_raw, &dst, sizeof(T));
  };
}

}  // namespace drx::simpi
