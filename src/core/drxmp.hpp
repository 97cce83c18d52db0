// DRX-MP: the parallel disk-resident extendible array library (the
// paper's primary contribution, Sections II and IV).
//
// A principal array named `xyz` lives in a parallel file system as the
// pair `xyz.xmd` / `xyz.xta`. Every participating process replicates the
// metadata (axial vectors) on open, so any process computes any chunk
// address locally and decides local-vs-remote ownership without
// communication. Chunk zones are read/written through MPI-IO-style
// collective I/O (two-phase) or independent I/O; remote elements are
// accessed one-sided through an RMA window over the distributed zones
// (the Global-Array shared-memory programming model).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/copy_plan.hpp"
#include "core/drx_file.hpp"
#include "core/metadata.hpp"
#include "core/scatter.hpp"
#include "core/zone.hpp"
#include "mpio/file.hpp"
#include "simpi/comm.hpp"
#include "simpi/rma.hpp"

namespace drx::core {

/// Element box of `proc`'s (single, BLOCK) zone under `dist`, clipped to
/// the array bounds; an empty box if `proc` owns no chunks. The one
/// zone-box rule of DrxMpFile and GlobalAccessor.
[[nodiscard]] Box zone_element_box(const Metadata& meta,
                                   const Distribution& dist, int proc);

class DrxMpFile {
 public:
  /// Collective creation of a fresh principal array (paper Sec. IV-B: the
  /// principal array "can be initialized either from a single serial
  /// process or from a parallel program").
  [[nodiscard]] static Result<DrxMpFile> create(simpi::Comm& comm, pfs::Pfs& fs,
                                  const std::string& name,
                                  Shape element_bounds, Shape chunk_shape,
                                  const DrxFile::Options& options);

  /// Collective open: rank 0 reads the .xmd, broadcasts it, and every rank
  /// opens the .xta through MPI-IO.
  [[nodiscard]] static Result<DrxMpFile> open(simpi::Comm& comm, pfs::Pfs& fs,
                                const std::string& name);

  /// Collective close; persists metadata. Every rank's metrics stay in
  /// the process's registries, where obs::live_snapshot() sums them.
  [[nodiscard]] Status close();

  [[nodiscard]] const Metadata& metadata() const noexcept { return meta_; }
  [[nodiscard]] std::size_t rank() const noexcept { return meta_.rank(); }
  [[nodiscard]] const Shape& bounds() const noexcept {
    return meta_.element_bounds;
  }
  [[nodiscard]] simpi::Comm& comm() noexcept { return *comm_; }

  /// Default BLOCK distribution of the current chunk grid over the
  /// communicator's processes.
  [[nodiscard]] Distribution block_distribution() const {
    return Distribution::block(meta_.mapping.bounds(), comm_->size());
  }

  /// Element box of `proc`'s (single, BLOCK) zone, clipped to the array
  /// bounds. Empty box if the process owns no chunks.
  [[nodiscard]] Box zone_element_box(const Distribution& dist,
                                     int proc) const {
    return core::zone_element_box(meta_, dist, proc);
  }

  /// Bytes needed to hold `proc`'s zone elements in memory.
  [[nodiscard]] std::uint64_t zone_buffer_bytes(const Distribution& dist,
                                                int proc) const {
    return checked_mul(zone_element_box(dist, proc).volume(),
                       meta_.element_bytes());
  }

  // ---- chunk-list transfer primitive ------------------------------------
  // `staging` is chunk-major in the order of `chunks` (each chunk
  // occupying chunk_bytes() consecutive bytes). The file side is accessed
  // in ascending storage order via an MPI-IO file view built from the
  // chunks' storage extents; collective calls run two-phase across the
  // communicator. Compressed arrays are read-only (docs/COMPRESSION.md).

  [[nodiscard]] Status read_chunks(std::span<const Index> chunks,
                     std::span<std::byte> staging, bool collective);
  [[nodiscard]] Status write_chunks(std::span<const Index> chunks,
                      std::span<const std::byte> staging, bool collective);

  // ---- zone element I/O (BLOCK distributions) ----------------------------
  // Each rank transfers its own zone, the box zone_element_box gives it;
  // `order` picks the in-memory linearization (C or FORTRAN) with
  // transposition done on the fly.

  [[nodiscard]] Status read_my_zone(const Distribution& dist, MemoryOrder order,
                      std::span<std::byte> out, bool collective = true);
  [[nodiscard]] Status write_my_zone(const Distribution& dist, MemoryOrder order,
                       std::span<const std::byte> in, bool collective = true);

  /// Collective read of an arbitrary per-rank element box (ranks may pass
  /// different, even overlapping boxes).
  [[nodiscard]] Status read_box_all(const Box& box, MemoryOrder order,
                      std::span<std::byte> out);

  /// Independent read of an element box (no synchronization with peers).
  [[nodiscard]] Status read_box_independent(const Box& box, MemoryOrder order,
                              std::span<std::byte> out);

  /// Independent write of an element box (chunks touched must not be
  /// concurrently written by peers).
  [[nodiscard]] Status write_box_independent(const Box& box, MemoryOrder order,
                               std::span<const std::byte> in);

  /// Collective write of per-rank element boxes. Boxes of different ranks
  /// must not touch the same chunk (partitioning is along chunk
  /// boundaries, paper Sec. II-A); within that contract partial boundary
  /// chunks are read-modify-written locally.
  [[nodiscard]] Status write_box_all(const Box& box, MemoryOrder order,
                       std::span<const std::byte> in);

  // ---- element access (independent; paper Sec. II-A: "An element can be
  // accessed either directly from the file or via a remote memory access") -

  template <typename T>
  [[nodiscard]] Result<T> get(std::span<const std::uint64_t> index) {
    DRX_CHECK(ElementTypeOf<T>::value == meta_.dtype);
    T v{};
    Box one{Index(index.begin(), index.end()),
            Index(index.begin(), index.end())};
    for (auto& h : one.hi) ++h;
    DRX_RETURN_IF_ERROR(read_box_independent(
        one, MemoryOrder::kRowMajor,
        std::as_writable_bytes(std::span<T>(&v, 1))));
    return v;
  }

  template <typename T>
  [[nodiscard]] Status set(std::span<const std::uint64_t> index, const T& v) {
    DRX_CHECK(ElementTypeOf<T>::value == meta_.dtype);
    Box one{Index(index.begin(), index.end()),
            Index(index.begin(), index.end())};
    for (auto& h : one.hi) ++h;
    return write_box_independent(one, MemoryOrder::kRowMajor,
                                 std::as_bytes(std::span<const T>(&v, 1)));
  }

  // ---- extension ----------------------------------------------------------

  /// Collective extension of dimension `dim` by `delta` element indices.
  /// All ranks apply the same deterministic metadata update; rank 0
  /// grows the .xta (appended chunks read as zero) and persists the .xmd,
  /// then broadcasts the outcome, the call's one collective.
  [[nodiscard]] Status extend_all(std::size_t dim, std::uint64_t delta);

  /// Persists metadata from rank 0 (collective).
  [[nodiscard]] Status flush_metadata();

  [[nodiscard]] std::uint64_t chunk_bytes() const {
    return meta_.chunk_bytes();
  }

 private:
  DrxMpFile(simpi::Comm& comm, pfs::Pfs& fs, std::string name, Metadata meta,
            mpio::File data)
      : comm_(&comm),
        fs_(&fs),
        name_(std::move(name)),
        meta_(std::move(meta)),
        chunk_space_(meta_.chunk_space()),
        plan_cache_(
            std::make_unique<PlanCache>(chunk_space_, meta_.element_bytes())),
        data_(std::move(data)) {}

  /// Rank 0 grows the .xta to `grow_data_to` bytes (0: leaves it), then
  /// writes `meta` as the .xmd, and broadcasts the outcome (collective:
  /// one broadcast). The body of flush_metadata, and extend_all's commit
  /// of its extended copy.
  [[nodiscard]] Status commit_metadata(const Metadata& meta,
                                       std::uint64_t grow_data_to = 0);

  /// The chunk rule of every DRX-MP transfer, raw and compressed: one
  /// byte-granular file view over the chunks' storage extents (sorted by
  /// offset) and a memory view that puts each chunk's stored bytes at the
  /// front of its own staging slot. A read then decodes each slot in
  /// place (decode_in_place), after the collective completes.
  [[nodiscard]] Status transfer_chunks(std::span<const Index> chunks, void* staging,
                         bool collective, bool writing);

  /// The one read and the one write body of every zone and box call: the
  /// box's covering chunks move in one chunk-list transfer through a
  /// chunk-major staging buffer, scattered to or gathered from the box.
  [[nodiscard]] Status read_box_impl(const Box& box, MemoryOrder order,
                       std::span<std::byte> out, bool collective);
  [[nodiscard]] Status write_box_impl(const Box& box, MemoryOrder order,
                        std::span<const std::byte> in, bool collective);

  simpi::Comm* comm_;
  pfs::Pfs* fs_;
  std::string name_;
  Metadata meta_;
  ChunkSpace chunk_space_;
  /// Memoized run-coalesced copy plans shared by every zone/box transfer
  /// (unique_ptr: PlanCache holds a Mutex and DrxMpFile moves).
  std::unique_ptr<PlanCache> plan_cache_;
  mpio::File data_;
};

/// Global-Array-style one-sided access to a BLOCK-distributed principal
/// array held in the ranks' memories (paper Sec. II-A: "the remote memory
/// access methods and the MPI-2 windowing features can now be applied for
/// processing the array as if each process has access to the entire
/// principal array").
class GlobalAccessor {
 public:
  /// Collective. `zone` is this rank's zone buffer (elements of
  /// zone_element_box in `order`), which becomes the local window region.
  GlobalAccessor(simpi::Comm& comm, const Metadata& meta,
                 const Distribution& dist, MemoryOrder order,
                 std::span<std::byte> zone);

  /// Owning process of an element.
  [[nodiscard]] int owner_of(std::span<const std::uint64_t> element) const;

  [[nodiscard]] bool is_local(std::span<const std::uint64_t> element) const {
    return owner_of(element) == comm_->rank();
  }

  template <typename T>
  T get(std::span<const std::uint64_t> element) {
    T v{};
    const auto [target, offset] = locate(element, sizeof(T));
    window_.get(target, offset, std::as_writable_bytes(std::span<T>(&v, 1)));
    return v;
  }

  template <typename T>
  void put(std::span<const std::uint64_t> element, const T& v) {
    const auto [target, offset] = locate(element, sizeof(T));
    window_.put(target, offset, std::as_bytes(std::span<const T>(&v, 1)));
  }

  template <typename T>
  void accumulate(std::span<const std::uint64_t> element, const T& delta) {
    const auto [target, offset] = locate(element, sizeof(T));
    window_.accumulate_sum(target, offset,
                           std::span<const T>(&delta, 1));
  }

  /// Bulk one-sided read of an element box into `out` (linearized in the
  /// accessor's order) — GA_Get over the distributed zones. Contiguous
  /// runs along the fastest-varying dimension are fetched with one RMA
  /// get each when they fall inside a single owner's zone.
  template <typename T>
  void get_box(const Box& box, std::span<T> out) {
    DRX_CHECK(sizeof(T) == meta_->element_bytes());
    DRX_CHECK(out.size() == box.volume());
    if (box.empty()) return;
    const std::size_t k = meta_->rank();
    const Shape shape = box.shape();
    // Iterate rows: all dims except the fastest-varying one of `order_`.
    const std::size_t fast = order_ == MemoryOrder::kRowMajor ? k - 1 : 0;
    Box outer = box;
    outer.lo[fast] = 0;
    outer.hi[fast] = 1;
    Index idx(k);
    Index rel(k);
    // drx-verify: allow(element-granular-copy) row-granular RMA: each visit
    // issues one window get per contiguous owner run, not one per element.
    for_each_index(outer, [&](const Index& oidx) {
      idx = oidx;
      idx[fast] = box.lo[fast];
      std::uint64_t consumed = 0;
      while (consumed < shape[fast]) {
        idx[fast] = box.lo[fast] + consumed;
        const int target = owner_of(idx);
        const Box& zone = zone_boxes_[static_cast<std::size_t>(target)];
        // The run stays contiguous in the owner's buffer while it stays
        // inside the owner's zone along `fast`.
        const std::uint64_t run = std::min(
            shape[fast] - consumed, zone.hi[fast] - idx[fast]);
        const auto [t, offset] = locate(idx, sizeof(T));
        // Destination positions: contiguous along `fast` in `out` only
        // when `fast` is the fastest dim of `order_` — which it is by
        // construction — so one memcpy-shaped get suffices.
        for (std::size_t d = 0; d < k; ++d) rel[d] = idx[d] - box.lo[d];
        const std::uint64_t dst = linearize(rel, shape, order_);
        window_.get(t, offset,
                    std::as_writable_bytes(
                        out.subspan(checked_size(dst), checked_size(run))));
        consumed += run;
      }
    });
  }

  /// Epoch boundary (collective).
  void fence() { window_.fence(); }

 private:
  std::pair<int, std::uint64_t> locate(
      std::span<const std::uint64_t> element, std::uint64_t esize) const;

  simpi::Comm* comm_;
  const Metadata* meta_;
  Distribution dist_;
  MemoryOrder order_;
  ChunkSpace chunk_space_;
  std::vector<Box> zone_boxes_;  ///< per-rank clipped element boxes
  simpi::Window window_;
};

}  // namespace drx::core
