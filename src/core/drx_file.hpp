// DRX: the serial disk-resident extendible array library (paper Sec. I,
// IV). An array named `xyz` is a pair of files — `xyz.xmd` (metadata) and
// `xyz.xta` (chunk data) — on any byte-addressable storage (POSIX file,
// in-memory simulator, or a PFS file).
//
// Supported operations: create/open/flush, extend along any dimension
// (appending segments, never reorganizing), element get/set, rectilinear
// box read/write in either C or FORTRAN memory order (transposition
// happens on the fly during scatter/gather — never out-of-core), and a
// sequential whole-file scan read driven by the inverse mapping F*^-1.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.hpp"
#include "core/copy_plan.hpp"
#include "core/metadata.hpp"
#include "io/prefetch.hpp"
#include "pfs/storage.hpp"

namespace drx::core {

class DrxFile {
 public:
  struct Options {
    ElementType dtype = ElementType::kDouble;
    MemoryOrder in_chunk_order = MemoryOrder::kRowMajor;
    /// Array codec negotiated at create time and recorded in the .xmd
    /// (docs/COMPRESSION.md). nullopt -> `codec::default_codec()`, i.e.
    /// the `DRX_COMPRESS` env knob; compression stays strictly opt-in.
    std::optional<codec::CodecId> codec;
  };

  /// Creates a fresh array over the given storage pair. `element_bounds`
  /// are the initial bounds (>= 1 chunk per dimension is allocated even
  /// for zero bounds); every chunk reads as zeros. A raw array's .xta
  /// grows by truncate and stores nothing; a compressed one stores one
  /// encoded zero image per slot.
  [[nodiscard]] static Result<DrxFile> create(std::unique_ptr<pfs::Storage> meta_storage,
                                std::unique_ptr<pfs::Storage> data_storage,
                                Shape element_bounds, Shape chunk_shape,
                                const Options& options);

  /// Opens an existing array; validates the .xmd image.
  [[nodiscard]] static Result<DrxFile> open(std::unique_ptr<pfs::Storage> meta_storage,
                              std::unique_ptr<pfs::Storage> data_storage);

  /// POSIX convenience: `<name>.xmd` / `<name>.xta` on the host FS.
  [[nodiscard]] static Result<DrxFile> create_posix(const std::string& name,
                                      Shape element_bounds, Shape chunk_shape,
                                      const Options& options);
  [[nodiscard]] static Result<DrxFile> open_posix(const std::string& name);

  [[nodiscard]] const Metadata& metadata() const noexcept { return meta_; }
  [[nodiscard]] std::size_t rank() const noexcept { return meta_.rank(); }
  [[nodiscard]] const Shape& bounds() const noexcept {
    return meta_.element_bounds;
  }
  [[nodiscard]] ElementType dtype() const noexcept { return meta_.dtype; }
  [[nodiscard]] std::uint64_t element_bytes() const noexcept {
    return meta_.element_bytes();
  }

  /// Extends dimension `dim` by `delta` element indices (paper Sec. II-A:
  /// which dimension and when is the application's choice). Appended
  /// segments read as zeros (raw: the .xta grows by truncate, as
  /// DrxMpFile grows with set_size); existing data never moves. Metadata
  /// is persisted immediately.
  [[nodiscard]] Status extend(std::size_t dim, std::uint64_t delta);

  // ---- element access ---------------------------------------------------

  [[nodiscard]] Status read_element(std::span<const std::uint64_t> index,
                      std::span<std::byte> out);
  [[nodiscard]] Status write_element(std::span<const std::uint64_t> index,
                       std::span<const std::byte> value);

  template <typename T>
  [[nodiscard]] Result<T> get(std::span<const std::uint64_t> index) {
    DRX_CHECK(ElementTypeOf<T>::value == meta_.dtype);
    T v{};
    DRX_RETURN_IF_ERROR(read_element(
        index, std::as_writable_bytes(std::span<T>(&v, 1))));
    return v;
  }

  template <typename T>
  [[nodiscard]] Status set(std::span<const std::uint64_t> index, const T& v) {
    DRX_CHECK(ElementTypeOf<T>::value == meta_.dtype);
    return write_element(index, std::as_bytes(std::span<const T>(&v, 1)));
  }

  // ---- box (sub-array) access -------------------------------------------

  /// Reads element box [box.lo, box.hi) into `out`, linearized in `order`
  /// (the on-the-fly transposition of paper Sec. I). `out` must hold
  /// box.volume() * element_bytes() bytes.
  [[nodiscard]] Status read_box(const Box& box, MemoryOrder order, std::span<std::byte> out);

  /// Writes `in` (linearized in `order`) into element box [box.lo, box.hi).
  [[nodiscard]] Status write_box(const Box& box, MemoryOrder order,
                   std::span<const std::byte> in);

  /// Reads the entire array by one sequential pass over the .xta file,
  /// placing elements via F*^-1 (paper Sec. II-A: "independent I/O of
  /// sub-array regions are done as sequential scan of the chunks on
  /// disk"). `out` must hold the full array in `order`.
  [[nodiscard]] Status scan_read_all(MemoryOrder order, std::span<std::byte> out);

  // ---- chunk-level access (used by DRX-MP and the benches) --------------

  [[nodiscard]] std::uint64_t chunk_address(
      std::span<const std::uint64_t> chunk_index) const {
    return meta_.mapping.address_of(chunk_index);
  }
  [[nodiscard]] std::uint64_t chunk_bytes() const {
    return meta_.chunk_bytes();
  }
  /// read_chunks_stored of one address, then decode_in_place.
  [[nodiscard]] Status read_chunk(std::uint64_t address, std::span<std::byte> out);
  /// encode_chunk, then write_chunk_encoded.
  [[nodiscard]] Status write_chunk(std::uint64_t address, std::span<const std::byte> in);

  // ---- split codec / storage API (docs/COMPRESSION.md) ------------------
  // read_chunk/write_chunk above compose these. Layers that serialize
  // storage access behind their own lock (ChunkCache's io mutex) call the
  // split halves directly so encode/decode — pure CPU work — runs OUTSIDE
  // that lock and overlaps I/O.

  [[nodiscard]] bool compressed() const noexcept { return meta_.compressed(); }
  [[nodiscard]] codec::CodecId codec() const noexcept { return meta_.codec; }

  /// One encoded chunk: the per-chunk codec tag actually stored plus a
  /// view of the stored bytes (into the caller's scratch or, for an
  /// incompressible chunk, the raw input itself — no copy either way).
  struct EncodedChunk {
    codec::CodecId codec = codec::CodecId::kNone;
    std::span<const std::byte> bytes;
  };

  /// Encodes a raw chunk with the array codec into `scratch` (resized
  /// as needed), falling back per chunk to the identity codec when
  /// encoding cannot beat raw. Pure CPU; safe from any thread with no
  /// lock held. The returned view aliases `scratch` or `raw`.
  [[nodiscard]] EncodedChunk encode_chunk(std::span<const std::byte> raw,
                                          std::vector<std::byte>& scratch) const;

  /// The one chunk-write body, raw and compressed: stores an encoded
  /// chunk at its storage extent when it fits there, else (a compressed
  /// chunk that outgrew its slot) relocates it to the end of the .xta
  /// (the old slot leaks, append-only like extension). Touches the slot
  /// table and storage — callers serialize this like any other chunk
  /// write.
  [[nodiscard]] Status write_chunk_encoded(std::uint64_t address,
                                           const EncodedChunk& enc);

  /// Reads a chunk's stored bytes without decoding: read_chunks_stored of
  /// one address into `scratch` (resized to chunk_bytes()).
  [[nodiscard]] Result<EncodedChunk> read_chunk_stored(
      std::uint64_t address, std::vector<std::byte>& scratch);

  /// The one chunk read: fetches the stored bytes of the chunks at
  /// `addresses` (any order), chunk i's to the front of `into[i]`, which
  /// is chunk_bytes() long (no chunk stores more than its raw bytes), and
  /// records each chunk's Metadata::storage_extent in `extents` (same
  /// order as `addresses`). decode_in_place then turns each buffer into
  /// its raw chunk. The list is sorted by storage position and a request
  /// grows across each next chunk that is contiguous on storage
  /// (Metadata::follows_on_storage) or whose hole is cheaper to read
  /// than the request and seek it saves (Storage::sieve_gap_bytes, from
  /// the device's cost model; raw and compressed arrays alike). Each
  /// request copies only live bytes (Storage::read_gather), straight
  /// into the chunks' buffers; a lone chunk reads its live bytes only.
  ///
  /// Reads the slot table, so callers that share the file with
  /// write-behind hold the same lock, and decode outside it.
  [[nodiscard]] Status read_chunks_stored(
      std::span<const std::uint64_t> addresses,
      std::span<std::byte* const> into,
      std::vector<Metadata::StorageExtent>& extents);

  /// Run-coalesced scatter/gather between a chunk buffer and a
  /// box-linearized user buffer for the element range `clip` (which lies
  /// inside one chunk), through this file's memoized plan cache. Layers
  /// that buffer chunks themselves (ChunkCache, drxmp) call these instead
  /// of the one-shot free functions in scatter.hpp.
  void scatter_chunk(std::span<const std::byte> chunk, const Box& clip,
                     const Box& box, MemoryOrder order,
                     std::span<std::byte> out) const;
  void gather_chunk(std::span<std::byte> chunk, const Box& clip,
                    const Box& box, MemoryOrder order,
                    std::span<const std::byte> in) const;

  // ---- prefetch hints (docs/ASYNC_IO.md) --------------------------------
  // Layers that know future access patterns announce them here; a cache
  // layered on this file (ChunkCache) registers itself as the sink and
  // turns hints into background faults. Hints are advisory: with no sink
  // attached they are dropped.

  /// Hints that every chunk overlapping element box [box.lo, box.hi) is
  /// about to be read. Never blocks on I/O.
  void prefetch_box(const Box& box);

  void set_prefetch_sink(io::PrefetchSink* sink) noexcept {
    prefetch_sink_ = sink;
  }
  [[nodiscard]] io::PrefetchSink* prefetch_sink() const noexcept {
    return prefetch_sink_;
  }

  /// Persists metadata through write_metadata (also called by create;
  /// extend commits its extended copy the same way), then flushes the
  /// .xta.
  [[nodiscard]] Status flush();

  [[nodiscard]] pfs::Storage& data_storage() noexcept { return *data_; }
  [[nodiscard]] pfs::Storage& meta_storage() noexcept { return *meta_store_; }

 private:
  DrxFile(std::unique_ptr<pfs::Storage> meta_storage,
          std::unique_ptr<pfs::Storage> data_storage, Metadata meta)
      : meta_store_(std::move(meta_storage)),
        data_(std::move(data_storage)),
        meta_(std::move(meta)),
        chunk_space_(meta_.chunk_space()),
        plan_cache_(std::make_unique<PlanCache>(chunk_space_,
                                                meta_.element_bytes())) {}

  [[nodiscard]] Status check_index(std::span<const std::uint64_t> index) const;
  /// Chunks covering element box `box` as (address, chunk index) pairs in
  /// ascending storage-address order. Box transfers visit chunks in this
  /// order so dense scans sweep the .xta near-sequentially, and — on
  /// compressed arrays — slot relocations triggered by a bulk rewrite
  /// append in address order, keeping the stored layout coalescible for
  /// later streaming reads.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Index>> chunks_by_address(
      const Box& box) const;
  /// Makes chunks [first, total_chunks) of `meta` read as zeros (create
  /// and extend share this; extend passes the copy it has not committed
  /// yet). Raw: grows the .xta by truncate, storing nothing. Compressed:
  /// allocates a slot per chunk in `meta` and stores an encoded
  /// all-zeroes payload in each.
  [[nodiscard]] Status append_zero_chunks(Metadata& meta, std::uint64_t first);
  /// Cheap write-path entropy sampling for the drx doctor
  /// compression-would-pay hint (docs/COMPRESSION.md): every ~64th raw
  /// chunk write trial-encodes a bounded prefix and records the ratio.
  void sample_write_entropy(std::span<const std::byte> in);

  std::unique_ptr<pfs::Storage> meta_store_;
  std::unique_ptr<pfs::Storage> data_;
  Metadata meta_;
  ChunkSpace chunk_space_;
  /// Memoized run-coalesced copy plans shared by every box read/write of
  /// this file (unique_ptr: PlanCache holds a Mutex and DrxFile moves).
  std::unique_ptr<PlanCache> plan_cache_;
  io::PrefetchSink* prefetch_sink_ = nullptr;  ///< not owned; may be null
  /// Entropy-sampling clock for uncompressed writes. Plain (not atomic,
  /// keeps DrxFile movable): every caller already serializes chunk
  /// writes (ChunkCache behind its io mutex, everything else single
  /// threaded), and a skewed sample cadence would be harmless anyway.
  std::uint64_t write_sample_clock_ = 0;
};

/// The one decode on every chunk-read path (DrxFile::read_chunk,
/// ChunkCache fills, DrxMpFile zone reads): `chunk`, one whole chunk's
/// buffer, holds the stored bytes `e` describes at its front; they are
/// decoded through one chunk of `scratch` and the raw chunk is copied
/// back. A kNone extent (a raw chunk) is a no-op. A malformed stream
/// returns kCorrupt and dumps the flight recorder. Pure CPU; safe from
/// any thread with no lock held.
[[nodiscard]] Status decode_in_place(const Metadata::StorageExtent& e,
                                     std::size_t element_bytes,
                                     std::span<std::byte> chunk,
                                     std::vector<std::byte>& scratch);

/// The one metadata writer of both front doors (DrxFile::flush and
/// extend, DrxMpFile::create and commit_metadata): writes `meta`'s image at
/// offset 0 of `storage` and flushes it. Metadata::from_bytes ignores
/// any bytes past the image.
[[nodiscard]] Status write_metadata(pfs::Storage& storage,
                                    const Metadata& meta);

}  // namespace drx::core
