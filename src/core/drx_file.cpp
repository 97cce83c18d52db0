#include "core/drx_file.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/scatter.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace drx::core {

namespace {

/// Slot reservation for `stored` bytes: ~12.5% headroom rounded up to
/// 64 so most re-encodes of mutated chunks still fit in place, capped
/// at the raw chunk size (a slot never needs more — incompressible
/// chunks are stored raw).
std::uint64_t slot_capacity(std::uint64_t stored, std::uint64_t chunk_sz) {
  const std::uint64_t padded = (stored + stored / 8 + 63) / 64 * 64;
  return std::min(chunk_sz, std::max<std::uint64_t>(padded, 64));
}

/// How DrxFile::read_chunks_stored splits a read of a list of chunks
/// into storage requests.
struct ReadPlan {
  struct Request {
    std::size_t begin;  ///< [begin, end) into `order`
    std::size_t end;
    std::uint64_t lo;  ///< the request reads [lo, hi)
    std::uint64_t hi;
    std::uint64_t hi_cap;  ///< end of the last reservation
  };
  std::vector<std::size_t> order;  ///< `extents` indices by storage offset
  std::vector<Request> requests;   ///< ascending, disjoint ranges
};

/// Groups `addresses` (all in range; `extents` their storage extents, in
/// the same order) by where the chunks sit in the .xta,
/// not by address: compressed slots sit wherever they were last written,
/// so address neighbours may be far apart while storage neighbours are
/// not. Walking the list in storage order, a request grows while the
/// next chunk follows the previous one on storage
/// (Metadata::follows_on_storage) or the hole up to it costs less to
/// read across than the request and seek a new one would (data sieving:
/// Storage::sieve_gap_bytes, from the device's own cost model).
ReadPlan plan_reads(const Metadata& meta, const pfs::Storage& data,
                    std::span<const std::uint64_t> addresses,
                    std::span<const Metadata::StorageExtent> extents) {
  ReadPlan plan;
  const std::size_t n = addresses.size();
  plan.order.resize(n);
  std::iota(plan.order.begin(), plan.order.end(), std::size_t{0});
  std::sort(plan.order.begin(), plan.order.end(),
            [&](std::size_t a, std::size_t b) {
              return extents[a].offset < extents[b].offset;
            });
  const std::uint64_t sieve_gap = data.sieve_gap_bytes();
  for (std::size_t k = 0; k < n; ++k) {
    const Metadata::StorageExtent& p = extents[plan.order[k]];
    const std::uint64_t end = p.offset + p.stored;
    if (!plan.requests.empty()) {
      ReadPlan::Request& r = plan.requests.back();
      // Live slots never overlap (Metadata::from_bytes checks), so only a
      // chunk listed twice starts before the request ends.
      const std::uint64_t hole = p.offset > r.hi ? p.offset - r.hi : 0;
      if (hole < sieve_gap ||
          meta.follows_on_storage(addresses[plan.order[k - 1]],
                                  addresses[plan.order[k]])) {
        r.end = k + 1;
        r.hi = std::max(r.hi, end);
        r.hi_cap = std::max(r.hi_cap, p.offset + p.capacity);
        continue;
      }
    }
    plan.requests.push_back(
        ReadPlan::Request{k, k + 1, p.offset, end, p.offset + p.capacity});
  }
  // Read through a run's last capacity slack (when those bytes exist on
  // disk) so consecutive batch reads over a packed layout stay
  // head-contiguous: a streaming scan then costs one seek total, not one
  // per batch. A lone chunk reads its live bytes only; the next request
  // rarely starts where its slot ends.
  for (ReadPlan::Request& r : plan.requests) {
    if (r.end - r.begin > 1) {
      r.hi = std::max(r.hi, std::min(r.hi_cap, data.size()));
    }
  }
  return plan;
}

}  // namespace

Result<DrxFile> DrxFile::create(std::unique_ptr<pfs::Storage> meta_storage,
                                std::unique_ptr<pfs::Storage> data_storage,
                                Shape element_bounds, Shape chunk_shape,
                                const Options& options) {
  if (element_bounds.size() != chunk_shape.size() || element_bounds.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "element bounds and chunk shape must have equal rank >= 1");
  }
  for (std::uint64_t c : chunk_shape) {
    if (c == 0) {
      return Status(ErrorCode::kInvalidArgument, "zero chunk extent");
    }
  }
  Metadata meta(options.dtype, options.in_chunk_order,
                std::move(element_bounds), std::move(chunk_shape));
  meta.codec = options.codec.value_or(codec::default_codec());
  if (meta.compressed() &&
      meta.chunk_bytes() > std::numeric_limits<std::uint32_t>::max()) {
    return Status(ErrorCode::kUnsupported,
                  "chunk too large for the per-chunk slot table");
  }
  DrxFile file(std::move(meta_storage), std::move(data_storage),
               std::move(meta));
  // Every allocated chunk is readable immediately, as zeros.
  DRX_RETURN_IF_ERROR(file.data_->truncate(0));
  DRX_RETURN_IF_ERROR(file.append_zero_chunks(file.meta_, 0));
  DRX_RETURN_IF_ERROR(file.flush());
  return file;
}

Result<DrxFile> DrxFile::open(std::unique_ptr<pfs::Storage> meta_storage,
                              std::unique_ptr<pfs::Storage> data_storage) {
  std::vector<std::byte> image(
      checked_size(meta_storage->size()));
  DRX_RETURN_IF_ERROR(meta_storage->read_at(0, image));
  DRX_ASSIGN_OR_RETURN(Metadata meta, Metadata::from_bytes(image));
  if (data_storage->size() < meta.stored_data_bytes()) {
    return Status(ErrorCode::kCorrupt,
                  ".xta smaller than the metadata requires");
  }
  return DrxFile(std::move(meta_storage), std::move(data_storage),
                 std::move(meta));
}

Result<DrxFile> DrxFile::create_posix(const std::string& name,
                                      Shape element_bounds, Shape chunk_shape,
                                      const Options& options) {
  DRX_ASSIGN_OR_RETURN(auto meta_storage,
                       pfs::PosixStorage::open(name + ".xmd"));
  DRX_ASSIGN_OR_RETURN(auto data_storage,
                       pfs::PosixStorage::open(name + ".xta"));
  return create(std::move(meta_storage), std::move(data_storage),
                std::move(element_bounds), std::move(chunk_shape), options);
}

Result<DrxFile> DrxFile::open_posix(const std::string& name) {
  DRX_ASSIGN_OR_RETURN(auto meta_storage,
                       pfs::PosixStorage::open(name + ".xmd"));
  DRX_ASSIGN_OR_RETURN(auto data_storage,
                       pfs::PosixStorage::open(name + ".xta"));
  return open(std::move(meta_storage), std::move(data_storage));
}

Status write_metadata(pfs::Storage& storage, const Metadata& meta) {
  // No truncate first: a crash between it and the write would leave an
  // empty .xmd.
  DRX_RETURN_IF_ERROR(storage.write_at(0, meta.to_bytes()));
  return storage.flush();
}

Status DrxFile::flush() {
  DRX_RETURN_IF_ERROR(write_metadata(*meta_store_, meta_));
  return data_->flush();
}

Status DrxFile::extend(std::size_t dim, std::uint64_t delta) {
  obs::OpScope op("op.extend");
  if (dim >= rank()) {
    return Status(ErrorCode::kInvalidArgument, "dimension out of range");
  }
  if (delta == 0) return Status::ok();

  // Extend a copy and swap it in once the .xmd commit succeeds: a failed
  // .xta growth or commit leaves the array as it was, so a retry grows it
  // by delta, not twice.
  Metadata next = meta_;
  if (const auto first = next.extend_elements(dim, delta)) {
    DRX_RETURN_IF_ERROR(append_zero_chunks(next, *first));
  }
  DRX_RETURN_IF_ERROR(write_metadata(*meta_store_, next));
  meta_ = std::move(next);
  return data_->flush();
}

Status DrxFile::check_index(std::span<const std::uint64_t> index) const {
  if (index.size() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "index rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (index[d] >= meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "element index out of bounds");
    }
  }
  return Status::ok();
}

Status DrxFile::read_element(std::span<const std::uint64_t> index,
                             std::span<std::byte> out) {
  obs::OpScope op("op.read_element");
  DRX_RETURN_IF_ERROR(check_index(index));
  DRX_CHECK(out.size() == element_bytes());
  const Index chunk = chunk_space_.chunk_of(index);
  const std::uint64_t q = meta_.mapping.address_of(chunk);
  const std::uint64_t off = chunk_space_.offset_in_chunk(index);
  if (compressed()) {
    // Sub-chunk byte offsets have no storage address once chunks are
    // encoded: decode the whole chunk and pick the element out.
    std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    std::memcpy(out.data(),
                chunk_buf.data() + checked_size(checked_mul(off, element_bytes())),
                checked_size(element_bytes()));
    return Status::ok();
  }
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->read_at(
      checked_add(checked_mul(q, meta_.chunk_bytes()),
                  checked_mul(off, element_bytes())),
      out);
}

Status DrxFile::write_element(std::span<const std::uint64_t> index,
                              std::span<const std::byte> value) {
  obs::OpScope op("op.write_element");
  DRX_RETURN_IF_ERROR(check_index(index));
  DRX_CHECK(value.size() == element_bytes());
  const Index chunk = chunk_space_.chunk_of(index);
  const std::uint64_t q = meta_.mapping.address_of(chunk);
  const std::uint64_t off = chunk_space_.offset_in_chunk(index);
  if (compressed()) {
    // Whole-chunk read-modify-write: the encoded neighbours share the
    // stored stream with this element.
    std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    std::memcpy(chunk_buf.data() +
                    checked_size(checked_mul(off, element_bytes())),
                value.data(), checked_size(element_bytes()));
    return write_chunk(q, chunk_buf);
  }
  obs::StageTimer io(obs::Stage::kIoService);
  return data_->write_at(
      checked_add(checked_mul(q, meta_.chunk_bytes()),
                  checked_mul(off, element_bytes())),
      value);
}

void DrxFile::scatter_chunk(std::span<const std::byte> chunk, const Box& clip,
                            const Box& box, MemoryOrder order,
                            std::span<std::byte> out) const {
  if (clip.empty()) return;
  obs::StageTimer copy(obs::Stage::kCopy);
  plan_cache_->scatter(clip, box, order, chunk, out);
}

void DrxFile::gather_chunk(std::span<std::byte> chunk, const Box& clip,
                           const Box& box, MemoryOrder order,
                           std::span<const std::byte> in) const {
  if (clip.empty()) return;
  obs::StageTimer copy(obs::Stage::kCopy);
  plan_cache_->gather(clip, box, order, chunk, in);
}

std::vector<std::pair<std::uint64_t, Index>> DrxFile::chunks_by_address(
    const Box& box) const {
  std::vector<std::pair<std::uint64_t, Index>> chunks;
  for_each_index(chunk_space_.covering_chunks(box), [&](const Index& cidx) {
    chunks.emplace_back(meta_.mapping.address_of(cidx), cidx);
  });
  std::sort(chunks.begin(), chunks.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return chunks;
}

Status DrxFile::read_box(const Box& box, MemoryOrder order,
                         std::span<std::byte> out) {
  obs::OpScope op("op.read_box");
  if (box.rank() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "box rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }
  DRX_CHECK(out.size() == checked_mul(box.volume(), element_bytes()));
  if (box.empty()) return Status::ok();

  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  Status status;
  for (const auto& [q, cidx] : chunks_by_address(box)) {
    status = read_chunk(q, chunk_buf);
    if (!status.is_ok()) break;
    const Box clip = chunk_space_.chunk_box(cidx).intersect(box);
    scatter_chunk(chunk_buf, clip, box, order, out);
  }
  return status;
}

Status DrxFile::write_box(const Box& box, MemoryOrder order,
                          std::span<const std::byte> in) {
  obs::OpScope op("op.write_box");
  if (box.rank() != rank()) {
    return Status(ErrorCode::kInvalidArgument, "box rank mismatch");
  }
  for (std::size_t d = 0; d < rank(); ++d) {
    if (box.hi[d] > meta_.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }
  DRX_CHECK(in.size() == checked_mul(box.volume(), element_bytes()));
  if (box.empty()) return Status::ok();

  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  Status status;
  for (const auto& [q, cidx] : chunks_by_address(box)) {
    const Box chunk_box = chunk_space_.chunk_box(cidx);
    const Box clip = chunk_box.intersect(box);
    // Read-modify-write unless the chunk is fully covered by the box.
    if (clip == chunk_box) {
      std::memset(chunk_buf.data(), 0, chunk_buf.size());
    } else {
      status = read_chunk(q, chunk_buf);
      if (!status.is_ok()) break;
    }
    gather_chunk(chunk_buf, clip, box, order, in);
    status = write_chunk(q, chunk_buf);
    if (!status.is_ok()) break;
  }
  return status;
}

Status DrxFile::scan_read_all(MemoryOrder order, std::span<std::byte> out) {
  obs::OpScope op("op.scan_read_all");
  const Box full{Index(rank(), 0), meta_.element_bounds};
  DRX_CHECK(out.size() == checked_mul(full.volume(), element_bytes()));
  std::vector<std::byte> chunk_buf(checked_size(meta_.chunk_bytes()));
  // One strictly sequential pass over the .xta file; F*^-1 recovers each
  // chunk's grid coordinates for placement.
  for (std::uint64_t q = 0; q < meta_.mapping.total_chunks(); ++q) {
    DRX_RETURN_IF_ERROR(read_chunk(q, chunk_buf));
    const Index cidx = meta_.mapping.index_of(q);
    const Box clip = chunk_space_.chunk_box(cidx).intersect(full);
    if (clip.empty()) continue;  // chunk entirely in the slack region
    scatter_chunk(chunk_buf, clip, full, order, out);
  }
  return Status::ok();
}

Status DrxFile::read_chunk(std::uint64_t address, std::span<std::byte> out) {
  DRX_CHECK(out.size() == meta_.chunk_bytes());
  std::byte* const into[] = {out.data()};
  std::vector<Metadata::StorageExtent> extents;
  DRX_RETURN_IF_ERROR(read_chunks_stored({&address, 1}, into, extents));
  std::vector<std::byte> scratch;
  return decode_in_place(extents[0], checked_size(element_bytes()), out,
                         scratch);
}

void DrxFile::prefetch_box(const Box& box) {
  if (prefetch_sink_ == nullptr) return;
  const Box clipped = box.intersect(Box{Index(rank(), 0), bounds()});
  if (clipped.empty()) return;
  // The plain address list: grouping by storage position needs the slot
  // table, which only read_chunks_stored reads (under the cache's io
  // mutex, while write-behind may move slots).
  std::vector<std::uint64_t> addresses;
  for_each_index(chunk_space_.covering_chunks(clipped), [&](const Index& c) {
    addresses.push_back(meta_.mapping.address_of(c));
  });
  prefetch_sink_->prefetch_chunks(addresses);
}

Status DrxFile::write_chunk(std::uint64_t address,
                            std::span<const std::byte> in) {
  std::vector<std::byte> scratch;
  return write_chunk_encoded(address, encode_chunk(in, scratch));
}

// ---- split codec / storage API (docs/COMPRESSION.md) --------------------

DrxFile::EncodedChunk DrxFile::encode_chunk(
    std::span<const std::byte> raw, std::vector<std::byte>& scratch) const {
  DRX_CHECK(raw.size() == meta_.chunk_bytes());
  if (!compressed()) return EncodedChunk{codec::CodecId::kNone, raw};
  static const obs::MetricId kEncodeUs =
      obs::histogram_id("core.codec.encode_us");
  scratch.resize(codec::max_encoded_bytes(raw.size(),
                                          checked_size(element_bytes())));
  std::size_t n = 0;
  {
    obs::ScopedTimer timer(kEncodeUs);
    n = codec::encode(meta_.codec, raw, checked_size(element_bytes()),
                      scratch);
  }
  if (n == 0) return EncodedChunk{codec::CodecId::kNone, raw};
  return EncodedChunk{meta_.codec,
                      std::span<const std::byte>(scratch.data(), n)};
}

Status DrxFile::write_chunk_encoded(std::uint64_t address,
                                    const EncodedChunk& enc) {
  if (address >= meta_.mapping.total_chunks()) {
    return Status(ErrorCode::kOutOfRange, "chunk address out of range");
  }
  static const obs::MetricId kWrites = obs::counter_id("core.chunk_writes");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_written");
  static const obs::MetricId kRaw = obs::counter_id("core.codec.bytes_raw");
  static const obs::MetricId kStored =
      obs::counter_id("core.codec.bytes_stored");
  static const obs::MetricId kRelocs =
      obs::counter_id("core.codec.slot_relocations");
  static const obs::MetricId kFrag =
      obs::counter_id("core.codec.frag_bytes");
  const std::uint64_t cb = meta_.chunk_bytes();
  obs::registry().counter(kWrites).add();
  obs::registry().counter(kBytes).add(cb);  // logical bytes, as ever
  if (compressed()) {
    obs::registry().counter(kRaw).add(cb);
    obs::registry().counter(kStored).add(enc.bytes.size());
  } else {
    DRX_CHECK(enc.codec == codec::CodecId::kNone && enc.bytes.size() == cb);
    sample_write_entropy(enc.bytes);
  }
  obs::ScopedSpan span("core.write_chunk", "core", enc.bytes.size());

  const Metadata::StorageExtent e = meta_.storage_extent(address);
  obs::StageTimer io(obs::Stage::kIoService);
  const bool fits = enc.bytes.size() <= e.capacity;  // a raw chunk always
  const std::uint64_t offset = fits ? e.offset : meta_.data_end;
  DRX_RETURN_IF_ERROR(data_->write_at(offset, enc.bytes));
  if (!compressed()) return Status::ok();  // a raw chunk has no slot
  ChunkSlot& slot = meta_.chunk_table[checked_size(address)];
  const auto stored = static_cast<std::uint32_t>(enc.bytes.size());
  if (!fits) {
    // Relocated to the end of the file; the old slot leaks (append-only,
    // like extension — drx inspect reports the frag).
    obs::registry().counter(kRelocs).add();
    obs::registry().counter(kFrag).add(slot.capacity);
    slot.offset = offset;
    slot.capacity = static_cast<std::uint32_t>(slot_capacity(stored, cb));
    meta_.data_end = checked_add(offset, slot.capacity);
  }
  slot.stored = stored;
  slot.codec = static_cast<std::uint8_t>(enc.codec);
  return Status::ok();
}

Result<DrxFile::EncodedChunk> DrxFile::read_chunk_stored(
    std::uint64_t address, std::vector<std::byte>& scratch) {
  scratch.resize(checked_size(meta_.chunk_bytes()));
  std::byte* const into[] = {scratch.data()};
  std::vector<Metadata::StorageExtent> extents;
  DRX_RETURN_IF_ERROR(read_chunks_stored({&address, 1}, into, extents));
  return EncodedChunk{extents[0].codec,
                      std::span<const std::byte>(
                          scratch.data(), checked_size(extents[0].stored))};
}

Status decode_in_place(const Metadata::StorageExtent& e,
                       std::size_t element_bytes, std::span<std::byte> chunk,
                       std::vector<std::byte>& scratch) {
  if (e.codec == codec::CodecId::kNone) return Status::ok();  // landed raw
  DRX_CHECK(e.stored <= chunk.size());
  static const obs::MetricId kDecodeUs =
      obs::histogram_id("core.codec.decode_us");
  scratch.resize(chunk.size());
  Status st;
  {
    obs::ScopedTimer timer(kDecodeUs);
    st = codec::decode(e.codec, chunk.first(checked_size(e.stored)),
                       element_bytes, scratch);
  }
  if (st.is_ok()) {
    std::memcpy(chunk.data(), scratch.data(), chunk.size());
  } else if (obs::flight_enabled()) {
    // Same discipline as deferred write-back errors: capture the causal
    // context the moment damage is detected — the clean kCorrupt Status
    // still propagates to the caller.
    const Status ds = obs::dump_flight("corrupt-chunk");
    if (!ds.is_ok()) {
      DRX_LOG(kError) << "flight dump failed: " << ds.to_string();
    }
  }
  return st;
}

Status DrxFile::read_chunks_stored(
    std::span<const std::uint64_t> addresses, std::span<std::byte* const> into,
    std::vector<Metadata::StorageExtent>& extents) {
  DRX_CHECK(into.size() == addresses.size());
  extents.clear();
  if (addresses.empty()) return Status::ok();
  const std::uint64_t total = meta_.mapping.total_chunks();
  extents.reserve(addresses.size());
  std::uint64_t live_bytes = 0;
  for (const std::uint64_t q : addresses) {
    if (q >= total) {
      return Status(ErrorCode::kOutOfRange, "chunk address out of range");
    }
    extents.push_back(meta_.storage_extent(q));
    live_bytes += extents.back().stored;
  }
  const std::size_t n = addresses.size();
  const ReadPlan plan = plan_reads(meta_, *data_, addresses, extents);

  const std::uint64_t cb = meta_.chunk_bytes();
  static const obs::MetricId kReads = obs::counter_id("core.chunk_reads");
  static const obs::MetricId kBatches =
      obs::counter_id("core.chunk_read_batches");
  static const obs::MetricId kBytes = obs::counter_id("core.bytes_read");
  obs::registry().counter(kReads).add(n);
  obs::registry().counter(kBatches).add();
  obs::registry().counter(kBytes).add(checked_mul(n, cb));

  // Each request copies only live bytes (Storage::read_gather), each
  // chunk's to the front of its own buffer.
  obs::ScopedSpan span("core.read_chunks", "core", checked_size(live_bytes));
  obs::StageTimer io(obs::Stage::kIoService);
  std::vector<pfs::GatherPiece> gather;
  for (const ReadPlan::Request& r : plan.requests) {
    gather.clear();
    for (std::size_t k = r.begin; k < r.end; ++k) {
      const std::size_t i = plan.order[k];
      DRX_CHECK(extents[i].stored <= cb);  // Metadata::from_bytes checks it
      gather.push_back(pfs::GatherPiece{
          extents[i].offset,
          std::span<std::byte>(into[i], checked_size(extents[i].stored))});
    }
    DRX_RETURN_IF_ERROR(data_->read_gather(r.lo, r.hi, gather));
  }
  return Status::ok();
}

Status DrxFile::append_zero_chunks(Metadata& meta, std::uint64_t first) {
  if (!compressed()) {
    // Never-written bytes read as zeros on every Storage: growing the
    // .xta stores nothing (existing bytes past it, if any, are left be).
    const std::uint64_t end = meta.data_file_bytes();
    return data_->size() < end ? data_->truncate(end) : Status::ok();
  }
  const std::uint64_t cb = meta.chunk_bytes();
  std::vector<std::byte> zeros(checked_size(cb), std::byte{0});
  std::vector<std::byte> scratch;
  // All appended chunks share one encoded image (but each gets its own
  // slot so later rewrites stay independent).
  const EncodedChunk enc = encode_chunk(zeros, scratch);
  const std::uint64_t total = meta.mapping.total_chunks();
  const auto stored = static_cast<std::uint32_t>(enc.bytes.size());
  const auto cap = static_cast<std::uint32_t>(slot_capacity(stored, cb));
  static const obs::MetricId kRaw = obs::counter_id("core.codec.bytes_raw");
  static const obs::MetricId kStored =
      obs::counter_id("core.codec.bytes_stored");
  meta.chunk_table.resize(checked_size(total));
  for (std::uint64_t q = first; q < total; ++q) {
    const std::uint64_t offset = meta.data_end;
    DRX_RETURN_IF_ERROR(data_->write_at(offset, enc.bytes));
    meta.chunk_table[q] = ChunkSlot{
        offset, stored, cap, static_cast<std::uint8_t>(enc.codec)};
    meta.data_end = checked_add(offset, cap);
    obs::registry().counter(kRaw).add(cb);
    obs::registry().counter(kStored).add(stored);
  }
  return Status::ok();
}

void DrxFile::sample_write_entropy(std::span<const std::byte> in) {
  // Every ~64th raw chunk write: trial-encode a bounded prefix so
  // drx doctor can hint when DRX_COMPRESS would pay. Amortized cost is
  // a <=4KiB scan per 64 chunk writes.
  if ((write_sample_clock_++ & 63) != 0) return;
  static const obs::MetricId kSamples =
      obs::counter_id("core.codec.samples");
  static const obs::MetricId kRatio =
      obs::histogram_id("core.codec.sample_ratio_pct");
  const std::size_t w = checked_size(element_bytes());
  const std::size_t sample = std::min<std::size_t>(in.size(), 4096 / w * w);
  if (sample == 0) return;
  std::vector<std::byte> scratch(sample);
  const std::size_t n =
      codec::encode(codec::CodecId::kRle, in.first(sample), w, scratch);
  const std::uint64_t pct =
      n == 0 ? 100 : (static_cast<std::uint64_t>(n) * 100) / sample;
  obs::registry().counter(kSamples).add();
  obs::registry().histogram(kRatio).observe(pct);
}

}  // namespace drx::core
