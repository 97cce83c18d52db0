#include "core/metadata.hpp"

#include <algorithm>

namespace drx::core {

namespace {
/// FNV-1a over the payload; cheap corruption tripwire for .xmd files.
std::uint64_t fnv1a(std::span<const std::byte> data) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ULL;
  }
  return h;
}
}  // namespace

Metadata::Metadata(ElementType t, MemoryOrder order, Shape elem_bounds,
                   Shape chunk_shape_in)
    : dtype(t),
      in_chunk_order(order),
      element_bounds(std::move(elem_bounds)),
      chunk_shape(std::move(chunk_shape_in)),
      mapping(ChunkSpace(chunk_shape, order)
                  .chunk_bounds_for(element_bounds)) {
  DRX_CHECK(element_bounds.size() == chunk_shape.size());
}

std::optional<std::uint64_t> Metadata::extend_elements(std::size_t dim,
                                                       std::uint64_t delta) {
  DRX_CHECK(dim < rank());
  element_bounds[dim] = checked_add(element_bounds[dim], delta);
  const Shape needed = chunk_space().chunk_bounds_for(element_bounds);
  if (needed[dim] <= mapping.bounds()[dim]) return std::nullopt;
  return mapping.extend(dim, needed[dim] - mapping.bounds()[dim]);
}

std::uint64_t Metadata::stored_data_bytes() const {
  if (!compressed()) return data_file_bytes();
  std::uint64_t end = 0;
  for (const ChunkSlot& s : chunk_table) {
    end = std::max(end, s.offset + s.stored);
  }
  return end;
}

std::uint64_t Metadata::stored_live_bytes() const {
  std::uint64_t total = 0;
  for (const ChunkSlot& s : chunk_table) total += s.stored;
  return total;
}

Metadata::StorageExtent Metadata::storage_extent(std::uint64_t address) const {
  if (!compressed()) {
    const std::uint64_t cb = chunk_bytes();
    return StorageExtent{checked_mul(address, cb), cb, cb,
                         codec::CodecId::kNone};
  }
  DRX_CHECK(address < chunk_table.size());
  const ChunkSlot& s = chunk_table[checked_size(address)];
  return StorageExtent{s.offset, s.capacity, s.stored,
                       static_cast<codec::CodecId>(s.codec)};
}

bool Metadata::follows_on_storage(std::uint64_t prev,
                                  std::uint64_t next) const {
  const StorageExtent p = storage_extent(prev);
  return storage_extent(next).offset == p.offset + p.capacity;
}

std::uint64_t Metadata::address_order_runs() const {
  const std::uint64_t total = mapping.total_chunks();
  if (total == 0) return 0;
  std::uint64_t runs = 1;
  for (std::uint64_t q = 1; q < total; ++q) {
    if (!follows_on_storage(q - 1, q)) ++runs;
  }
  return runs;
}

std::vector<std::byte> Metadata::to_bytes() const {
  ByteWriter payload;
  payload.put_u8(static_cast<std::uint8_t>(dtype));
  payload.put_u8(static_cast<std::uint8_t>(in_chunk_order));
  payload.put_u32(static_cast<std::uint32_t>(rank()));
  for (std::uint64_t b : element_bounds) payload.put_u64(b);
  for (std::uint64_t c : chunk_shape) payload.put_u64(c);
  mapping.serialize(payload);
  if (compressed()) {
    payload.put_u8(static_cast<std::uint8_t>(codec));
    payload.put_u64(data_end);
    payload.put_u64(chunk_table.size());
    for (const ChunkSlot& s : chunk_table) {
      payload.put_u64(s.offset);
      payload.put_u32(s.stored);
      payload.put_u32(s.capacity);
      payload.put_u8(s.codec);
    }
  }

  ByteWriter out;
  out.put_u32(kMagic);
  out.put_u32(compressed() ? kVersionCompressed : kVersion);
  out.put_u64(payload.size());
  out.put_u64(fnv1a(payload.bytes()));
  out.put_bytes(payload.bytes());
  return std::move(out).take();
}

Result<Metadata> Metadata::from_bytes(std::span<const std::byte> data) {
  ByteReader reader(data);
  DRX_ASSIGN_OR_RETURN(std::uint32_t magic, reader.get_u32());
  if (magic != kMagic) {
    return Status(ErrorCode::kCorrupt, "bad .xmd magic");
  }
  DRX_ASSIGN_OR_RETURN(std::uint32_t version, reader.get_u32());
  if (version != kVersion && version != kVersionCompressed) {
    return Status(ErrorCode::kUnsupported, ".xmd version not supported");
  }
  DRX_ASSIGN_OR_RETURN(std::uint64_t payload_len, reader.get_u64());
  DRX_ASSIGN_OR_RETURN(std::uint64_t checksum, reader.get_u64());
  if (reader.remaining() < payload_len) {
    return Status(ErrorCode::kCorrupt, ".xmd truncated");
  }
  const std::span<const std::byte> payload =
      data.subspan(data.size() - reader.remaining(),
                   static_cast<std::size_t>(payload_len));
  if (fnv1a(payload) != checksum) {
    return Status(ErrorCode::kCorrupt, ".xmd checksum mismatch");
  }

  ByteReader body(payload);
  Metadata meta;
  DRX_ASSIGN_OR_RETURN(std::uint8_t dtype_raw, body.get_u8());
  if (dtype_raw > static_cast<std::uint8_t>(ElementType::kComplexDouble)) {
    return Status(ErrorCode::kCorrupt, "unknown element type");
  }
  meta.dtype = static_cast<ElementType>(dtype_raw);
  DRX_ASSIGN_OR_RETURN(std::uint8_t order_raw, body.get_u8());
  if (order_raw > 1) {
    return Status(ErrorCode::kCorrupt, "unknown in-chunk order");
  }
  meta.in_chunk_order = static_cast<MemoryOrder>(order_raw);
  DRX_ASSIGN_OR_RETURN(std::uint32_t k, body.get_u32());
  if (k == 0 || k > 64) {
    return Status(ErrorCode::kCorrupt, "implausible rank");
  }
  meta.element_bounds.resize(k);
  for (auto& b : meta.element_bounds) {
    DRX_ASSIGN_OR_RETURN(b, body.get_u64());
  }
  meta.chunk_shape.resize(k);
  for (auto& c : meta.chunk_shape) {
    DRX_ASSIGN_OR_RETURN(c, body.get_u64());
    if (c == 0) return Status(ErrorCode::kCorrupt, "zero chunk extent");
  }
  DRX_ASSIGN_OR_RETURN(meta.mapping, AxialMapping::deserialize(body));
  if (meta.mapping.rank() != k) {
    return Status(ErrorCode::kCorrupt, "mapping rank mismatch");
  }
  // chunk_bytes() and data_file_bytes() abort on overflow; a hostile
  // shape must fail here instead.
  const std::optional<std::uint64_t> chunk_elems = try_product(meta.chunk_shape);
  const std::optional<std::uint64_t> chunk_sz =
      chunk_elems ? try_mul(*chunk_elems, meta.element_bytes()) : std::nullopt;
  if (!chunk_sz || !try_mul(meta.mapping.total_chunks(), *chunk_sz)) {
    return Status(ErrorCode::kCorrupt, "array size overflows");
  }
  // The chunk grid must cover the element bounds.
  const Shape expect =
      meta.chunk_space().chunk_bounds_for(meta.element_bounds);
  for (std::size_t d = 0; d < k; ++d) {
    if (meta.mapping.bounds()[d] < expect[d]) {
      return Status(ErrorCode::kCorrupt,
                    "chunk grid does not cover element bounds");
    }
  }

  if (version == kVersionCompressed) {
    DRX_ASSIGN_OR_RETURN(std::uint8_t codec_raw, body.get_u8());
    if (!codec::valid_codec(codec_raw) ||
        codec_raw == static_cast<std::uint8_t>(codec::CodecId::kNone)) {
      return Status(ErrorCode::kCorrupt, "bad array codec id");
    }
    meta.codec = static_cast<codec::CodecId>(codec_raw);
    DRX_ASSIGN_OR_RETURN(meta.data_end, body.get_u64());
    DRX_ASSIGN_OR_RETURN(std::uint64_t slots, body.get_u64());
    constexpr std::uint64_t kSlotBytes = 8 + 4 + 4 + 1;
    if (slots != meta.mapping.total_chunks() ||
        slots > body.remaining() / kSlotBytes) {
      return Status(ErrorCode::kCorrupt,
                    "chunk table does not match the chunk grid");
    }
    meta.chunk_table.resize(checked_size(slots));
    for (ChunkSlot& s : meta.chunk_table) {
      DRX_ASSIGN_OR_RETURN(s.offset, body.get_u64());
      DRX_ASSIGN_OR_RETURN(s.stored, body.get_u32());
      DRX_ASSIGN_OR_RETURN(s.capacity, body.get_u32());
      DRX_ASSIGN_OR_RETURN(s.codec, body.get_u8());
      if (!codec::valid_codec(s.codec) || s.stored > s.capacity ||
          s.capacity > meta.data_end ||
          s.offset > meta.data_end - s.capacity) {
        return Status(ErrorCode::kCorrupt, "chunk slot out of bounds");
      }
      const bool raw_slot =
          s.codec == static_cast<std::uint8_t>(codec::CodecId::kNone);
      if (raw_slot ? s.stored != *chunk_sz
                   : (s.stored == 0 || s.stored >= *chunk_sz)) {
        return Status(ErrorCode::kCorrupt, "chunk slot size implausible");
      }
    }
    // Live bytes of two slots never share a byte: cache fills read
    // across the holes between slots in offset order (data sieving),
    // which needs every hole to have a non-negative length.
    std::vector<const ChunkSlot*> by_offset;
    by_offset.reserve(meta.chunk_table.size());
    for (const ChunkSlot& s : meta.chunk_table) by_offset.push_back(&s);
    std::sort(by_offset.begin(), by_offset.end(),
              [](const ChunkSlot* a, const ChunkSlot* b) {
                return a->offset < b->offset;
              });
    for (std::size_t i = 1; i < by_offset.size(); ++i) {
      if (by_offset[i - 1]->offset + by_offset[i - 1]->stored >
          by_offset[i]->offset) {
        return Status(ErrorCode::kCorrupt, "chunk slots overlap");
      }
    }
  }
  return meta;
}

}  // namespace drx::core
