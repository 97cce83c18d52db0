#include "simpi/datatype.hpp"

#include <algorithm>
#include <cstring>

#include "util/checked.hpp"

namespace drx::simpi {

Datatype::Datatype(std::vector<Block> blocks, std::uint64_t extent)
    : blocks_(std::move(blocks)), extent_(extent) {
  normalize(blocks_);
  size_ = 0;
  for (const Block& b : blocks_) size_ = checked_add(size_, b.length);
}

void Datatype::normalize(std::vector<Block>& blocks) {
  std::erase_if(blocks, [](const Block& b) { return b.length == 0; });
  // Declaration order is semantic (MPI packs in type-map order, and memory
  // types like the paper's inMemoryMap are deliberately non-monotonic), so
  // blocks are NOT sorted. Overlap is still a construction error — MPI
  // forbids overlapping receive types, and enforcing it for sends too keeps
  // pack/unpack true inverses. Check on a sorted copy.
  std::vector<Block> sorted = blocks;
  std::sort(sorted.begin(), sorted.end(),
            [](const Block& a, const Block& b) { return a.offset < b.offset; });
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    DRX_CHECK_MSG(sorted[i].offset + sorted[i].length <= sorted[i + 1].offset,
                  "datatype blocks overlap");
  }
  // Coalesce runs that are adjacent both in declaration order and on disk.
  std::vector<Block> merged;
  for (const Block& b : blocks) {
    if (!merged.empty() &&
        merged.back().offset + merged.back().length == b.offset) {
      merged.back().length += b.length;
    } else {
      merged.push_back(b);
    }
  }
  blocks = std::move(merged);
}

Datatype Datatype::bytes(std::uint64_t n) {
  std::vector<Block> blocks;
  if (n > 0) blocks.push_back(Block{0, n});
  return Datatype(std::move(blocks), n);
}

Datatype Datatype::contiguous(std::uint64_t count, const Datatype& base) {
  std::vector<Block> blocks;
  blocks.reserve(checked_size(checked_mul(count, base.blocks_.size())));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t shift = checked_mul(i, base.extent_);
    for (const Block& b : base.blocks_) {
      blocks.push_back(Block{checked_add(shift, b.offset), b.length});
    }
  }
  return Datatype(std::move(blocks), checked_mul(count, base.extent_));
}

Datatype Datatype::vector(std::uint64_t count, std::uint64_t blocklen,
                          std::uint64_t stride, const Datatype& base) {
  DRX_CHECK_MSG(stride >= blocklen, "vector stride smaller than blocklen");
  std::vector<Block> blocks;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t origin = checked_mul(checked_mul(i, stride),
                                             base.extent_);
    if (base.is_dense()) {
      // Dense base: the whole blocklen run is one gap-free block.
      blocks.push_back(Block{origin, checked_mul(blocklen, base.extent_)});
      continue;
    }
    for (std::uint64_t j = 0; j < blocklen; ++j) {
      const std::uint64_t shift =
          checked_add(origin, checked_mul(j, base.extent_));
      for (const Block& b : base.blocks_) {
        blocks.push_back(Block{checked_add(shift, b.offset), b.length});
      }
    }
  }
  // MPI extent of a vector: from origin to the end of the last block.
  std::uint64_t extent = 0;
  if (count > 0) {
    extent = checked_mul(
        checked_add(checked_mul(count - 1, stride), blocklen), base.extent_);
  }
  return Datatype(std::move(blocks), extent);
}

Datatype Datatype::indexed(std::span<const std::uint64_t> blocklens,
                           std::span<const std::uint64_t> displs,
                           const Datatype& base) {
  DRX_CHECK(blocklens.size() == displs.size());
  std::vector<Block> blocks;
  std::uint64_t extent = 0;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    const std::uint64_t origin = checked_mul(displs[i], base.extent_);
    if (base.is_dense()) {
      blocks.push_back(Block{origin, checked_mul(blocklens[i], base.extent_)});
    } else {
      for (std::uint64_t j = 0; j < blocklens[i]; ++j) {
        const std::uint64_t shift =
            checked_add(origin, checked_mul(j, base.extent_));
        for (const Block& b : base.blocks_) {
          blocks.push_back(Block{checked_add(shift, b.offset), b.length});
        }
      }
    }
    extent = std::max(
        extent, checked_mul(checked_add(displs[i], blocklens[i]), base.extent_));
  }
  return Datatype(std::move(blocks), extent);
}

Datatype Datatype::hindexed(std::span<const std::uint64_t> blocklens,
                            std::span<const std::uint64_t> byte_displs,
                            const Datatype& base) {
  DRX_CHECK(blocklens.size() == byte_displs.size());
  std::vector<Block> blocks;
  std::uint64_t extent = 0;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    if (base.is_dense()) {
      blocks.push_back(
          Block{byte_displs[i], checked_mul(blocklens[i], base.extent_)});
    } else {
      for (std::uint64_t j = 0; j < blocklens[i]; ++j) {
        const std::uint64_t shift =
            checked_add(byte_displs[i], checked_mul(j, base.extent_));
        for (const Block& b : base.blocks_) {
          blocks.push_back(Block{checked_add(shift, b.offset), b.length});
        }
      }
    }
    extent = std::max(extent, checked_add(byte_displs[i],
                                          checked_mul(blocklens[i],
                                                      base.extent_)));
  }
  return Datatype(std::move(blocks), extent);
}

Datatype Datatype::subarray(std::span<const std::uint64_t> sizes,
                            std::span<const std::uint64_t> subsizes,
                            std::span<const std::uint64_t> starts, Order order,
                            const Datatype& base) {
  const std::size_t k = sizes.size();
  DRX_CHECK(subsizes.size() == k && starts.size() == k && k >= 1);
  for (std::size_t d = 0; d < k; ++d) {
    DRX_CHECK_MSG(checked_add(starts[d], subsizes[d]) <= sizes[d],
                  "subarray exceeds array bounds");
  }

  // Dimension strides of the containing array, in base-extent units.
  std::vector<std::uint64_t> stride(k, 1);
  if (order == Order::kC) {
    for (std::size_t d = k - 1; d-- > 0;) {
      stride[d] = checked_mul(stride[d + 1], sizes[d + 1]);
    }
  } else {
    for (std::size_t d = 1; d < k; ++d) {
      stride[d] = checked_mul(stride[d - 1], sizes[d - 1]);
    }
  }
  // The fastest-varying dimension: contiguous runs of subsizes[f] items.
  const std::size_t fastest = (order == Order::kC) ? k - 1 : 0;

  std::vector<Block> blocks;
  std::vector<std::uint64_t> idx(k, 0);
  for (;;) {
    std::uint64_t origin = 0;
    for (std::size_t d = 0; d < k; ++d) {
      origin = checked_add(
          origin, checked_mul(checked_add(starts[d], idx[d]), stride[d]));
    }
    const std::uint64_t run = subsizes[fastest];
    if (base.is_dense()) {
      // One Block per fastest-dimension row: the run-granular form the
      // file-view flattener consumes without any per-element merging.
      blocks.push_back(Block{checked_mul(origin, base.extent_),
                             checked_mul(run, base.extent_)});
    } else {
      for (std::uint64_t j = 0; j < run; ++j) {
        const std::uint64_t shift =
            checked_mul(checked_add(origin, j), base.extent_);
        for (const Block& b : base.blocks_) {
          blocks.push_back(Block{checked_add(shift, b.offset), b.length});
        }
      }
    }
    // Odometer over the non-fastest dimensions.
    std::size_t d = k;
    bool done = true;
    while (d-- > 0) {
      if (d == fastest) continue;
      if (++idx[d] < subsizes[d]) {
        done = false;
        break;
      }
      idx[d] = 0;
    }
    if (done) break;
  }
  const std::uint64_t extent =
      checked_mul(checked_product(sizes), base.extent_);
  return Datatype(std::move(blocks), extent);
}

Datatype Datatype::resized(std::uint64_t new_extent) const {
  Datatype copy = *this;
  copy.extent_ = new_extent;
  return copy;
}

bool Datatype::is_monotonic() const noexcept {
  for (std::size_t i = 0; i + 1 < blocks_.size(); ++i) {
    if (blocks_[i].offset + blocks_[i].length > blocks_[i + 1].offset) {
      return false;
    }
  }
  return true;
}

std::uint64_t Datatype::span_bytes(std::uint64_t count) const {
  if (count == 0 || blocks_.empty()) return 0;
  std::uint64_t max_end = 0;
  for (const Block& b : blocks_) {
    max_end = std::max(max_end, checked_add(b.offset, b.length));
  }
  return checked_add(checked_mul(count - 1, extent_), max_end);
}

Datatype::Cursor::Cursor(const Datatype& type, std::uint64_t count)
    : type_(&type), total_(checked_mul(count, type.size_)) {}

template <typename Fn>
void Datatype::Cursor::walk(std::uint64_t n, Fn&& fn) {
  DRX_CHECK_MSG(n <= remaining(), "cursor runs past the packed stream");
  const std::vector<Block>& blocks = type_->blocks_;
  std::uint64_t pos = 0;
  while (pos < n) {
    const Block& b = blocks[block_];
    const std::uint64_t take = std::min(n - pos, b.length - in_block_);
    fn(checked_add(checked_mul(item_, type_->extent_), b.offset + in_block_),
       pos, take);
    pos += take;
    in_block_ += take;
    if (in_block_ == b.length) {
      in_block_ = 0;
      if (++block_ == blocks.size()) {
        block_ = 0;
        ++item_;
      }
    }
  }
  done_ += n;
}

void Datatype::Cursor::gather(const std::byte* src, std::span<std::byte> out) {
  walk(out.size(), [&](std::uint64_t mem, std::uint64_t pos,
                       std::uint64_t len) {
    std::memcpy(out.data() + pos, src + mem, checked_size(len));
  });
}

void Datatype::Cursor::scatter(std::span<const std::byte> in, std::byte* dst) {
  walk(in.size(), [&](std::uint64_t mem, std::uint64_t pos,
                      std::uint64_t len) {
    std::memcpy(dst + mem, in.data() + pos, checked_size(len));
  });
}

void Datatype::pack(const std::byte* src, std::uint64_t count,
                    std::vector<std::byte>& out) const {
  const std::size_t at = out.size();
  out.resize(checked_add(at, checked_size(checked_mul(count, size_))));
  Cursor(*this, count).gather(src, std::span<std::byte>(out).subspan(at));
}

void Datatype::unpack(std::span<const std::byte> in, std::uint64_t count,
                      std::byte* dst) const {
  DRX_CHECK(in.size() == checked_mul(count, size_));
  Cursor(*this, count).scatter(in, dst);
}

}  // namespace drx::simpi
