#include "baselines/rowmajor_file.hpp"

#include <cstring>
#include <vector>

namespace drx::baselines {

using core::Box;
using core::Index;
using core::MemoryOrder;
using core::Shape;

Result<RowMajorFile> RowMajorFile::create(
    std::unique_ptr<pfs::Storage> storage, core::Shape bounds,
    std::uint64_t element_bytes) {
  if (bounds.empty() || element_bytes == 0) {
    return Status(ErrorCode::kInvalidArgument, "empty bounds or element");
  }
  RowMajorFile file(std::move(storage), std::move(bounds), element_bytes);
  DRX_RETURN_IF_ERROR(file.storage_->truncate(0));
  const std::uint64_t total =
      checked_mul(file.total_elements(), file.esize_);
  if (total > 0) {
    // Zero-fill sequentially in bounded slabs.
    constexpr std::uint64_t kSlab = 1 << 20;
    std::vector<std::byte> zeros(checked_size(std::min(total, kSlab)),
                                 std::byte{0});
    for (std::uint64_t off = 0; off < total; off += kSlab) {
      const std::uint64_t n = std::min(kSlab, total - off);
      DRX_RETURN_IF_ERROR(file.storage_->write_at(
          off, std::span<const std::byte>(zeros).first(checked_size(n))));
    }
  }
  return file;
}

Status RowMajorFile::read_element(std::span<const std::uint64_t> index,
                                  std::span<std::byte> out) {
  DRX_CHECK(out.size() == esize_);
  return storage_->read_at(offset_of(index), out);
}

Status RowMajorFile::write_element(std::span<const std::uint64_t> index,
                                   std::span<const std::byte> value) {
  DRX_CHECK(value.size() == esize_);
  return storage_->write_at(offset_of(index), value);
}

Status RowMajorFile::read_box(const Box& box, MemoryOrder order,
                              std::span<std::byte> out) {
  DRX_CHECK(box.rank() == bounds_.size());
  DRX_CHECK(out.size() == checked_mul(box.volume(), esize_));
  if (box.empty()) return Status::ok();
  const std::size_t k = bounds_.size();
  const Shape box_shape = box.shape();

  // Iterate the box with the file's innermost dimension innermost, so each
  // iteration covers one contiguous file run of box_shape[k-1] elements.
  Box outer = box;
  outer.lo.pop_back();
  outer.hi.pop_back();
  const std::uint64_t run_elems = box_shape[k - 1];
  const std::uint64_t run_bytes = checked_mul(run_elems, esize_);
  // Destination stride between consecutive run elements: 1 for row-major
  // (contiguous), the product of the leading box extents for col-major.
  // Precomputing it keeps the inner loop free of per-element linearize().
  std::uint64_t fast_step = 1;
  if (order == MemoryOrder::kColMajor) {
    for (std::size_t d = 0; d + 1 < k; ++d) {
      fast_step = checked_mul(fast_step, box_shape[d]);
    }
  }
  std::vector<std::byte> run(checked_size(run_bytes));
  Index idx(k);
  Index rel(k);
  Status status;
  auto body = [&](const Index& oidx) {
    if (!status.is_ok()) return;
    for (std::size_t d = 0; d + 1 < k; ++d) idx[d] = oidx[d];
    idx[k - 1] = box.lo[k - 1];
    status = storage_->read_at(offset_of(idx), run);
    if (!status.is_ok()) return;
    for (std::size_t d = 0; d < k; ++d) rel[d] = idx[d] - box.lo[d];
    const std::uint64_t dst0 = core::linearize(rel, box_shape, order);
    if (fast_step == 1) {
      // Destination is contiguous too: one memcpy.
      std::memcpy(out.data() + dst0 * esize_, run.data(),
                  checked_size(run_bytes));
    } else {
      for (std::uint64_t e = 0; e < run_elems; ++e) {
        std::memcpy(out.data() + (dst0 + e * fast_step) * esize_,
                    run.data() + e * esize_, checked_size(esize_));
      }
    }
  };
  if (k == 1) {
    Index none;
    body(none);
  } else {
    // drx-verify: allow(element-granular-copy) row-granular: each visit of
    // `body` moves one contiguous fastest-dim file run, not one element.
    core::for_each_index(outer, body);
  }
  return status;
}

Status RowMajorFile::write_box(const Box& box, MemoryOrder order,
                               std::span<const std::byte> in) {
  DRX_CHECK(box.rank() == bounds_.size());
  DRX_CHECK(in.size() == checked_mul(box.volume(), esize_));
  if (box.empty()) return Status::ok();
  const std::size_t k = bounds_.size();
  const Shape box_shape = box.shape();

  Box outer = box;
  outer.lo.pop_back();
  outer.hi.pop_back();
  const std::uint64_t run_elems = box_shape[k - 1];
  const std::uint64_t run_bytes = checked_mul(run_elems, esize_);
  // Source stride between consecutive run elements (see read_box).
  std::uint64_t fast_step = 1;
  if (order == MemoryOrder::kColMajor) {
    for (std::size_t d = 0; d + 1 < k; ++d) {
      fast_step = checked_mul(fast_step, box_shape[d]);
    }
  }
  std::vector<std::byte> run(checked_size(run_bytes));
  Index idx(k);
  Index rel(k);
  Status status;
  auto body = [&](const Index& oidx) {
    if (!status.is_ok()) return;
    for (std::size_t d = 0; d + 1 < k; ++d) idx[d] = oidx[d];
    idx[k - 1] = box.lo[k - 1];
    for (std::size_t d = 0; d < k; ++d) rel[d] = idx[d] - box.lo[d];
    const std::uint64_t src0 = core::linearize(rel, box_shape, order);
    if (fast_step == 1) {
      // Source run is contiguous: one memcpy into the staging row.
      std::memcpy(run.data(), in.data() + src0 * esize_,
                  checked_size(run_bytes));
    } else {
      for (std::uint64_t e = 0; e < run_elems; ++e) {
        std::memcpy(run.data() + e * esize_,
                    in.data() + (src0 + e * fast_step) * esize_,
                    checked_size(esize_));
      }
    }
    status = storage_->write_at(offset_of(idx), run);
  };
  if (k == 1) {
    Index none;
    body(none);
  } else {
    // drx-verify: allow(element-granular-copy) row-granular: each visit of
    // `body` moves one contiguous fastest-dim file run, not one element.
    core::for_each_index(outer, body);
  }
  return status;
}

Result<std::uint64_t> RowMajorFile::extend(std::size_t dim,
                                           std::uint64_t delta) {
  if (dim >= bounds_.size()) {
    return Status(ErrorCode::kInvalidArgument, "dimension out of range");
  }
  if (delta == 0) return std::uint64_t{0};

  if (dim == 0) {
    // The one cheap case: append zeroed records.
    const std::uint64_t old_bytes = checked_mul(total_elements(), esize_);
    bounds_[0] += delta;
    const std::uint64_t new_bytes = checked_mul(total_elements(), esize_);
    constexpr std::uint64_t kSlab = 1 << 20;
    std::vector<std::byte> zeros(
        checked_size(std::min(new_bytes - old_bytes, kSlab)), std::byte{0});
    for (std::uint64_t off = old_bytes; off < new_bytes; off += kSlab) {
      const std::uint64_t n = std::min(kSlab, new_bytes - off);
      DRX_RETURN_IF_ERROR(storage_->write_at(
          off, std::span<const std::byte>(zeros).first(checked_size(n))));
    }
    return std::uint64_t{0};
  }

  // Any other dimension: every element's address changes. Reorganize by a
  // full sequential read of the old image followed by a full sequential
  // write of the new image — the cheapest possible reorganization, and
  // still linear in the array size per extension step.
  const Shape old_bounds = bounds_;
  const std::uint64_t old_total = total_elements();
  const std::uint64_t old_bytes = checked_mul(old_total, esize_);
  std::vector<std::byte> old_image(checked_size(old_bytes));
  DRX_RETURN_IF_ERROR(storage_->read_at(0, old_image));

  bounds_[dim] += delta;
  const std::uint64_t new_bytes = checked_mul(total_elements(), esize_);
  std::vector<std::byte> new_image(checked_size(new_bytes), std::byte{0});
  // Relocate element-by-element (CPU-side; the I/O cost is the two passes).
  for (std::uint64_t a = 0; a < old_total; ++a) {
    const Index idx =
        core::delinearize(a, old_bounds, MemoryOrder::kRowMajor);
    const std::uint64_t b =
        core::linearize(idx, bounds_, MemoryOrder::kRowMajor);
    std::memcpy(new_image.data() + b * esize_, old_image.data() + a * esize_,
                checked_size(esize_));
  }
  DRX_RETURN_IF_ERROR(storage_->write_at(0, new_image));
  return old_bytes + new_bytes;
}

}  // namespace drx::baselines
