#include "core/axial_mapping.hpp"

#include <algorithm>

#include "util/checked.hpp"

namespace drx::core {

const ExpansionRecord& AxialVector::find(std::uint64_t index) const {
  DRX_CHECK_MSG(!records_.empty(), "axial vector has no records");
  // Records are appended with strictly increasing start_index, so the
  // modified binary search is upper_bound minus one.
  auto it = std::upper_bound(
      records_.begin(), records_.end(), index,
      [](std::uint64_t v, const ExpansionRecord& r) { return v < r.start_index; });
  DRX_CHECK_MSG(it != records_.begin(), "no record covers index 0");
  return *(it - 1);
}

void AxialVector::append(ExpansionRecord record) {
  if (!records_.empty()) {
    DRX_CHECK_MSG(record.start_index > records_.back().start_index,
                  "expansion records must have increasing start indices");
  }
  records_.push_back(std::move(record));
}

ExpansionRecord& AxialVector::back() {
  DRX_CHECK(!records_.empty());
  return records_.back();
}

AxialMapping::AxialMapping(Shape initial_bounds)
    : bounds_(std::move(initial_bounds)) {
  const std::size_t k = bounds_.size();
  DRX_CHECK_MSG(k >= 1, "rank must be at least 1");
  for (std::uint64_t b : bounds_) {
    DRX_CHECK_MSG(b >= 1, "initial chunk bounds must be at least 1");
  }
  axial_.resize(k);
  total_ = checked_product(bounds_);

  // Sentinel records for dimensions 0 .. k-2 (paper Fig. 3b: "0; -1; 0").
  for (std::size_t d = 0; d + 1 < k; ++d) {
    ExpansionRecord sentinel;
    sentinel.start_index = 0;
    sentinel.start_address = ExpansionRecord::kUnallocated;
    sentinel.coeffs.assign(k, 0);
    axial_[d].append(std::move(sentinel));
  }

  // The initial allocation is the first segment of dimension k-1 (paper
  // Fig. 3b records A[4][3][1]'s initial block in Γ_2): within it,
  // dimension k-1 is least-varying and the rest are row-major.
  ExpansionRecord initial;
  initial.start_index = 0;
  initial.start_address = 0;
  initial.coeffs = segment_coeffs(k - 1);
  initial.file_displacement = 0;
  axial_[k - 1].append(std::move(initial));

  history_.push_back(
      HistoryEntry{static_cast<std::uint32_t>(k - 1), 0, 0, total_});
}

std::vector<std::uint64_t> AxialMapping::segment_coeffs(
    std::size_t dim) const {
  const std::size_t k = rank();
  std::vector<std::uint64_t> coeffs(k, 1);
  // C_l = product of all other bounds.
  std::uint64_t cl = 1;
  for (std::size_t j = 0; j < k; ++j) {
    if (j != dim) cl = checked_mul(cl, bounds_[j]);
  }
  coeffs[dim] = cl;
  // C_j (j != dim) = product of bounds of later non-extended dimensions.
  std::uint64_t acc = 1;
  for (std::size_t j = k; j-- > 0;) {
    if (j == dim) continue;
    coeffs[j] = acc;
    acc = checked_mul(acc, bounds_[j]);
  }
  return coeffs;
}

const AxialVector& AxialMapping::axial_vector(std::size_t dim) const {
  DRX_CHECK(dim < rank());
  return axial_[dim];
}

std::uint64_t AxialMapping::total_records() const noexcept {
  std::uint64_t n = 0;
  for (const AxialVector& v : axial_) n += v.record_count();
  return n;
}

std::uint64_t AxialMapping::extend(std::size_t dim, std::uint64_t delta) {
  DRX_CHECK(dim < rank());
  DRX_CHECK_MSG(delta >= 1, "extension must add at least one chunk index");

  const std::uint64_t first_new_address = total_;
  const HistoryEntry& last = history_.back();

  // Uninterrupted extension: the most recent segment extends the same
  // dimension (and is not the initial allocation, which the paper keeps as
  // its own record) — grow it in place; coefficients are unchanged because
  // no other bound moved since that segment was created.
  const bool initial_segment = history_.size() == 1;
  if (!initial_segment && last.dim == dim) {
    const std::uint64_t per_index =
        axial_[dim].records()[last.record].coeffs[dim];
    const std::uint64_t added = checked_mul(delta, per_index);
    history_.back().chunk_count = checked_add(last.chunk_count, added);
    bounds_[dim] += delta;
    total_ = checked_add(total_, added);
    return first_new_address;
  }

  ExpansionRecord record;
  record.start_index = bounds_[dim];
  record.start_address = static_cast<std::int64_t>(total_);
  record.coeffs = segment_coeffs(dim);
  record.file_displacement = total_;
  const std::uint64_t per_index = record.coeffs[dim];
  axial_[dim].append(std::move(record));

  history_.push_back(HistoryEntry{
      static_cast<std::uint32_t>(dim),
      static_cast<std::uint32_t>(axial_[dim].record_count() - 1), total_,
      checked_mul(delta, per_index)});
  bounds_[dim] += delta;
  total_ = checked_add(total_, checked_mul(delta, per_index));
  return first_new_address;
}

std::uint64_t AxialMapping::address_of(
    std::span<const std::uint64_t> index) const {
  const std::size_t k = rank();
  DRX_CHECK(index.size() == k);
  for (std::size_t j = 0; j < k; ++j) {
    DRX_CHECK_MSG(index[j] < bounds_[j], "chunk index out of bounds");
  }

  // Find, per dimension, the covering record; the chunk lives in the
  // candidate segment with the maximum start address (paper Eq. 2).
  std::size_t z = 0;
  const ExpansionRecord* best = &axial_[0].find(index[0]);
  for (std::size_t j = 1; j < k; ++j) {
    const ExpansionRecord& r = axial_[j].find(index[j]);
    if (r.start_address > best->start_address) {
      best = &r;
      z = j;
    }
  }
  DRX_CHECK_MSG(best->start_address >= 0, "index maps to no segment");

  // Paper Eq. 1.
  std::uint64_t q = static_cast<std::uint64_t>(best->start_address);
  q = checked_add(q, checked_mul(index[z] - best->start_index,
                                 best->coeffs[z]));
  for (std::size_t j = 0; j < k; ++j) {
    if (j == z) continue;
    q = checked_add(q, checked_mul(index[j], best->coeffs[j]));
  }
  return q;
}

Index AxialMapping::index_of(std::uint64_t address) const {
  DRX_CHECK_MSG(address < total_, "chunk address out of bounds");
  // Segment containing the address: last history entry starting at or
  // before it (paper Sec. III-C: the maximum lower bound of q*).
  auto it = std::upper_bound(
      history_.begin(), history_.end(), address,
      [](std::uint64_t v, const HistoryEntry& h) {
        return v < h.start_address;
      });
  DRX_CHECK(it != history_.begin());
  const HistoryEntry& entry = *(it - 1);
  DRX_CHECK(address < entry.start_address + entry.chunk_count);

  const std::size_t k = rank();
  const std::size_t z = entry.dim;
  const ExpansionRecord& rec = axial_[z].records()[entry.record];

  Index index(k, 0);
  std::uint64_t r = address - entry.start_address;
  index[z] = rec.start_index + r / rec.coeffs[z];
  r %= rec.coeffs[z];
  for (std::size_t j = 0; j < k; ++j) {
    if (j == z) continue;
    index[j] = r / rec.coeffs[j];
    r %= rec.coeffs[j];
  }
  DRX_CHECK(r == 0);
  return index;
}

void AxialMapping::serialize(ByteWriter& out) const {
  out.put_u32(static_cast<std::uint32_t>(rank()));
  for (std::uint64_t b : bounds_) out.put_u64(b);
  out.put_u64(total_);
  for (const AxialVector& v : axial_) {
    out.put_u32(static_cast<std::uint32_t>(v.record_count()));
    for (const ExpansionRecord& r : v.records()) {
      out.put_u64(r.start_index);
      out.put_i64(r.start_address);
      for (std::uint64_t c : r.coeffs) out.put_u64(c);
      out.put_u64(r.file_displacement);
    }
  }
  out.put_u32(static_cast<std::uint32_t>(history_.size()));
  for (const HistoryEntry& h : history_) {
    out.put_u32(h.dim);
    out.put_u32(h.record);
    out.put_u64(h.start_address);
    out.put_u64(h.chunk_count);
  }
}

Result<AxialMapping> AxialMapping::deserialize(ByteReader& in) {
  AxialMapping m;
  DRX_ASSIGN_OR_RETURN(std::uint32_t k, in.get_u32());
  if (k == 0 || k > 64) {
    return Status(ErrorCode::kCorrupt, "implausible rank in metadata");
  }
  m.bounds_.resize(k);
  for (auto& b : m.bounds_) {
    DRX_ASSIGN_OR_RETURN(b, in.get_u64());
    if (b == 0) return Status(ErrorCode::kCorrupt, "zero chunk-grid bound");
  }
  DRX_ASSIGN_OR_RETURN(m.total_, in.get_u64());
  m.axial_.resize(k);
  for (std::uint32_t d = 0; d < k; ++d) {
    DRX_ASSIGN_OR_RETURN(std::uint32_t n, in.get_u32());
    for (std::uint32_t i = 0; i < n; ++i) {
      ExpansionRecord r;
      DRX_ASSIGN_OR_RETURN(r.start_index, in.get_u64());
      DRX_ASSIGN_OR_RETURN(r.start_address, in.get_i64());
      r.coeffs.resize(k);
      for (auto& c : r.coeffs) {
        DRX_ASSIGN_OR_RETURN(c, in.get_u64());
      }
      DRX_ASSIGN_OR_RETURN(r.file_displacement, in.get_u64());
      // append() aborts unless start indices strictly increase.
      if (i > 0 && r.start_index <= m.axial_[d].records().back().start_index) {
        return Status(ErrorCode::kCorrupt, "axial records out of order");
      }
      m.axial_[d].append(std::move(r));
    }
  }
  DRX_ASSIGN_OR_RETURN(std::uint32_t hn, in.get_u32());
  for (std::uint32_t i = 0; i < hn; ++i) {
    HistoryEntry h;
    DRX_ASSIGN_OR_RETURN(h.dim, in.get_u32());
    DRX_ASSIGN_OR_RETURN(h.record, in.get_u32());
    DRX_ASSIGN_OR_RETURN(h.start_address, in.get_u64());
    DRX_ASSIGN_OR_RETURN(h.chunk_count, in.get_u64());
    if (h.dim >= k) {
      return Status(ErrorCode::kCorrupt, "history entry out of range");
    }
    m.history_.push_back(h);
  }
  if (m.history_.empty() || try_product(m.bounds_) != m.total_) {
    return Status(ErrorCode::kCorrupt, "chunk totals inconsistent");
  }

  // address_of/index_of trust every record's start address and
  // coefficients, so check them all at once: a valid mapping is exactly
  // what the constructor and extend() build from its initial bounds and
  // history. Replay them and require equality. A dimension's initial
  // bound is the start index of its first extension (its record 1). The
  // replayed bounds never exceed the parsed ones, whose product fits, so
  // the replay cannot overflow.
  Shape initial(k);
  for (std::uint32_t d = 0; d < k; ++d) {
    const std::vector<ExpansionRecord>& recs = m.axial_[d].records();
    initial[d] = recs.size() > 1 ? recs[1].start_index : m.bounds_[d];
    if (initial[d] > m.bounds_[d]) {
      return Status(ErrorCode::kCorrupt, "axial record past its bound");
    }
  }
  AxialMapping replay(std::move(initial));
  for (std::size_t i = 1; i < m.history_.size(); ++i) {
    const HistoryEntry& h = m.history_[i];
    const std::uint64_t per_index = replay.segment_coeffs(h.dim)[h.dim];
    const std::uint64_t delta = h.chunk_count / per_index;
    if (delta == 0 || h.chunk_count % per_index != 0 ||
        delta > m.bounds_[h.dim] - replay.bounds_[h.dim]) {
      return Status(ErrorCode::kCorrupt, "history does not tile the file");
    }
    replay.extend(h.dim, delta);
  }
  if (replay != m) {
    return Status(ErrorCode::kCorrupt, "mapping does not match its history");
  }
  return m;
}

}  // namespace drx::core
