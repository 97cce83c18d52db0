#include "core/drxmp.hpp"

#include <algorithm>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/opctx.hpp"
#include "obs/trace.hpp"

namespace drx::core {

namespace {
std::string meta_name(const std::string& name) { return name + ".xmd"; }
std::string data_name(const std::string& name) { return name + ".xta"; }

/// Per-rank zone traffic, core.zone.rank.<r>.{calls,bytes}: the inputs of
/// the rank-imbalance detector. `calls` keeps a rank that moved nothing
/// in the registry folds, which drop zero-valued counters.
void count_zone_transfer(int rank, std::uint64_t bytes) {
  const std::string prefix = "core.zone.rank." + std::to_string(rank);
  obs::registry().counter(obs::counter_id(prefix + ".calls")).add();
  obs::registry().counter(obs::counter_id(prefix + ".bytes")).add(bytes);
}

/// The chunks covering `box`, in row-major chunk order; kOutOfRange if
/// the box reaches past the array bounds.
Result<std::vector<Index>> covering_chunk_list(const Metadata& meta,
                                               const ChunkSpace& space,
                                               const Box& box) {
  DRX_CHECK(box.rank() == meta.rank());
  std::vector<Index> chunks;
  if (box.empty()) return chunks;
  for (std::size_t d = 0; d < meta.rank(); ++d) {
    if (box.hi[d] > meta.element_bounds[d]) {
      return Status(ErrorCode::kOutOfRange, "box exceeds array bounds");
    }
  }
  for_each_index(space.covering_chunks(box),
                 [&](const Index& c) { chunks.push_back(c); });
  return chunks;
}
}  // namespace

Box zone_element_box(const Metadata& meta, const Distribution& dist,
                     int proc) {
  const std::vector<Box> zones = dist.zones_of(proc);
  Box out{Index(meta.rank(), 0), Index(meta.rank(), 0)};
  if (zones.empty()) return out;
  DRX_CHECK_MSG(zones.size() == 1,
                "zone_element_box requires a BLOCK distribution");
  const Box& z = zones.front();
  for (std::size_t d = 0; d < meta.rank(); ++d) {
    out.lo[d] = checked_mul(z.lo[d], meta.chunk_shape[d]);
    out.hi[d] = std::min(checked_mul(z.hi[d], meta.chunk_shape[d]),
                         meta.element_bounds[d]);
    out.lo[d] = std::min(out.lo[d], out.hi[d]);
  }
  return out;
}

Result<DrxMpFile> DrxMpFile::create(simpi::Comm& comm, pfs::Pfs& fs,
                                    const std::string& name,
                                    Shape element_bounds, Shape chunk_shape,
                                    const DrxFile::Options& options) {
  if (element_bounds.size() != chunk_shape.size() || element_bounds.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "element bounds and chunk shape must have equal rank >= 1");
  }
  // Compressed arrays are created (and written) with the serial DrxFile;
  // DRX-MP serves them read-only via open(). Only an explicit codec
  // request errors — the DRX_COMPRESS env knob deliberately does not
  // reach collective creation, so setting it can never break writers.
  if (options.codec.value_or(codec::CodecId::kNone) !=
      codec::CodecId::kNone) {
    return Status(ErrorCode::kUnsupported,
                  "DRX-MP serves compressed arrays read-only; create them "
                  "with the serial DrxFile");
  }
  Metadata meta(options.dtype, options.in_chunk_order,
                std::move(element_bounds), std::move(chunk_shape));

  // Rank 0 creates the metadata file; all ranks open the data file
  // collectively through MPI-IO.
  std::uint8_t ok = 1;
  if (comm.rank() == 0) {
    auto created = fs.create(meta_name(name), /*overwrite=*/true);
    if (!created.is_ok()) {
      ok = 0;
    } else {
      pfs::PfsStorage storage(std::move(created).value());
      if (!write_metadata(storage, meta).is_ok()) ok = 0;
    }
  }
  comm.bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kIoError, "metadata creation failed");
  }

  auto data = mpio::File::open(comm, fs, data_name(name),
                               mpio::kModeRdWr | mpio::kModeCreate);
  if (!data.is_ok()) return data.status();
  DrxMpFile file(comm, fs, name, std::move(meta), std::move(data).value());
  // The initial allocation reads back as zeros: grow the file
  // collectively (the PFS datafiles are sparse; growth stores nothing).
  DRX_RETURN_IF_ERROR(file.data_.set_size(file.meta_.data_file_bytes()));
  return file;
}

Result<DrxMpFile> DrxMpFile::open(simpi::Comm& comm, pfs::Pfs& fs,
                                  const std::string& name) {
  // Rank 0 reads the .xmd image and replicates it to every process
  // (paper Sec. IV-A: "When a file is opened, the content of the meta-data
  // file is replicated in all participating processes").
  std::vector<std::byte> image;
  std::uint8_t ok = 1;
  if (comm.rank() == 0) {
    auto handle = fs.open(meta_name(name));
    if (!handle.is_ok()) {
      ok = 0;
    } else {
      image.resize(checked_size(handle.value().size()));
      if (!handle.value().read_at(0, image).is_ok()) ok = 0;
    }
  }
  comm.bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kNotFound, "cannot read metadata: " + name);
  }
  comm.bcast_vector(image, 0);
  DRX_ASSIGN_OR_RETURN(Metadata meta, Metadata::from_bytes(image));

  auto data = mpio::File::open(comm, fs, data_name(name), mpio::kModeRdWr);
  if (!data.is_ok()) return data.status();
  if (data.value().get_size() < meta.stored_data_bytes()) {
    return Status(ErrorCode::kCorrupt, ".xta smaller than metadata requires");
  }
  return DrxMpFile(comm, fs, name, std::move(meta), std::move(data).value());
}

Status DrxMpFile::close() {
  DRX_RETURN_IF_ERROR(flush_metadata());
  return data_.close();
}

Status DrxMpFile::flush_metadata() { return commit_metadata(meta_); }

Status DrxMpFile::commit_metadata(const Metadata& meta,
                                  std::uint64_t grow_data_to) {
  // No leading barrier: rank 0 only grows the .xta, which keeps every byte
  // a peer may still be moving, and rewrites the .xmd, which no peer
  // touches. The previous collective transfer already returned on rank 0
  // only after every aggregator's device accesses.
  std::uint8_t ok = 1;
  if (comm_->rank() == 0 && grow_data_to > 0) {
    // The same file (and simulated datafiles) as data_, by name as the
    // .xmd below; the PFS datafiles are sparse, so growth stores nothing.
    auto data = fs_->open(data_name(name_));
    if (!data.is_ok() || !data.value().truncate(grow_data_to).is_ok()) ok = 0;
  }
  if (comm_->rank() == 0 && ok != 0) {
    auto handle = fs_->open(meta_name(name_));
    if (!handle.is_ok()) {
      ok = 0;
    } else {
      pfs::PfsStorage storage(std::move(handle).value());
      // The truncate is no part of the commit and reopens the crash
      // window write_metadata avoids (an empty .xmd; ROADMAP item 3). It
      // also parks the .xmd's simulated head at 0, so dropping it alone
      // makes every flush seek; it goes with item 3's commit protocol.
      if (!storage.truncate(0).is_ok() ||
          !write_metadata(storage, meta).is_ok()) {
        ok = 0;
      }
    }
  }
  // The one collective: no rank moves on before rank 0's commit, and
  // every rank returns its outcome.
  comm_->bcast_value(ok, 0);
  if (ok == 0) {
    return Status(ErrorCode::kIoError, "metadata commit failed");
  }
  return Status::ok();
}

Status DrxMpFile::transfer_chunks(std::span<const Index> chunks,
                                  void* staging, bool collective,
                                  bool writing) {
  if (writing && meta_.compressed()) {
    return Status(ErrorCode::kUnsupported,
                  "compressed DRX-MP arrays are read-only");
  }
  const std::uint64_t cb = chunk_bytes();
  const std::size_t n = chunks.size();
  obs::ScopedSpan span(writing ? "core.write_chunks" : "core.read_chunks",
                       "core", checked_mul(n, cb));
  count_zone_transfer(comm_->rank(), checked_mul(n, cb));

  // One file view from the chunks' storage extents, sorted by offset: the
  // view must be monotonic, and ascending storage order is what makes
  // zone I/O a near-sequential disk scan (paper Sec. II-A). That is
  // linear-address order for a raw array; a compressed array's slots sit
  // wherever they were last written.
  std::vector<Metadata::StorageExtent> extents(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t q = meta_.mapping.address_of(chunks[i]);
    if (q >= meta_.mapping.total_chunks()) {
      return Status(ErrorCode::kOutOfRange, "chunk address out of range");
    }
    extents[i] = meta_.storage_extent(q);
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return extents[a].offset < extents[b].offset;
  });

  // Block i moves the live bytes of the i-th chunk in storage order to
  // the front of that chunk's own staging slot. A raw array's blocks are
  // whole chunks, which Datatype::normalize merges where they abut.
  std::vector<std::uint64_t> blocklens(n);
  std::vector<std::uint64_t> file_displs(n);
  std::vector<std::uint64_t> mem_displs(n);
  for (std::size_t i = 0; i < n; ++i) {
    blocklens[i] = extents[order[i]].stored;
    file_displs[i] = extents[order[i]].offset;
    mem_displs[i] = checked_mul(order[i], cb);
  }
  const simpi::Datatype byte_type = simpi::Datatype::bytes(1);
  const simpi::Datatype filetype =
      n == 0 ? simpi::Datatype::bytes(0)
             : simpi::Datatype::hindexed(blocklens, file_displs, byte_type);
  const simpi::Datatype memtype =
      n == 0 ? simpi::Datatype::bytes(0)
             : simpi::Datatype::hindexed(blocklens, mem_displs, byte_type);

  // With zero chunks a rank still participates in collective calls.
  data_.set_view(0, byte_type, n == 0 ? byte_type : filetype);
  const std::uint64_t count = n == 0 ? 0 : 1;
  if (writing) {
    return collective ? data_.write_at_all(0, staging, count, memtype)
                      : data_.write_at(0, staging, count, memtype);
  }
  DRX_RETURN_IF_ERROR(collective ? data_.read_at_all(0, staging, count, memtype)
                                 : data_.read_at(0, staging, count, memtype));

  // Decode outside the collective so slow ranks never stall peers inside
  // the I/O call.
  auto* out = static_cast<std::byte*>(staging);
  std::vector<std::byte> scratch;
  for (std::size_t i = 0; i < n; ++i) {
    DRX_RETURN_IF_ERROR(decode_in_place(
        extents[i], checked_size(meta_.element_bytes()),
        std::span<std::byte>(out + checked_mul(i, cb), checked_size(cb)),
        scratch));
  }
  return Status::ok();
}

Status DrxMpFile::read_chunks(std::span<const Index> chunks,
                              std::span<std::byte> staging, bool collective) {
  DRX_CHECK(staging.size() ==
            checked_mul(chunks.size(), chunk_bytes()));
  return transfer_chunks(chunks, staging.data(), collective,
                         /*writing=*/false);
}

Status DrxMpFile::write_chunks(std::span<const Index> chunks,
                               std::span<const std::byte> staging,
                               bool collective) {
  DRX_CHECK(staging.size() ==
            checked_mul(chunks.size(), chunk_bytes()));
  return transfer_chunks(chunks, const_cast<std::byte*>(staging.data()),
                         collective, /*writing=*/true);
}

Status DrxMpFile::read_my_zone(const Distribution& dist, MemoryOrder order,
                               std::span<std::byte> out, bool collective) {
  obs::OpScope op("op.read_my_zone");
  return read_box_impl(zone_element_box(dist, comm_->rank()), order, out,
                       collective);
}

Status DrxMpFile::write_my_zone(const Distribution& dist, MemoryOrder order,
                                std::span<const std::byte> in,
                                bool collective) {
  obs::OpScope op("op.write_my_zone");
  return write_box_impl(zone_element_box(dist, comm_->rank()), order, in,
                        collective);
}

Status DrxMpFile::read_box_all(const Box& box, MemoryOrder order,
                               std::span<std::byte> out) {
  obs::OpScope op("op.read_box_all");
  return read_box_impl(box, order, out, /*collective=*/true);
}

Status DrxMpFile::read_box_independent(const Box& box, MemoryOrder order,
                                       std::span<std::byte> out) {
  obs::OpScope op("op.read_box_independent");
  return read_box_impl(box, order, out, /*collective=*/false);
}

Status DrxMpFile::read_box_impl(const Box& box, MemoryOrder order,
                                std::span<std::byte> out, bool collective) {
  DRX_CHECK(out.size() == checked_mul(box.volume(), meta_.element_bytes()));
  DRX_ASSIGN_OR_RETURN(const std::vector<Index> chunks,
                       covering_chunk_list(meta_, chunk_space_, box));
  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), chunk_bytes())));
  DRX_RETURN_IF_ERROR(read_chunks(chunks, staging, collective));

  obs::StageTimer copy(obs::Stage::kCopy);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Box clip = chunk_space_.chunk_box(chunks[i]).intersect(box);
    if (clip.empty()) continue;
    plan_cache_->scatter(clip, box, order,
                         std::span<const std::byte>(staging).subspan(
                             checked_size(checked_mul(i, chunk_bytes())),
                             checked_size(chunk_bytes())),
                         out);
  }
  return Status::ok();
}

Status DrxMpFile::write_box_all(const Box& box, MemoryOrder order,
                                std::span<const std::byte> in) {
  obs::OpScope op("op.write_box_all");
  return write_box_impl(box, order, in, /*collective=*/true);
}

Status DrxMpFile::write_box_independent(const Box& box, MemoryOrder order,
                                        std::span<const std::byte> in) {
  obs::OpScope op("op.write_box_independent");
  return write_box_impl(box, order, in, /*collective=*/false);
}

Status DrxMpFile::write_box_impl(const Box& box, MemoryOrder order,
                                 std::span<const std::byte> in,
                                 bool collective) {
  DRX_CHECK(in.size() == checked_mul(box.volume(), meta_.element_bytes()));
  DRX_ASSIGN_OR_RETURN(std::vector<Index> chunks,
                       covering_chunk_list(meta_, chunk_space_, box));

  // Boundary chunks not fully covered by the box (nor by the slack beyond
  // the array bounds) must be read-modify-written. They go first, so one
  // independent read fills the front of the staging buffer; it cannot be
  // collective, since different ranks have different read-modify-write
  // sets. A zone box covers each of its chunks' live part: none here.
  const Box live{Index(rank(), 0), meta_.element_bounds};
  const auto partial = static_cast<std::size_t>(
      std::stable_partition(chunks.begin(), chunks.end(),
                            [&](const Index& c) {
                              const Box cbox = chunk_space_.chunk_box(c);
                              return cbox.intersect(box) !=
                                     cbox.intersect(live);
                            }) -
      chunks.begin());
  const std::uint64_t cb = chunk_bytes();
  std::vector<std::byte> staging(
      checked_size(checked_mul(chunks.size(), cb)), std::byte{0});
  if (partial > 0) {
    DRX_RETURN_IF_ERROR(read_chunks(
        std::span<const Index>(chunks).first(partial),
        std::span<std::byte>(staging).first(
            checked_size(checked_mul(partial, cb))),
        /*collective=*/false));
  }

  obs::StageTimer copy(obs::Stage::kCopy);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const Box clip = chunk_space_.chunk_box(chunks[i]).intersect(box);
    if (clip.empty()) continue;
    plan_cache_->gather(clip, box, order,
                        std::span<std::byte>(staging).subspan(
                            checked_size(checked_mul(i, cb)),
                            checked_size(cb)),
                        in);
  }
  return write_chunks(chunks, staging, collective);
}

Status DrxMpFile::extend_all(std::size_t dim, std::uint64_t delta) {
  obs::OpScope op("op.extend_all");
  if (dim >= rank()) {
    return Status(ErrorCode::kInvalidArgument, "dimension out of range");
  }
  if (meta_.compressed()) {
    // set_size(data_file_bytes) assumes the dense layout; growing a slot
    // table collectively is out of scope for the read-only MP path.
    return Status(ErrorCode::kUnsupported,
                  "compressed DRX-MP arrays are read-only");
  }
  // Deterministic, identical update on every rank keeps the replicated
  // metadata consistent without communication. It is made on a copy that
  // replaces meta_ only once the commit succeeds, so a failed extend
  // leaves the array as it was. Rank 0 grows the .xta and writes the
  // .xmd inside the commit, whose status broadcast is the only
  // collective: it replaces set_size's barriers and the old leading
  // barrier.
  Metadata next = meta_;
  const bool grew = delta > 0 && next.extend_elements(dim, delta).has_value();
  DRX_RETURN_IF_ERROR(
      commit_metadata(next, grew ? next.data_file_bytes() : 0));
  meta_ = std::move(next);
  return Status::ok();
}

GlobalAccessor::GlobalAccessor(simpi::Comm& comm, const Metadata& meta,
                               const Distribution& dist, MemoryOrder order,
                               std::span<std::byte> zone)
    : comm_(&comm),
      meta_(&meta),
      dist_(dist),
      order_(order),
      chunk_space_(meta.chunk_space()),
      window_(comm, zone) {
  // Every rank's clipped zone element box (identical on all ranks —
  // derived from replicated metadata).
  zone_boxes_.reserve(static_cast<std::size_t>(comm.size()));
  for (int r = 0; r < comm.size(); ++r) {
    zone_boxes_.push_back(zone_element_box(meta, dist_, r));
  }
  const Box& mine = zone_boxes_[static_cast<std::size_t>(comm.rank())];
  DRX_CHECK_MSG(zone.size() ==
                    checked_mul(mine.volume(), meta.element_bytes()),
                "zone buffer size does not match the zone element box");
}

int GlobalAccessor::owner_of(std::span<const std::uint64_t> element) const {
  return dist_.owner_of(chunk_space_.chunk_of(element));
}

std::pair<int, std::uint64_t> GlobalAccessor::locate(
    std::span<const std::uint64_t> element, std::uint64_t esize) const {
  DRX_CHECK(esize == meta_->element_bytes());
  for (std::size_t d = 0; d < meta_->rank(); ++d) {
    DRX_CHECK_MSG(element[d] < meta_->element_bounds[d],
                  "element index out of bounds");
  }
  const int target = owner_of(element);
  const Box& box = zone_boxes_[static_cast<std::size_t>(target)];
  Index rel(meta_->rank());
  for (std::size_t d = 0; d < meta_->rank(); ++d) {
    rel[d] = element[d] - box.lo[d];
  }
  const std::uint64_t linear = linearize(rel, box.shape(), order_);
  return {target, checked_mul(linear, esize)};
}

}  // namespace drx::core
