#include "mpio/file.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <future>

#include "io/async_pool.hpp"
#include "io/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"

namespace drx::mpio {

namespace {

struct Piece {
  std::uint64_t offset = 0;  ///< absolute file offset
  std::uint64_t length = 0;
  int source = 0;            ///< requesting rank
  std::uint64_t reply_pos = 0;  ///< byte position in the source's reply
};

/// Rank 0's status on every rank: the root broadcasts its code, and a peer
/// returns that code with a note that rank 0 failed. The broadcast also
/// orders rank 0's operation before any peer returns.
Status root_status(simpi::Comm& comm, const Status& st) {
  ErrorCode code = st.code();
  comm.bcast_value(code, 0);
  if (comm.rank() == 0 || code == ErrorCode::kOk) return st;
  return Status(code, "collective call failed on rank 0");
}

}  // namespace

Result<File> File::open(simpi::Comm& comm, pfs::Pfs& fs,
                        const std::string& name, int mode) {
  const bool has_access_mode = (mode & (kModeRdOnly | kModeWrOnly |
                                        kModeRdWr)) != 0;
  if (!has_access_mode) {
    return Status(ErrorCode::kInvalidArgument,
                  "open mode must include rdonly, wronly or rdwr");
  }

  // Rank 0 performs the namespace operation; the outcome is broadcast so
  // every rank returns a consistent Result.
  std::uint8_t ok = 1;
  std::string error;
  if (comm.rank() == 0) {
    if ((mode & kModeCreate) != 0) {
      if (fs.exists(name)) {
        if ((mode & kModeExcl) != 0) {
          ok = 0;
          error = "file exists (create|excl): " + name;
        }
      } else {
        auto created = fs.create(name);
        if (!created.is_ok()) {
          ok = 0;
          error = created.status().message();
        }
      }
    } else if (!fs.exists(name)) {
      ok = 0;
      error = "no such file: " + name;
    }
  }
  comm.bcast_value(ok, 0);
  if (ok == 0) {
    if (comm.rank() != 0) error = "collective open failed on rank 0";
    return Status(ErrorCode::kIoError, error);
  }
  // No barrier: the status broadcast already orders rank 0's namespace
  // operation before any peer opens.

  auto handle = fs.open(name);
  if (!handle.is_ok()) return handle.status();

  auto state = std::make_unique<State>();
  state->comm = &comm;
  state->fs = &fs;
  state->name = name;
  state->mode = mode;
  state->handle = std::move(handle).value();
  return File(std::move(state));
}

Status File::close() {
  DRX_CHECK(is_open());
  simpi::Comm& comm = *state_->comm;
  comm.barrier();  // every rank's I/O is done before the handle goes
  Status st;
  if ((state_->mode & kModeDeleteOnClose) != 0) {
    if (comm.rank() == 0) st = state_->fs->remove(state_->name);
    st = root_status(comm, st);
  }
  state_.reset();
  return st;
}

void File::set_view(std::uint64_t disp, const simpi::Datatype& etype,
                    const simpi::Datatype& filetype) {
  DRX_CHECK(is_open());
  state_->view = FileView(disp, etype, filetype);
  state_->pointer_etypes = 0;
}

const FileView& File::view() const {
  DRX_CHECK(is_open());
  return state_->view;
}

Status File::check_readable() const {
  DRX_CHECK(is_open());
  if ((state_->mode & (kModeRdOnly | kModeRdWr)) == 0) {
    return Status(ErrorCode::kFailedPrecondition,
                  "file not opened for reading");
  }
  return Status::ok();
}

Status File::check_writable() const {
  DRX_CHECK(is_open());
  if ((state_->mode & (kModeWrOnly | kModeRdWr)) == 0) {
    return Status(ErrorCode::kFailedPrecondition,
                  "file not opened for writing");
  }
  return Status::ok();
}

Status File::read_at(std::uint64_t offset, void* buf, std::uint64_t count,
                     const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_readable());
  return transfer_independent(offset, buf, count, memtype, /*writing=*/false);
}

Status File::write_at(std::uint64_t offset, const void* buf,
                      std::uint64_t count, const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_writable());
  return transfer_independent(offset, const_cast<void*>(buf), count, memtype,
                              /*writing=*/true);
}

Status File::read(void* buf, std::uint64_t count,
                  const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_readable());
  const std::uint64_t etypes_moved =
      checked_mul(count, memtype.size()) / state_->view.etype().size();
  DRX_RETURN_IF_ERROR(transfer_independent(state_->pointer_etypes, buf, count,
                                           memtype, /*writing=*/false));
  state_->pointer_etypes += etypes_moved;
  return Status::ok();
}

Status File::write(const void* buf, std::uint64_t count,
                   const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_writable());
  const std::uint64_t etypes_moved =
      checked_mul(count, memtype.size()) / state_->view.etype().size();
  DRX_RETURN_IF_ERROR(transfer_independent(state_->pointer_etypes,
                                           const_cast<void*>(buf), count,
                                           memtype, /*writing=*/true));
  state_->pointer_etypes += etypes_moved;
  return Status::ok();
}

void File::seek(std::uint64_t offset_etypes) {
  DRX_CHECK(is_open());
  state_->pointer_etypes = offset_etypes;
}

std::uint64_t File::position() const {
  DRX_CHECK(is_open());
  return state_->pointer_etypes;
}

Status File::transfer_independent(std::uint64_t offset_etypes, void* buf,
                                  std::uint64_t count,
                                  const simpi::Datatype& memtype,
                                  bool writing) {
  const std::uint64_t total = checked_mul(count, memtype.size());
  if (total == 0) return Status::ok();
  obs::ScopedSpan span(
      writing ? "mpio.independent_write" : "mpio.independent_read", "mpio",
      total);
  {
    static const obs::MetricId kOps = obs::counter_id("mpio.independent_ops");
    static const obs::MetricId kRead = obs::counter_id("mpio.bytes_read");
    static const obs::MetricId kWritten =
        obs::counter_id("mpio.bytes_written");
    obs::Registry& reg = obs::registry();
    reg.counter(kOps).add();
    reg.counter(writing ? kWritten : kRead).add(total);
  }
  if (total % state_->view.etype().size() != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "transfer size not a multiple of the view etype");
  }
  const std::uint64_t view_off =
      checked_mul(offset_etypes, state_->view.etype().size());
  const auto extents = state_->view.map_range(view_off, total);

  if (writing) {
    std::vector<std::byte> payload;
    memtype.pack(static_cast<const std::byte*>(buf), count, payload);
    std::uint64_t pos = 0;
    for (const FileExtent& e : extents) {
      DRX_RETURN_IF_ERROR(state_->handle.write_at(
          e.offset, std::span<const std::byte>(payload)
                        .subspan(checked_size(pos), checked_size(e.length))));
      pos += e.length;
    }
  } else {
    std::vector<std::byte> payload(checked_size(total));
    std::uint64_t pos = 0;
    for (const FileExtent& e : extents) {
      DRX_RETURN_IF_ERROR(state_->handle.read_at(
          e.offset, std::span<std::byte>(payload).subspan(
                        checked_size(pos), checked_size(e.length))));
      pos += e.length;
    }
    memtype.unpack(payload, count, static_cast<std::byte*>(buf));
  }
  return Status::ok();
}

Status File::read_all(void* buf, std::uint64_t count,
                      const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_readable());
  const std::uint64_t etypes_moved =
      checked_mul(count, memtype.size()) / state_->view.etype().size();
  DRX_RETURN_IF_ERROR(transfer_collective(state_->pointer_etypes, buf, count,
                                          memtype, /*writing=*/false));
  state_->pointer_etypes += etypes_moved;
  return Status::ok();
}

Status File::write_all(const void* buf, std::uint64_t count,
                       const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_writable());
  const std::uint64_t etypes_moved =
      checked_mul(count, memtype.size()) / state_->view.etype().size();
  DRX_RETURN_IF_ERROR(transfer_collective(state_->pointer_etypes,
                                          const_cast<void*>(buf), count,
                                          memtype, /*writing=*/true));
  state_->pointer_etypes += etypes_moved;
  return Status::ok();
}

Status File::read_at_all(std::uint64_t offset, void* buf, std::uint64_t count,
                         const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_readable());
  return transfer_collective(offset, buf, count, memtype, /*writing=*/false);
}

Status File::write_at_all(std::uint64_t offset, const void* buf,
                          std::uint64_t count,
                          const simpi::Datatype& memtype) {
  DRX_RETURN_IF_ERROR(check_writable());
  return transfer_collective(offset, const_cast<void*>(buf), count, memtype,
                             /*writing=*/true);
}

Status File::transfer_collective(std::uint64_t offset_etypes, void* buf,
                                 std::uint64_t count,
                                 const simpi::Datatype& memtype,
                                 bool writing) {
  simpi::Comm& comm = *state_->comm;
  const int p = comm.size();
  const auto np = static_cast<std::size_t>(p);

  const std::uint64_t total = checked_mul(count, memtype.size());
  if (total != 0 && total % state_->view.etype().size() != 0) {
    return Status(ErrorCode::kInvalidArgument,
                  "transfer size not a multiple of the view etype");
  }
  obs::ScopedSpan coll_span(
      writing ? "mpio.collective_write" : "mpio.collective_read", "mpio",
      total);
  {
    static const obs::MetricId kOps = obs::counter_id("mpio.collective_ops");
    static const obs::MetricId kRead = obs::counter_id("mpio.bytes_read");
    static const obs::MetricId kWritten =
        obs::counter_id("mpio.bytes_written");
    obs::Registry& reg = obs::registry();
    reg.counter(kOps).add();
    reg.counter(writing ? kWritten : kRead).add(total);
  }

  // ---- Phase 0: local request list. A call where no rank asks for a
  // byte still runs both exchanges: skipping it would take one more
  // collective on every call that moves data.
  std::vector<FileExtent> extents;
  if (total != 0) {
    extents = state_->view.map_range(
        checked_mul(offset_etypes, state_->view.etype().size()), total);
  }

  // Server-aligned file domains (Liao & Choudhary, SC'08): each PFS server
  // belongs to exactly one of the first A = min(P, S) ranks, so every
  // datafile sees a single aggregator issuing its requests in order.
  // Ranks >= A only ship and receive pieces.
  const pfs::FileHandle& handle = state_->handle;
  const auto nservers = static_cast<std::size_t>(state_->fs->num_servers());
  const std::size_t naggs = std::min(np, nservers);
  const auto aggregator_of = [&](std::uint64_t off) {
    return handle.locate(off).server * naggs / nservers;
  };
  // End of the owner run starting at `off`: the first stripe boundary
  // whose stripe belongs to another aggregator.
  const auto owner_run_end = [&](std::uint64_t off, std::uint64_t limit) {
    const std::size_t a = aggregator_of(off);
    std::uint64_t end = off;
    do {
      end += handle.locate(end).stripe_left;
    } while (end < limit && aggregator_of(end) == a);
    return std::min(end, limit);
  };

  // ---- Phase 1: split extents where the owner changes, mail to aggregators.
  // Request wire format per aggregator: u64 npieces, then (off, len) pairs;
  // for writes the piece payloads follow, concatenated in the same order.
  // Pieces are cut in packed-stream order, so one cursor over the user
  // buffer visits them in turn: a write packs each piece straight into
  // its aggregator's message, and a read (Phase 3) unpacks each returned
  // piece straight into the user buffer.
  struct LocalPiece {
    std::size_t aggregator;
    std::uint64_t offset, length;
  };
  std::vector<LocalPiece> pieces;
  for (const FileExtent& e : extents) {
    const std::uint64_t e_end = e.offset + e.length;
    for (std::uint64_t off = e.offset; off < e_end;) {
      const std::uint64_t end = owner_run_end(off, e_end);
      pieces.push_back(LocalPiece{aggregator_of(off), off, end - off});
      off = end;
    }
  }

  std::vector<std::vector<std::byte>> to_agg(np);
  {
    std::vector<std::uint64_t> counts(np, 0);
    std::vector<std::uint64_t> data_bytes(np, 0);
    for (const LocalPiece& lp : pieces) {
      ++counts[lp.aggregator];
      if (writing) data_bytes[lp.aggregator] += lp.length;
    }
    // The write cursor of each message: header first, then payloads.
    std::vector<std::size_t> at(np, 8);
    std::vector<std::size_t> data_at(np);
    for (std::size_t a = 0; a < np; ++a) {
      data_at[a] = 8 + 16 * checked_size(counts[a]);
      to_agg[a].resize(data_at[a] + checked_size(data_bytes[a]));
      std::memcpy(to_agg[a].data(), &counts[a], 8);
    }
    simpi::Datatype::Cursor user(memtype, count);
    for (const LocalPiece& lp : pieces) {
      std::byte* msg = to_agg[lp.aggregator].data();
      std::size_t& hdr = at[lp.aggregator];
      std::memcpy(msg + hdr, &lp.offset, 8);
      std::memcpy(msg + hdr + 8, &lp.length, 8);
      hdr += 16;
      if (writing) {
        std::size_t& data = data_at[lp.aggregator];
        user.gather(static_cast<const std::byte*>(buf),
                    {msg + data, checked_size(lp.length)});
        data += checked_size(lp.length);
      }
    }
  }
  std::vector<std::vector<std::byte>> inbound;
  {
    // Request (and, for writes, payload) exchange: every rank mails its
    // pieces to the aggregators that own them.
    obs::ScopedSpan exchange_span("mpio.coll.exchange", "mpio");
    inbound = comm.alltoallv_bytes(std::move(to_agg));
  }

  // ---- Phase 2: aggregate. Parse inbound pieces, cut them into datafile
  // fragments, order by (server, local offset), coalesce per server, and
  // hit each server with its runs in ascending order.
  std::vector<Piece> agg_pieces;
  std::vector<const std::byte*> agg_payload;  // write: per-piece payload ptr
  std::vector<std::uint64_t> reply_sizes(np, 0);
  for (std::size_t src = 0; src < np; ++src) {
    const auto& msg = inbound[src];
    if (msg.empty()) continue;
    std::uint64_t n = 0;
    DRX_CHECK(msg.size() >= 8);
    std::memcpy(&n, msg.data(), 8);
    const std::byte* hdr = msg.data() + 8;
    const std::byte* data = hdr + 16 * n;
    std::uint64_t reply_pos = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      Piece piece;
      std::memcpy(&piece.offset, hdr + 16 * i, 8);
      std::memcpy(&piece.length, hdr + 16 * i + 8, 8);
      piece.source = static_cast<int>(src);
      piece.reply_pos = reply_pos;
      reply_pos += piece.length;
      agg_pieces.push_back(piece);
      if (writing) {
        agg_payload.push_back(data);
        data += piece.length;
      }
    }
    reply_sizes[src] = reply_pos;
  }

  /// One stripe-bounded slice of a piece: a contiguous range of one
  /// server's datafile.
  struct Fragment {
    std::size_t server;
    std::uint64_t local, length;
    std::size_t piece;        ///< index into agg_pieces
    std::uint64_t piece_pos;  ///< byte position within the piece
  };
  std::vector<Fragment> frags;
  std::uint64_t max_file_end = 0;
  for (std::size_t i = 0; i < agg_pieces.size(); ++i) {
    const Piece& piece = agg_pieces[i];
    const std::uint64_t piece_end = piece.offset + piece.length;
    max_file_end = std::max(max_file_end, piece_end);
    for (std::uint64_t off = piece.offset; off < piece_end;) {
      const pfs::Location at = handle.locate(off);
      const std::uint64_t take = std::min(piece_end - off, at.stripe_left);
      frags.push_back(
          Fragment{at.server, at.local, take, i, off - piece.offset});
      off += take;
    }
  }
  // Stable: fragments at one offset keep (source, message) order, so
  // overlapping writes resolve the same way on every run.
  std::stable_sort(frags.begin(), frags.end(),
                   [](const Fragment& a, const Fragment& b) {
                     return a.server != b.server ? a.server < b.server
                                                 : a.local < b.local;
                   });

  // A read reply holds the requester's pieces, then one byte: this
  // aggregator's ErrorCode.
  std::vector<std::vector<std::byte>> replies(np);
  for (std::size_t src = 0; src < np; ++src) {
    replies[src].resize(checked_size(writing ? 0 : reply_sizes[src] + 1));
  }

  // EOF is checked here, before any device access: read_local reads
  // datafile holes as zeros and cannot see the logical file size.
  Status io_status;
  if (!writing && max_file_end > handle.size()) {
    io_status = Status(ErrorCode::kOutOfRange, "read past end of file");
  }
  if (!agg_pieces.empty() && io_status.is_ok()) {
    // Aggregated file access: the paper's amortization step, where many
    // small per-rank requests become few large device accesses.
    obs::ScopedSpan io_span("mpio.coll.io", "mpio");
    static const obs::MetricId kPieces = obs::counter_id("mpio.agg_pieces");
    static const obs::MetricId kRuns = obs::counter_id("mpio.agg_runs");
    obs::registry().counter(kPieces).add(agg_pieces.size());

    // Coalesce the sorted fragments into one device access per run of a
    // datafile. A fragment joins its server's open run when it touches or
    // overlaps it or, for reads only, when the hole before it is below the
    // cost model's sieve gap (core::plan_reads's data-sieving test).
    struct Run {
      std::size_t begin, end;          ///< range in `frags`
      std::uint64_t local, end_local;  ///< datafile byte range covered
      std::uint64_t file_end;          ///< max global end of its bytes
    };
    std::vector<Run> runs;
    const std::uint64_t sieve_gap =
        writing ? 0 : state_->fs->config().cost.sieve_gap_bytes();
    const auto frag_file_end = [&](const Fragment& f) {
      return agg_pieces[f.piece].offset + f.piece_pos + f.length;
    };
    const auto joins = [&](const Run& run, const Fragment& f) {
      return frags[run.begin].server == f.server &&
             (f.local <= run.end_local || f.local - run.end_local < sieve_gap);
    };
    for (std::size_t i = 0; i < frags.size(); ++i) {
      const Fragment& f = frags[i];
      if (!runs.empty() && joins(runs.back(), f)) {
        Run& run = runs.back();
        run.end = i + 1;
        run.end_local = std::max(run.end_local, f.local + f.length);
        run.file_end = std::max(run.file_end, frag_file_end(f));
      } else {
        runs.push_back(Run{i, i + 1, f.local, f.local + f.length,
                           frag_file_end(f)});
      }
    }

    const auto do_run = [&](const Run& run) -> Status {
      const std::size_t server = frags[run.begin].server;
      if (writing) {
        // Assemble then write. Without sieving, every byte of the staging
        // buffer is covered by some fragment.
        std::vector<std::byte> staging(
            checked_size(run.end_local - run.local));
        for (std::size_t i = run.begin; i < run.end; ++i) {
          const Fragment& f = frags[i];
          std::memcpy(staging.data() + (f.local - run.local),
                      agg_payload[f.piece] + f.piece_pos,
                      checked_size(f.length));
        }
        return state_->handle.write_local(server, run.local, staging,
                                          run.file_end);
      }
      // Each fragment lands straight in its own slice of its source's
      // reply, so gathering from workers is race-free.
      std::vector<pfs::GatherPiece> gather;
      gather.reserve(run.end - run.begin);
      for (std::size_t i = run.begin; i < run.end; ++i) {
        const Fragment& f = frags[i];
        const Piece& piece = agg_pieces[f.piece];
        std::span<std::byte> reply(
            replies[static_cast<std::size_t>(piece.source)]);
        gather.push_back(pfs::GatherPiece{
            f.local, reply.subspan(checked_size(piece.reply_pos + f.piece_pos),
                                   checked_size(f.length))});
      }
      return state_->handle.read_local(server, run.local, run.end_local,
                                       gather);
    };

    // One job per server, issuing that server's runs in ascending order, so
    // fan-out can overlap servers (the PFS serializes per server,
    // docs/ASYNC_IO.md) but never reorder one server's requests. With one
    // server or io_threads() <= 1 the pool has no workers and runs the
    // jobs in order on this thread.
    std::vector<std::size_t> job_begin;  ///< first run of each server
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (r == 0 || frags[runs[r].begin].server !=
                        frags[runs[r - 1].begin].server) {
        job_begin.push_back(r);
      }
    }
    job_begin.push_back(runs.size());
    const std::size_t njobs = job_begin.size() - 1;
    const int fan = io::io_threads();
    const int threads = fan > 1 && njobs > 1
                            ? std::min(fan, static_cast<int>(njobs))
                            : 0;
    std::atomic<std::uint64_t> completed_runs{0};
    io::AsyncIoPool pool({threads, njobs});
    std::vector<std::future<Status>> results;
    results.reserve(njobs);
    for (std::size_t j = 0; j < njobs; ++j) {
      const std::size_t first = job_begin[j];
      const std::size_t last = job_begin[j + 1];
      results.push_back(
          pool.submit_with_future(obs::current_op(), [&, first, last] {
            for (std::size_t r = first; r < last; ++r) {
              DRX_RETURN_IF_ERROR(do_run(runs[r]));
              completed_runs.fetch_add(1, std::memory_order_relaxed);
            }
            return Status::ok();
          }));
    }
    for (std::future<Status>& f : results) {
      const Status st = f.get();
      if (!st.is_ok() && io_status.is_ok()) {
        io_status = st;  // first failure wins; remaining jobs still join
      }
    }
    obs::registry().counter(kRuns).add(completed_runs.load());
  }

  // Aggregator failures surface on every rank (collective semantics):
  // this rank's own failure, else a failing aggregator's code.
  const auto local_code = static_cast<std::uint8_t>(io_status.code());
  std::uint8_t failed_code = 0;
  if (writing) {
    // No trailing barrier: this allreduce already completes only after
    // every aggregator's writes, so they are visible when any rank returns.
    failed_code = comm.allreduce_value(local_code, simpi::ReduceOp::kMax);
  } else {
    // ---- Phase 3: return read payloads to requesters. The replies move
    // into the exchange, and each returned stream holds its requester's
    // pieces in the order they were asked for, then its aggregator's
    // status byte, so no status allreduce is needed.
    obs::ScopedSpan shuffle_span("mpio.coll.shuffle", "mpio");
    for (std::vector<std::byte>& reply : replies) {
      reply.back() = static_cast<std::byte>(local_code);
    }
    const std::vector<std::vector<std::byte>> returned =
        comm.alltoallv_bytes(std::move(replies));
    for (const std::vector<std::byte>& stream : returned) {
      DRX_CHECK(!stream.empty());
      if (failed_code == 0) {
        failed_code = static_cast<std::uint8_t>(stream.back());
      }
    }
    if (failed_code == 0) {
      std::vector<std::size_t> stream_pos(np, 0);
      simpi::Datatype::Cursor user(memtype, count);
      for (const LocalPiece& lp : pieces) {
        const std::vector<std::byte>& reply = returned[lp.aggregator];
        const auto stream =
            std::span<const std::byte>(reply).first(reply.size() - 1);
        std::size_t& pos = stream_pos[lp.aggregator];
        DRX_CHECK(pos + lp.length <= stream.size());
        user.scatter(stream.subspan(pos, checked_size(lp.length)),
                     static_cast<std::byte*>(buf));
        pos += checked_size(lp.length);
      }
    }
  }

  if (failed_code != 0) {
    return io_status.is_ok()
               ? Status(static_cast<ErrorCode>(failed_code),
                        "collective I/O failed on a peer")
               : io_status;
  }
  return Status::ok();
}

std::uint64_t File::get_size() const {
  DRX_CHECK(is_open());
  return state_->handle.size();
}

Status File::set_size(std::uint64_t bytes) {
  DRX_CHECK(is_open());
  state_->comm->barrier();  // no rank's I/O is in flight while the size moves
  Status st;
  if (state_->comm->rank() == 0) st = state_->handle.truncate(bytes);
  // The status broadcast replaces a trailing barrier: no peer returns
  // before the truncate, and every rank returns rank 0's outcome.
  return root_status(*state_->comm, st);
}

Status File::sync() {
  DRX_CHECK(is_open());
  state_->comm->barrier();
  return Status::ok();
}

}  // namespace drx::mpio
