#include "simpi/comm.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace drx::simpi {

namespace {

/// Counts one message + its bytes against the calling rank's registry.
void note_message(bool collective, std::size_t bytes) {
  static const obs::MetricId kP2pMsgs = obs::counter_id("simpi.p2p.messages");
  static const obs::MetricId kP2pBytes = obs::counter_id("simpi.p2p.bytes");
  static const obs::MetricId kCollMsgs =
      obs::counter_id("simpi.coll.messages");
  static const obs::MetricId kCollBytes =
      obs::counter_id("simpi.coll.bytes");
  obs::Registry& reg = obs::registry();
  reg.counter(collective ? kCollMsgs : kP2pMsgs).add();
  reg.counter(collective ? kCollBytes : kP2pBytes).add(bytes);
}

/// Counts one collective operation entry. The name lookup is an interned
/// hash probe — noise next to the mailbox traffic a collective performs.
void note_collective(const char* which) {
  obs::registry().counter(obs::counter_id(which)).add();
}
// Internal tags for collective phases. Collective traffic lives on its own
// context, so these never collide with user tags; distinct tags per
// operation keep the mailbox matching honest when algorithms overlap.
constexpr int kTagBcast = 1;
constexpr int kTagReduce = 2;
constexpr int kTagGather = 3;
constexpr int kTagScatter = 4;
constexpr int kTagAlltoall = 5;
constexpr int kTagScan = 6;
constexpr int kTagCtx = 7;

constexpr std::uint32_t kCollBit = 0x80000000u;
}  // namespace

Comm::Comm(std::shared_ptr<World> world, int rank)
    : world_(std::move(world)),
      context_(0),
      coll_context_(kCollBit),
      rank_(rank) {
  members_.resize(static_cast<std::size_t>(world_->nranks()));
  std::iota(members_.begin(), members_.end(), 0);
}

Comm::Comm(std::shared_ptr<World> world, std::uint32_t context, int rank,
           std::vector<int> members)
    : world_(std::move(world)),
      context_(context),
      coll_context_(context | kCollBit),
      rank_(rank),
      members_(std::move(members)) {}

int Comm::world_rank(int r) const {
  DRX_CHECK(r >= 0 && r < size());
  return members_[static_cast<std::size_t>(r)];
}

void Comm::send(std::span<const std::byte> data, int dest, int tag) {
  DRX_CHECK(tag >= 0);
  note_message(/*collective=*/false, data.size());
  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.context = context_;
  msg.payload.assign(data.begin(), data.end());
  world_->mailbox(world_rank(dest)).push(std::move(msg));
}

RecvStatus Comm::recv(std::span<std::byte> out, int source, int tag) {
  detail::Message msg =
      world_->mailbox(world_rank(rank_)).pop(source, tag, context_);
  DRX_CHECK_MSG(msg.payload.size() == out.size(),
                "recv buffer size does not match message size");
  std::memcpy(out.data(), msg.payload.data(), msg.payload.size());
  return RecvStatus{msg.source, msg.tag, msg.payload.size()};
}

std::vector<std::byte> Comm::recv_any_size(int source, int tag,
                                           RecvStatus* status) {
  detail::Message msg =
      world_->mailbox(world_rank(rank_)).pop(source, tag, context_);
  if (status != nullptr) {
    *status = RecvStatus{msg.source, msg.tag, msg.payload.size()};
  }
  return std::move(msg.payload);
}

RecvStatus Comm::probe(int source, int tag) {
  RecvStatus st;
  world_->mailbox(world_rank(rank_))
      .probe(source, tag, context_, st.source, st.tag, st.bytes);
  return st;
}

RecvStatus Comm::sendrecv(std::span<const std::byte> send_data, int dest,
                          int send_tag, std::span<std::byte> recv_data,
                          int source, int recv_tag) {
  // Buffered sends never block, so a plain send-then-recv cannot deadlock.
  send(send_data, dest, send_tag);
  return recv(recv_data, source, recv_tag);
}

Comm::Request Comm::irecv(std::span<std::byte> out, int source, int tag) {
  Request req;
  req.comm_ = this;
  req.out_ = out;
  req.source_ = source;
  req.tag_ = tag;
  req.done_ = false;
  return req;
}

void Comm::wait(Request& request) {
  if (request.done_) return;
  DRX_CHECK(request.comm_ == this);
  request.status_ = recv(request.out_, request.source_, request.tag_);
  request.done_ = true;
}

bool Comm::test(Request& request) {
  if (request.done_) return true;
  DRX_CHECK(request.comm_ == this);
  auto msg = world_->mailbox(world_rank(rank_))
                 .try_pop(request.source_, request.tag_, context_);
  if (!msg.has_value()) return false;
  DRX_CHECK_MSG(msg->payload.size() == request.out_.size(),
                "irecv buffer size does not match message size");
  std::memcpy(request.out_.data(), msg->payload.data(), msg->payload.size());
  request.status_ = RecvStatus{msg->source, msg->tag, msg->payload.size()};
  request.done_ = true;
  return true;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) wait(r);
}

void Comm::coll_send(std::span<const std::byte> data, int dest, int tag) {
  coll_send(std::vector<std::byte>(data.begin(), data.end()), dest, tag);
}

void Comm::coll_send(std::vector<std::byte> payload, int dest, int tag) {
  note_message(/*collective=*/true, payload.size());
  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.context = coll_context_;
  msg.payload = std::move(payload);
  world_->mailbox(world_rank(dest)).push(std::move(msg));
}

std::vector<std::byte> Comm::coll_recv(int source, int tag) {
  detail::Message msg =
      world_->mailbox(world_rank(rank_)).pop(source, tag, coll_context_);
  return std::move(msg.payload);
}

void Comm::barrier() {
  note_collective("simpi.coll.barriers");
  obs::ScopedSpan span("simpi.barrier", "simpi");
  world_->barrier(coll_context_, size()).arrive_and_wait();
}

void Comm::bcast_bytes(std::span<std::byte> data, int root) {
  note_collective("simpi.coll.bcasts");
  // Binomial tree rooted at `root` (ranks rotated so root maps to 0).
  const int p = size();
  if (p == 1) return;
  const int vrank = (rank_ - root + p) % p;
  // Receive from parent.
  if (vrank != 0) {
    int parent_v = vrank ^ (1 << (std::bit_width(
                       static_cast<unsigned>(vrank)) - 1));
    int parent = (parent_v + root) % p;
    std::vector<std::byte> payload = coll_recv(parent, kTagBcast);
    DRX_CHECK(payload.size() == data.size());
    std::memcpy(data.data(), payload.data(), payload.size());
  }
  // Forward to children: v's children are v | bit for every bit above v's
  // highest set bit.
  for (int bit = 1; bit < p; bit <<= 1) {
    if (bit > vrank) {
      const int child_v = vrank | bit;
      if (child_v < p) {
        coll_send(data, (child_v + root) % p, kTagBcast);
      }
    }
  }
}

void Comm::bcast_vector(std::vector<std::byte>& data, int root) {
  std::uint64_t n = data.size();
  bcast_bytes(std::as_writable_bytes(std::span<std::uint64_t>(&n, 1)), root);
  if (rank_ != root) data.resize(static_cast<std::size_t>(n));
  bcast_bytes(data, root);
}

void Comm::reduce_bytes(std::span<const std::byte> in,
                        std::span<std::byte> out, std::size_t elem_size,
                        const CombineFn& combine, int root) {
  note_collective("simpi.coll.reduces");
  DRX_CHECK(in.size() % elem_size == 0);
  const std::size_t count = in.size() / elem_size;
  if (rank_ == root) {
    DRX_CHECK(out.size() == in.size());
    std::memcpy(out.data(), in.data(), in.size());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      std::vector<std::byte> payload = coll_recv(r, kTagReduce);
      DRX_CHECK(payload.size() == in.size());
      for (std::size_t e = 0; e < count; ++e) {
        combine(out.data() + e * elem_size, payload.data() + e * elem_size);
      }
    }
  } else {
    coll_send(in, root, kTagReduce);
  }
}

void Comm::allreduce_bytes(std::span<const std::byte> in,
                           std::span<std::byte> out, std::size_t elem_size,
                           const CombineFn& combine) {
  reduce_bytes(in, out, elem_size, combine, 0);
  bcast_bytes(out, 0);
}

void Comm::gather_bytes(std::span<const std::byte> in,
                        std::span<std::byte> out, int root) {
  note_collective("simpi.coll.gathers");
  if (rank_ == root) {
    DRX_CHECK(out.size() == in.size() * static_cast<std::size_t>(size()));
    std::memcpy(out.data() + static_cast<std::size_t>(root) * in.size(),
                in.data(), in.size());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      std::vector<std::byte> payload = coll_recv(r, kTagGather);
      DRX_CHECK(payload.size() == in.size());
      std::memcpy(out.data() + static_cast<std::size_t>(r) * in.size(),
                  payload.data(), payload.size());
    }
  } else {
    coll_send(in, root, kTagGather);
  }
}

void Comm::allgather_bytes(std::span<const std::byte> in,
                           std::span<std::byte> out) {
  gather_bytes(in, out, 0);
  bcast_bytes(out, 0);
}

std::vector<std::vector<std::byte>> Comm::gatherv_bytes(
    std::span<const std::byte> in, int root) {
  note_collective("simpi.coll.gathers");
  std::vector<std::vector<std::byte>> result;
  if (rank_ == root) {
    result.resize(static_cast<std::size_t>(size()));
    result[static_cast<std::size_t>(root)].assign(in.begin(), in.end());
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      result[static_cast<std::size_t>(r)] = coll_recv(r, kTagGather);
    }
  } else {
    coll_send(in, root, kTagGather);
  }
  return result;
}

std::vector<std::vector<std::byte>> Comm::allgatherv_bytes(
    std::span<const std::byte> in) {
  auto result = gatherv_bytes(in, 0);
  // Serialize at root and broadcast; simple and adequate for metadata-sized
  // payloads (the data path uses alltoallv, not allgatherv).
  std::vector<std::byte> packed;
  if (rank_ == 0) {
    for (const auto& chunk : result) {
      std::uint64_t n = chunk.size();
      const auto* nb = reinterpret_cast<const std::byte*>(&n);
      packed.insert(packed.end(), nb, nb + sizeof(n));
      packed.insert(packed.end(), chunk.begin(), chunk.end());
    }
  }
  bcast_vector(packed, 0);
  if (rank_ != 0) {
    result.clear();
    std::size_t pos = 0;
    while (pos < packed.size()) {
      std::uint64_t n = 0;
      std::memcpy(&n, packed.data() + pos, sizeof(n));
      pos += sizeof(n);
      result.emplace_back(packed.begin() + static_cast<std::ptrdiff_t>(pos),
                          packed.begin() +
                              static_cast<std::ptrdiff_t>(pos + n));
      pos += static_cast<std::size_t>(n);
    }
  }
  return result;
}

std::vector<std::byte> Comm::scatterv_bytes(
    const std::vector<std::vector<std::byte>>& chunks, int root) {
  note_collective("simpi.coll.scatters");
  if (rank_ == root) {
    DRX_CHECK(chunks.size() == static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      coll_send(chunks[static_cast<std::size_t>(r)], r, kTagScatter);
    }
    return chunks[static_cast<std::size_t>(root)];
  }
  return coll_recv(root, kTagScatter);
}

std::vector<std::vector<std::byte>> Comm::alltoallv_bytes(
    std::vector<std::vector<std::byte>> send_chunks) {
  note_collective("simpi.coll.alltoalls");
  std::uint64_t outbound = 0;
  for (const auto& chunk : send_chunks) outbound += chunk.size();
  obs::ScopedSpan span("simpi.alltoallv", "simpi", outbound);
  DRX_CHECK(send_chunks.size() == static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    coll_send(std::move(send_chunks[static_cast<std::size_t>(r)]), r,
              kTagAlltoall);
  }
  std::vector<std::vector<std::byte>> result(
      static_cast<std::size_t>(size()));
  result[static_cast<std::size_t>(rank_)] =
      std::move(send_chunks[static_cast<std::size_t>(rank_)]);
  for (int r = 0; r < size(); ++r) {
    if (r == rank_) continue;
    result[static_cast<std::size_t>(r)] = coll_recv(r, kTagAlltoall);
  }
  return result;
}

std::uint64_t Comm::scan_sum_u64(std::uint64_t value) {
  note_collective("simpi.coll.scans");
  // Linear chain: rank r receives the prefix from r-1, adds, forwards.
  std::uint64_t prefix = value;
  if (rank_ > 0) {
    std::vector<std::byte> payload = coll_recv(rank_ - 1, kTagScan);
    std::uint64_t left = 0;
    DRX_CHECK(payload.size() == sizeof(left));
    std::memcpy(&left, payload.data(), sizeof(left));
    prefix += left;
  }
  if (rank_ + 1 < size()) {
    coll_send(std::as_bytes(std::span<const std::uint64_t>(&prefix, 1)),
              rank_ + 1, kTagScan);
  }
  return prefix;
}

Comm Comm::dup() {
  std::uint32_t ctx = 0;
  if (rank_ == 0) ctx = world_->allocate_context();
  bcast_bytes(std::as_writable_bytes(std::span<std::uint32_t>(&ctx, 1)), 0);
  return Comm(world_, ctx, rank_, members_);
}

Comm Comm::split(int color, int key) {
  struct Entry {
    int color, key, rank;
  };
  Entry mine{color, key, rank_};
  std::vector<std::byte> packed(sizeof(Entry) *
                                static_cast<std::size_t>(size()));
  allgather_bytes(std::as_bytes(std::span<const Entry>(&mine, 1)), packed);

  std::vector<Entry> all(static_cast<std::size_t>(size()));
  std::memcpy(all.data(), packed.data(), packed.size());

  // Distinct non-negative colors in ascending order; rank 0 of the parent
  // allocates one context per color and broadcasts them so every member of
  // a given color agrees.
  std::vector<int> colors;
  for (const Entry& e : all) {
    if (e.color >= 0 &&
        std::find(colors.begin(), colors.end(), e.color) == colors.end()) {
      colors.push_back(e.color);
    }
  }
  std::sort(colors.begin(), colors.end());
  std::vector<std::uint32_t> contexts(colors.size());
  if (rank_ == 0) {
    for (auto& c : contexts) c = world_->allocate_context();
  }
  bcast_bytes(std::as_writable_bytes(std::span<std::uint32_t>(contexts)), 0);

  if (color < 0) {
    return Comm(world_, world_->allocate_context(), 0, {world_rank(rank_)});
  }

  std::vector<Entry> group;
  for (const Entry& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::stable_sort(group.begin(), group.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> new_members;
  int new_rank = -1;
  for (std::size_t i = 0; i < group.size(); ++i) {
    new_members.push_back(world_rank(group[i].rank));
    if (group[i].rank == rank_) new_rank = static_cast<int>(i);
  }
  DRX_CHECK(new_rank >= 0);

  const std::size_t color_idx = static_cast<std::size_t>(
      std::find(colors.begin(), colors.end(), color) - colors.begin());
  return Comm(world_, contexts[color_idx], new_rank, std::move(new_members));
}

}  // namespace drx::simpi
