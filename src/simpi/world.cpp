#include "simpi/world.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace drx::simpi {

namespace detail {

namespace {

// How long a wait spins before it parks on its condition variable. One
// park/wake round trip between two threads costs ~15 us on a 4-core x86
// box, and spinning for about one block-and-wake is 2-competitive
// (Karlin, Li, Manasse & Owicki, SOSP 1991). The budget is ~4 round
// trips, because a collective's last message often trails by a few hops;
// on drx_bench append_extend's setup, budgets of 16, 64 and 250 us all
// came out ~18% below parking at once, within noise of each other.
constexpr auto kSpinBudget = std::chrono::microseconds(64);

// A spinner yields its core every this many polls, so that next to other
// processes' threads it does not starve the rank it waits for: a 4-rank
// stress test beside three others ran 8x slower without the yield.
// MPICH2's Nemesis channel also yields between polls of its queues.
constexpr unsigned kPollsPerYield = 16;

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until `ready()` holds or kSpinBudget passes; returns `ready()`.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned polls = 1; !ready(); ++polls) {
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    if (polls % kPollsPerYield == 0) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
  return true;
}

/// Counts a wait that spinning ended (`simpi.wait.spin_hits`) or that
/// slept on the condition variable (`simpi.wait.parks`).
void note_wait(bool parked) {
  static const obs::MetricId kSpinHits =
      obs::counter_id("simpi.wait.spin_hits");
  static const obs::MetricId kParks = obs::counter_id("simpi.wait.parks");
  obs::registry().counter(parked ? kParks : kSpinHits).add();
}

}  // namespace

bool spin_waits(int nranks) {
  return static_cast<unsigned>(nranks) <= std::thread::hardware_concurrency();
}

void Mailbox::push(Message msg) {
  {
    util::MutexLock lock(mu_);
    queue_.push_back(std::move(msg));
    pushes_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_one();  // one consumer: the owning rank
}

bool Mailbox::matches(const Message& m, int source, int tag,
                      std::uint32_t context) const {
  if (m.context != context) return false;
  if (source != kAnySource && m.source != source) return false;
  if (tag != kAnyTag && m.tag != tag) return false;
  return true;
}

template <typename Take>
auto Mailbox::await_match(int source, int tag, std::uint32_t context,
                          Take take) {
  util::MutexLock lock(mu_);
  for (;;) {
    auto it = std::find_if(queue_.begin(), queue_.end(),
                           [&](const Message& m) {
                             return matches(m, source, tag, context);
                           });
    if (it != queue_.end()) return take(it);
    const std::uint64_t seen = pushes_.load(std::memory_order_relaxed);
    const auto pushed = [&] {
      return pushes_.load(std::memory_order_acquire) != seen;
    };
    if (spin_) {
      lock.unlock();
      const bool hit = spin_until(pushed);
      lock.lock();
      if (hit) {
        note_wait(/*parked=*/false);
        continue;
      }
    }
    // Re-checked under the lock: a push that lands after the spin gave up
    // and before this thread parks would otherwise wake nobody.
    if (pushed()) continue;
    note_wait(/*parked=*/true);
    cv_.wait(lock);
  }
}

Message Mailbox::pop(int source, int tag, std::uint32_t context) {
  return await_match(source, tag, context, [&](auto it) {
    mu_.assert_held();
    Message msg = std::move(*it);
    queue_.erase(it);
    return msg;
  });
}

std::optional<Message> Mailbox::try_pop(int source, int tag,
                                        std::uint32_t context) {
  util::MutexLock lock(mu_);
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [&](const Message& m) {
                           return matches(m, source, tag, context);
                         });
  if (it == queue_.end()) return std::nullopt;
  Message msg = std::move(*it);
  queue_.erase(it);
  return msg;
}

void Mailbox::probe(int source, int tag, std::uint32_t context,
                    int& out_source, int& out_tag, std::size_t& out_size) {
  await_match(source, tag, context, [&](auto it) {
    out_source = it->source;
    out_tag = it->tag;
    out_size = it->payload.size();
  });
}

void BarrierState::arrive_and_wait() {
  util::MutexLock lock(mu_);
  const std::uint64_t my_generation =
      generation_.load(std::memory_order_relaxed);
  if (++arrived_ == nranks_) {
    arrived_ = 0;
    generation_.store(my_generation + 1, std::memory_order_release);
    cv_.notify_all();
    return;
  }
  const auto released = [&] {
    return generation_.load(std::memory_order_acquire) != my_generation;
  };
  if (spin_) {
    lock.unlock();
    if (spin_until(released)) {
      note_wait(/*parked=*/false);
      return;
    }
    lock.lock();
  }
  // The predicate re-checks under the lock, so a release between the
  // spin's last look and the park is not lost.
  if (released()) return;
  note_wait(/*parked=*/true);
  cv_.wait(lock, released);
}

}  // namespace detail

World::World(int nranks) : nranks_(nranks), spin_(detail::spin_waits(nranks)) {
  DRX_CHECK(nranks >= 1);
  for (int r = 0; r < nranks; ++r) mailboxes_.emplace_back(spin_);
}

detail::Mailbox& World::mailbox(int rank) {
  DRX_CHECK(rank >= 0 && rank < nranks_);
  return mailboxes_[static_cast<std::size_t>(rank)];
}

detail::BarrierState& World::barrier(std::uint32_t context, int nranks) {
  util::MutexLock lock(barrier_mu_);
  for (auto& [id, state] : barriers_) {
    if (id == context) return *state;
  }
  barriers_.emplace_back(
      context, std::make_unique<detail::BarrierState>(nranks, spin_));
  return *barriers_.back().second;
}

std::uint32_t World::allocate_context() {
  util::MutexLock lock(context_mu_);
  return next_context_++;
}

}  // namespace drx::simpi
