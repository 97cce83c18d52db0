#include "simpi/runtime.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"

namespace drx::simpi {

void run(int nprocs, const std::function<void(Comm&)>& body) {
  DRX_CHECK(nprocs >= 1);
  auto world = std::make_shared<World>(nprocs);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([world, r, &body] {
      // Rank-local metrics registry + trace pseudo-pid for the body's
      // lifetime; counters fold into the process registry on exit.
      obs::RankScope obs_scope(r);
      Comm comm(world, r);
      try {
        obs::ScopedSpan span("simpi.rank_body", "simpi");
        body(comm);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[simpi] rank %d terminated by exception: %s\n",
                     r, e.what());
        std::fflush(stderr);
        std::abort();
      } catch (...) {
        std::fprintf(stderr, "[simpi] rank %d terminated by unknown exception\n",
                     r);
        std::fflush(stderr);
        std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Rank registries just folded into the process registry; record one
  // final epoch so jobs shorter than a series epoch still get an endpoint.
  if (obs::window_ticker_running()) obs::window_record_epoch();
}

}  // namespace drx::simpi
