#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "obs/metrics.hpp"
#include "simpi/runtime.hpp"

namespace drx::simpi {
namespace {

class CollectivesP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesP, BarrierSynchronizes) {
  const int p = GetParam();
  std::atomic<int> before{0};
  run(p, [&](Comm& comm) {
    ++before;
    comm.barrier();
    // After the barrier every rank's increment must be visible.
    EXPECT_EQ(before.load(), comm.size());
    comm.barrier();
  });
}

TEST_P(CollectivesP, BcastFromEveryRoot) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    for (int root = 0; root < comm.size(); ++root) {
      std::uint64_t v = comm.rank() == root ? 1000u + static_cast<unsigned>(root) : 0u;
      comm.bcast_value(v, root);
      EXPECT_EQ(v, 1000u + static_cast<unsigned>(root));
    }
  });
}

TEST_P(CollectivesP, BcastVectorResizes) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    std::vector<std::byte> data;
    if (comm.rank() == 0) data.assign(37, std::byte{5});
    comm.bcast_vector(data, 0);
    ASSERT_EQ(data.size(), 37u);
    EXPECT_EQ(data[36], std::byte{5});
  });
}

TEST_P(CollectivesP, AllreduceSumMinMax) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    const int n = comm.size();
    const int r = comm.rank();
    EXPECT_EQ(comm.allreduce_value(r, ReduceOp::kSum), n * (n - 1) / 2);
    EXPECT_EQ(comm.allreduce_value(r, ReduceOp::kMin), 0);
    EXPECT_EQ(comm.allreduce_value(r, ReduceOp::kMax), n - 1);
  });
}

TEST_P(CollectivesP, AllreduceVectorDoubles) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    std::vector<double> in = {1.0 * comm.rank(), 2.0, -1.0 * comm.rank()};
    std::vector<double> out(3);
    comm.allreduce(std::span<const double>(in), std::span<double>(out),
                   ReduceOp::kSum);
    const double s = comm.size() * (comm.size() - 1) / 2.0;
    EXPECT_DOUBLE_EQ(out[0], s);
    EXPECT_DOUBLE_EQ(out[1], 2.0 * comm.size());
    EXPECT_DOUBLE_EQ(out[2], -s);
  });
}

TEST_P(CollectivesP, GatherAndAllgather) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    auto all = comm.allgather_value<int>(comm.rank() * 3);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 3);
    }
  });
}

TEST_P(CollectivesP, GathervVariableSizes) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                static_cast<std::byte>(comm.rank()));
    auto gathered = comm.gatherv_bytes(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(comm.size()));
      for (int r = 0; r < comm.size(); ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r) + 1);
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(CollectivesP, AllgathervEveryoneSeesAll) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    std::vector<std::byte> mine(static_cast<std::size_t>(comm.rank()) * 2,
                                static_cast<std::byte>(comm.rank() + 1));
    auto gathered = comm.allgatherv_bytes(mine);
    ASSERT_EQ(gathered.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      const auto& chunk = gathered[static_cast<std::size_t>(r)];
      EXPECT_EQ(chunk.size(), static_cast<std::size_t>(r) * 2);
      for (std::byte b : chunk) {
        EXPECT_EQ(b, static_cast<std::byte>(r + 1));
      }
    }
  });
}

TEST_P(CollectivesP, ScattervDistributes) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    std::vector<std::vector<std::byte>> chunks;
    if (comm.rank() == 0) {
      for (int r = 0; r < comm.size(); ++r) {
        chunks.emplace_back(static_cast<std::size_t>(r) + 2,
                            static_cast<std::byte>(r * 7));
      }
    }
    auto mine = comm.scatterv_bytes(chunks, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank()) + 2);
    for (std::byte b : mine) {
      EXPECT_EQ(b, static_cast<std::byte>(comm.rank() * 7));
    }
  });
}

TEST_P(CollectivesP, AlltoallvFullExchange) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    // Rank r sends (r*size + d) as a one-int buffer to destination d.
    std::vector<std::vector<std::byte>> send(
        static_cast<std::size_t>(comm.size()));
    for (int d = 0; d < comm.size(); ++d) {
      const int v = comm.rank() * comm.size() + d;
      send[static_cast<std::size_t>(d)].resize(sizeof(int));
      std::memcpy(send[static_cast<std::size_t>(d)].data(), &v, sizeof(v));
    }
    auto recv = comm.alltoallv_bytes(send);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(comm.size()));
    for (int s = 0; s < comm.size(); ++s) {
      int v = -1;
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), sizeof(v));
      std::memcpy(&v, recv[static_cast<std::size_t>(s)].data(), sizeof(v));
      EXPECT_EQ(v, s * comm.size() + comm.rank());
    }
  });
}

TEST_P(CollectivesP, AlltoallvHandsItsBuffersOver) {
  // Each send buffer moves into its message (the rank's own part into
  // the result), so every receiver holds the very allocation its sender
  // filled. The counters still see one message per off-rank buffer.
  const int p = GetParam();
  const auto np = static_cast<std::size_t>(p);
  const auto len = [np](std::size_t src, std::size_t dst) {
    return 16 + src * np + dst;
  };
  std::vector<const std::byte*> sent(np * np, nullptr);  // [src * p + dst]
  const obs::MetricsSnapshot before = obs::process_registry().snapshot();
  run(p, [&](Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    std::vector<std::vector<std::byte>> send(np);
    for (std::size_t d = 0; d < np; ++d) {
      send[d].assign(len(me, d), static_cast<std::byte>(me));
      sent[me * np + d] = send[d].data();
    }
    const auto recv = comm.alltoallv_bytes(std::move(send));
    ASSERT_EQ(recv.size(), np);
    for (std::size_t s = 0; s < np; ++s) {
      EXPECT_EQ(recv[s].data(), sent[s * np + me]) << "from " << s;
      EXPECT_EQ(recv[s],
                std::vector<std::byte>(len(s, me), static_cast<std::byte>(s)));
    }
  });
  const obs::MetricsSnapshot d =
      obs::snapshot_delta(obs::process_registry().snapshot(), before);
  std::uint64_t bytes = 0;
  for (std::size_t s = 0; s < np; ++s) {
    for (std::size_t t = 0; t < np; ++t) {
      if (s != t) bytes += len(s, t);
    }
  }
  EXPECT_EQ(d.counter("simpi.coll.alltoalls"), np);
  EXPECT_EQ(d.counter("simpi.coll.messages"), np * (np - 1));
  EXPECT_EQ(d.counter("simpi.coll.bytes"), bytes);
}

TEST_P(CollectivesP, ScanSumIsInclusivePrefix) {
  const int p = GetParam();
  run(p, [&](Comm& comm) {
    const std::uint64_t r = static_cast<std::uint64_t>(comm.rank());
    EXPECT_EQ(comm.scan_sum_u64(r + 1),
              (r + 1) * (r + 2) / 2);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(Collectives, ReduceToNonZeroRoot) {
  run(4, [](Comm& comm) {
    const double in = 1.5;
    double out = 0;
    auto sum = [](std::byte* dst, const std::byte* src) {
      double a, b;
      std::memcpy(&a, dst, sizeof(a));
      std::memcpy(&b, src, sizeof(b));
      a += b;
      std::memcpy(dst, &a, sizeof(a));
    };
    comm.reduce_bytes(std::as_bytes(std::span<const double>(&in, 1)),
                      comm.rank() == 2
                          ? std::as_writable_bytes(std::span<double>(&out, 1))
                          : std::span<std::byte>(),
                      sizeof(double), sum, 2);
    if (comm.rank() == 2) {
      EXPECT_DOUBLE_EQ(out, 6.0);
    }
  });
}

}  // namespace
}  // namespace drx::simpi
