// drx::serve session-layer tests (docs/SERVING.md): request round-trips
// through futures and completions, many sessions over few workers,
// extend serialized against in-flight traffic by the structure lock,
// error propagation, and the per-session counters that feed the
// drx_doctor session-starvation detector.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "util/rng.hpp"

namespace drx::serve {
namespace {

using core::Box;
using core::DrxFile;
using core::Index;
using core::MemoryOrder;
using core::Shape;

constexpr std::size_t kElem = sizeof(double);

DrxFile make_file(Shape bounds, Shape chunk) {
  DrxFile::Options options;
  options.dtype = core::ElementType::kDouble;
  auto f = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                           std::make_unique<pfs::MemStorage>(),
                           std::move(bounds), std::move(chunk), options);
  EXPECT_TRUE(f.is_ok());
  return std::move(f).value();
}

std::vector<std::byte> doubles_bytes(const std::vector<double>& v) {
  std::vector<std::byte> out(v.size() * kElem);
  std::memcpy(out.data(), v.data(), out.size());
  return out;
}

Request write_req(Box box, std::vector<double> values) {
  Request req;
  req.type = RequestType::kWrite;
  req.box = std::move(box);
  req.data = doubles_bytes(values);
  return req;
}

Request read_req(Box box, std::span<std::byte> out) {
  Request req;
  req.type = RequestType::kRead;
  req.box = std::move(box);
  req.out = out;
  return req;
}

TEST(Serve, WriteThenReadRoundTripsThroughOneSession) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  Server server(file, Server::Options{});
  Session& s = server.open_session();

  const Box box{Index{2, 2}, Index{4, 4}};
  ASSERT_TRUE(s.submit(write_req(box, {1, 2, 3, 4})).get().is_ok());

  std::vector<std::byte> out(4 * kElem);
  ASSERT_TRUE(s.submit(read_req(box, out)).get().is_ok());
  std::vector<double> got(4);
  std::memcpy(got.data(), out.data(), out.size());
  EXPECT_EQ(got, (std::vector<double>{1, 2, 3, 4}));
  EXPECT_EQ(s.submitted(), 2u);
  EXPECT_EQ(s.completed(), 2u);
  EXPECT_EQ(s.failed(), 0u);
}

// A request leaves exactly its own op summary in the flight rings, not a
// session-tagged pseudo-op that drx_stats --top would list as a 0 us op.
TEST(Serve, FlightDumpHoldsNoSessionPseudoOp) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  Server server(file, Server::Options{});
  Session& s = server.open_session();
  std::vector<std::byte> out(4 * kElem);
  ASSERT_TRUE(
      s.submit(read_req(Box{Index{0, 0}, Index{2, 2}}, out)).get().is_ok());

  const std::string path = ::testing::TempDir() + "drx_serve_flight.json";
  ASSERT_TRUE(obs::dump_flight(path, "on-demand").is_ok());
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  auto doc = obs::json_parse(text.str());
  ASSERT_TRUE(doc.is_ok());
  bool request_op = false;
  for (const obs::JsonValue& t : doc.value().find("threads")->array) {
    for (const obs::JsonValue& r : t.find("records")->array) {
      if (r.find("kind")->as_string() != "op") continue;
      EXPECT_NE(r.find("name")->as_string(), "serve.session");
      if (r.find("name")->as_string() == "serve.request") request_op = true;
    }
  }
  EXPECT_TRUE(request_op) << "no op summary for the served request";
}

TEST(Serve, ManySessionsOverFewWorkersAllComplete) {
  DrxFile file = make_file(Shape{16, 16}, Shape{2, 2});
  Server::Options options;
  options.workers = 2;
  Server server(file, options);

  constexpr int kSessions = 12;
  constexpr int kPerSession = 8;
  std::vector<Session*> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(&server.open_session());
  }
  EXPECT_EQ(server.sessions(), static_cast<std::size_t>(kSessions));

  std::atomic<int> completions{0};
  for (int i = 0; i < kSessions; ++i) {
    for (int j = 0; j < kPerSession; ++j) {
      const std::uint64_t r = static_cast<std::uint64_t>(i);
      const Box box{Index{r, 0}, Index{r + 1, 2}};
      sessions[static_cast<std::size_t>(i)]->submit(
          write_req(box, {static_cast<double>(i), static_cast<double>(j)}),
          [&completions](const Status& st) {
            EXPECT_TRUE(st.is_ok());
            completions.fetch_add(1, std::memory_order_relaxed);
          });
    }
  }
  server.drain();
  EXPECT_EQ(completions.load(), kSessions * kPerSession);
  for (Session* s : sessions) {
    EXPECT_EQ(s->completed(), static_cast<std::uint64_t>(kPerSession));
  }
  ASSERT_TRUE(server.flush().is_ok());
}

TEST(Serve, ExtendGrowsTheArrayUnderConcurrentTraffic) {
  DrxFile file = make_file(Shape{4, 4}, Shape{2, 2});
  Server::Options options;
  options.workers = 3;
  Server server(file, options);
  Session& traffic = server.open_session();
  Session& admin = server.open_session();

  // Keep reads and writes in flight while the array grows; the structure
  // lock must serialize the extend against all of them.
  std::vector<std::byte> out(4 * kElem);
  const Box small{Index{0, 0}, Index{2, 2}};
  for (int i = 0; i < 8; ++i) {
    traffic.submit(write_req(small, {1, 2, 3, 4}), [](const Status& st) {
      EXPECT_TRUE(st.is_ok());
    });
    traffic.submit(read_req(small, out), [](const Status& st) {
      EXPECT_TRUE(st.is_ok());
    });
  }
  Request grow;
  grow.type = RequestType::kExtend;
  grow.dim = 0;
  grow.delta = 4;
  ASSERT_TRUE(admin.submit(std::move(grow)).get().is_ok());
  server.drain();
  EXPECT_EQ(file.bounds()[0], 8u);

  // The grown region is addressable through the same server.
  const Box high{Index{6, 0}, Index{7, 2}};
  ASSERT_TRUE(admin.submit(write_req(high, {9, 9})).get().is_ok());
  std::vector<std::byte> out2(2 * kElem);
  ASSERT_TRUE(admin.submit(read_req(high, out2)).get().is_ok());
  double v = 0;
  std::memcpy(&v, out2.data(), sizeof(v));
  EXPECT_EQ(v, 9.0);
}

TEST(Serve, OutOfBoundsReadFailsTheFutureAndCountsAgainstTheSession) {
  DrxFile file = make_file(Shape{4, 4}, Shape{2, 2});
  Server server(file, Server::Options{});
  Session& s = server.open_session();
  std::vector<std::byte> out(4 * kElem);
  const Status st =
      s.submit(read_req(Box{Index{10, 10}, Index{12, 12}}, out)).get();
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(s.failed(), 1u);
  EXPECT_EQ(s.completed(), 1u);
}

TEST(Serve, PrefetchRequestsCompleteAndWarmTheCache) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  Server server(file, Server::Options{});
  Session& s = server.open_session();
  Request pre;
  pre.type = RequestType::kPrefetch;
  pre.box = Box{Index{0, 0}, Index{8, 8}};
  ASSERT_TRUE(s.submit(std::move(pre)).get().is_ok());
  server.drain();
  std::vector<std::byte> out(4 * kElem);
  ASSERT_TRUE(
      s.submit(read_req(Box{Index{0, 0}, Index{2, 2}}, out)).get().is_ok());
}

TEST(Serve, PublishesSessionCompletionSpreadForTheDoctor) {
  obs::registry().reset();
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  {
    Server server(file, Server::Options{});
    Session& busy = server.open_session();
    (void)server.open_session();  // idle session: min should be 0
    std::vector<std::byte> out(4 * kElem);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          busy.submit(read_req(Box{Index{0, 0}, Index{2, 2}}, out))
              .get()
              .is_ok());
    }
  }  // ~Server publishes the spread
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_EQ(snap.counter("serve.sessions"), 2u);
  EXPECT_EQ(snap.counter("serve.session.completed_min"), 0u);
  EXPECT_EQ(snap.counter("serve.session.completed_max"), 4u);
  EXPECT_GE(snap.counter("serve.requests.completed"), 4u);
}

TEST(Serve, ServerDefaultsToShardedCache) {
  DrxFile file = make_file(Shape{8, 8}, Shape{2, 2});
  Server server(file, Server::Options{});
  EXPECT_GE(server.array().cache().shard_count(), 2u);
}

}  // namespace
}  // namespace drx::serve
