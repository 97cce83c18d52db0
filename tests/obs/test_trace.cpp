#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/drxmp.hpp"
#include "io/config.hpp"
#include "obs/json.hpp"
#include "simpi/runtime.hpp"

namespace drx::obs {
namespace {

/// RAII: enable tracing to a temp file, restore the prior state after.
class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "drx_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".json";
    clear_trace();
    set_trace_path(path_);
  }
  void TearDown() override {
    set_trace_path("");
    clear_trace();
    std::remove(path_.c_str());
  }

  [[nodiscard]] std::string read_back() const {
    std::ifstream in(path_);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::string path_;
};

TEST(Trace, DisabledByDefaultAndSpansAreFree) {
  ASSERT_TRUE(trace_path().empty())
      << "DRX_TRACE must not be set in the test environment";
  EXPECT_FALSE(trace_enabled());
  const std::size_t before = trace_event_count();
  { ScopedSpan span("test.noop", "test", 128); }
  EXPECT_EQ(trace_event_count(), before);
}

TEST_F(TraceFixture, RecordsSpansAndWritesValidJson) {
  EXPECT_TRUE(trace_enabled());
  { ScopedSpan span("test.outer", "test"); }
  { ScopedSpan span("test.sized", "test", 4096); }
  EXPECT_EQ(trace_event_count(), 2u);
  ASSERT_TRUE(flush_trace().is_ok());

  const std::string text = read_back();
  EXPECT_TRUE(json_validate(text)) << text.substr(0, 400);
  EXPECT_NE(text.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(text.find("\"test.sized\""), std::string::npos);
  EXPECT_NE(text.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  // Host-thread spans belong to pseudo-pid 0.
  EXPECT_NE(text.find("\"pid\":0"), std::string::npos);
}

TEST_F(TraceFixture, CollectiveTransferSpansAllFourLayers) {
  constexpr int kRanks = 4;
  pfs::PfsConfig cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kDouble;
    auto fr = core::DrxMpFile::create(comm, fs, "traced", core::Shape{16, 16},
                                      core::Shape{4, 4}, opts);
    ASSERT_TRUE(fr.is_ok());
    core::DrxMpFile file = std::move(fr).value();
    const core::Distribution dist = file.block_distribution();
    const core::Box zone = file.zone_element_box(dist, comm.rank());
    std::vector<std::byte> buf(static_cast<std::size_t>(
        file.zone_buffer_bytes(dist, comm.rank())));
    ASSERT_TRUE(file
                    .write_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                   /*collective=*/true)
                    .is_ok());
    ASSERT_TRUE(file
                    .read_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                  /*collective=*/true)
                    .is_ok());
    (void)zone;
    ASSERT_TRUE(file.close().is_ok());
  });
  ASSERT_TRUE(flush_trace().is_ok());

  const std::string text = read_back();
  ASSERT_TRUE(json_validate(text));
  // One span from each instrumented layer of the stack.
  EXPECT_NE(text.find("\"core.write_chunks\""), std::string::npos);
  EXPECT_NE(text.find("\"mpio.collective_write\""), std::string::npos);
  EXPECT_NE(text.find("\"mpio.coll.exchange\""), std::string::npos);
  EXPECT_NE(text.find("\"mpio.coll.io\""), std::string::npos);
  EXPECT_NE(text.find("\"simpi.alltoallv\""), std::string::npos);
  EXPECT_NE(text.find("\"pfs.write\""), std::string::npos);
  // Every rank renders as its own pseudo-process (pid = rank + 1), each
  // announced by a process_name metadata record.
  for (int r = 0; r < kRanks; ++r) {
    const std::string pid = "\"pid\":" + std::to_string(r + 1);
    EXPECT_NE(text.find(pid), std::string::npos) << "missing rank " << r;
  }
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"rank 0\""), std::string::npos);
}

// Acceptance: a traced multi-rank zone read through the async engine
// emits flow events causally linking the submitting op to the pool job
// and on to the PFS requests it issues (docs/OBSERVABILITY.md).
TEST_F(TraceFixture, AsyncZoneReadEmitsCausalFlowArrows) {
  constexpr int kRanks = 4;
  io::set_io_threads(1);  // enable the pipelined read path + worker flows
  pfs::PfsConfig cfg;
  cfg.num_servers = 2;
  cfg.stripe_size = 256;
  pfs::Pfs fs(cfg);
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kDouble;
    auto fr = core::DrxMpFile::create(comm, fs, "flows", core::Shape{16, 16},
                                      core::Shape{4, 4}, opts);
    ASSERT_TRUE(fr.is_ok());
    core::DrxMpFile file = std::move(fr).value();
    const core::Distribution dist = file.block_distribution();
    std::vector<std::byte> buf(static_cast<std::size_t>(
        file.zone_buffer_bytes(dist, comm.rank())));
    ASSERT_TRUE(file
                    .write_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                   /*collective=*/true)
                    .is_ok());
    ASSERT_TRUE(file
                    .read_my_zone(dist, core::MemoryOrder::kRowMajor, buf,
                                  /*collective=*/true)
                    .is_ok());
    ASSERT_TRUE(file.close().is_ok());
  });
  io::set_io_threads(-1);  // restore env-derived default for sibling tests
  ASSERT_TRUE(flush_trace().is_ok());

  const std::string text = read_back();
  ASSERT_TRUE(json_validate(text));
  auto doc = json_parse(text);
  ASSERT_TRUE(doc.is_ok());
  const JsonValue* events = doc.value().find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Collect flow starts ("s") and finishes ("f"); every id must pair up,
  // every flow carries the op id of the submitting operation.
  std::vector<std::uint64_t> starts;
  std::vector<std::uint64_t> finishes;
  bool op_summary_seen = false;
  bool pool_job_seen = false;
  bool pfs_span_seen = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr) continue;
    if (ph->as_string() == "s" || ph->as_string() == "f") {
      const JsonValue* cat = e.find("cat");
      ASSERT_NE(cat, nullptr);
      EXPECT_EQ(cat->as_string(), "flow");
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->uint_at("op"), 0u)
          << "flow event without a causal op id";
      if (ph->as_string() == "s") {
        starts.push_back(e.uint_at("id"));
      } else {
        EXPECT_EQ(e.find("bp")->as_string(), "e");
        finishes.push_back(e.uint_at("id"));
      }
      continue;
    }
    if (ph->as_string() != "X") continue;
    const JsonValue* name = e.find("name");
    if (name == nullptr) continue;
    if (const JsonValue* cat = e.find("cat");
        cat != nullptr && cat->as_string() == "op") {
      op_summary_seen = true;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->find("io_service_ns"), nullptr);
      EXPECT_NE(args->find("dominant"), nullptr);
    }
    if (name->as_string() == "io.pool.job") {
      pool_job_seen = true;
      // The job ran under the submitting op's restored context.
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_NE(args->uint_at("op"), 0u);
    }
    if (name->as_string() == "pfs.read" || name->as_string() == "pfs.write") {
      pfs_span_seen = true;
    }
  }
  ASSERT_FALSE(starts.empty()) << "no flow arrows in the trace";
  std::sort(starts.begin(), starts.end());
  std::sort(finishes.begin(), finishes.end());
  EXPECT_EQ(starts, finishes) << "unpaired flow start/finish ids";
  EXPECT_TRUE(op_summary_seen) << "no op-summary event (cat \"op\")";
  EXPECT_TRUE(pool_job_seen);
  EXPECT_TRUE(pfs_span_seen);
  // The writer accounts flows and ops in its metadata record.
  const JsonValue* meta = doc.value().find("metadata");
  ASSERT_NE(meta, nullptr);
  EXPECT_GE(meta->uint_at("flows"), starts.size());
  EXPECT_GE(meta->uint_at("ops"), 1u);
}

// The per-thread ring holds 512 records: a traced thread that wraps it
// many times, and one that exits with an undrained tail, must still hand
// every span to the trace.
TEST_F(TraceFixture, RingWrapAndThreadExitLoseNoSpans) {
  constexpr std::size_t kMain = 3 * 512 + 7;
  constexpr std::size_t kWorker = 700;
  for (std::size_t i = 0; i < kMain; ++i) ScopedSpan span("test.wrap", "test");
  std::thread([] {
    for (std::size_t i = 0; i < kWorker; ++i) {
      ScopedSpan span("test.exited", "test");
    }
  }).join();
  EXPECT_EQ(trace_event_count(), kMain + kWorker);
  ASSERT_TRUE(flush_trace().is_ok());
  auto doc = json_parse(read_back());
  ASSERT_TRUE(doc.is_ok());
  const JsonValue* meta = doc.value().find("metadata");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->uint_at("events"), kMain + kWorker);
  EXPECT_EQ(meta->uint_at("dropped"), 0u);
}

TEST_F(TraceFixture, ClearTraceDropsBufferedEvents) {
  { ScopedSpan span("test.cleared", "test"); }
  EXPECT_GE(trace_event_count(), 1u);
  clear_trace();
  EXPECT_EQ(trace_event_count(), 0u);
}

}  // namespace
}  // namespace drx::obs
