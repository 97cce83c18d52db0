// Flight recorder end-to-end (obs/flight.hpp): the always-on ring must
// produce a parseable post-mortem dump when a deferred write-back hits a
// sticky I/O error — with tracing disabled, the production configuration
// — and the dump must contain the failing op's causal chain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/chunk_cache.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/opctx.hpp"
#include "obs/trace.hpp"

namespace drx::core {
namespace {

/// Storage wrapper injecting write failures over MemStorage (the
/// write-behind eviction path defers these onto pool workers).
class FaultyStorage final : public pfs::Storage {
 public:
  struct Controls {
    std::atomic<int> fail_writes_after{-1};  ///< -1 = never fail
    std::atomic<int> writes_seen{0};
  };

  explicit FaultyStorage(Controls& controls) : controls_(&controls) {}

  Status read_at(std::uint64_t offset, std::span<std::byte> out) override {
    return inner_.read_at(offset, out);
  }
  Status write_at(std::uint64_t offset,
                  std::span<const std::byte> data) override {
    const int seen = controls_->writes_seen.fetch_add(1);
    const int fail_after = controls_->fail_writes_after.load();
    if (fail_after >= 0 && seen >= fail_after) {
      return Status(ErrorCode::kIoError, "injected write failure");
    }
    return inner_.write_at(offset, data);
  }
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  Status truncate(std::uint64_t new_size) override {
    return inner_.truncate(new_size);
  }
  Status flush() override { return Status::ok(); }

 private:
  Controls* controls_;
  pfs::MemStorage inner_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// RAII: redirect the flight dump to a temp path, restore the default.
class FlightPathGuard {
 public:
  explicit FlightPathGuard(const std::string& path) {
    obs::set_flight_path(path);
  }
  ~FlightPathGuard() { obs::set_flight_path("drx-flight.json"); }
  FlightPathGuard(const FlightPathGuard&) = delete;
  FlightPathGuard& operator=(const FlightPathGuard&) = delete;
};

TEST(FlightRecorder, EnabledByDefaultAndRecordsWithoutTracing) {
  ASSERT_TRUE(obs::trace_path().empty())
      << "DRX_TRACE must not be set in the test environment";
  ASSERT_FALSE(obs::trace_enabled());
  EXPECT_TRUE(obs::flight_enabled());
  const std::uint64_t before = obs::flight_record_count();
  {
    obs::OpScope op("op.flight_smoke");
    obs::ScopedSpan span("test.flight_smoke", "test", 64);
  }
  EXPECT_GT(obs::flight_record_count(), before)
      << "spans must reach the flight ring with tracing disabled";
}

TEST(FlightRecorder, OnDemandDumpIsParseable) {
  const std::string path =
      ::testing::TempDir() + "drx_flight_on_demand.json";
  {
    obs::OpScope op("op.on_demand");
    obs::ScopedSpan span("test.on_demand", "test");
  }
  ASSERT_TRUE(obs::dump_flight(path, "on-demand").is_ok());
  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(obs::json_validate(text)) << text.substr(0, 400);
  auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("format")->as_string(), "drx-flight");
  EXPECT_EQ(doc.value().find("reason")->as_string(), "on-demand");
  std::remove(path.c_str());
}

// Rings of exited threads are reused: the registry caps concurrent
// threads, not lifetime threads, so a thread started after 128 others have
// come and gone still reaches both the flight dump and the trace.
TEST(FlightRecorder, ThreadsAfterTheFirst128StillRecord) {
  for (int i = 0; i < 130; ++i) {
    std::thread([] { obs::ScopedSpan span("test.short_lived", "test"); })
        .join();
  }
  const std::string trace =
      ::testing::TempDir() + "drx_flight_reuse_trace.json";
  const std::string dump = ::testing::TempDir() + "drx_flight_reuse.json";
  obs::clear_trace();
  obs::set_trace_path(trace);
  std::thread([] { obs::ScopedSpan span("test.after_reuse", "test"); })
      .join();
  ASSERT_TRUE(obs::flush_trace().is_ok());
  obs::set_trace_path("");
  obs::clear_trace();
  ASSERT_TRUE(obs::dump_flight(dump, "on-demand").is_ok());
  EXPECT_NE(read_file(dump).find("\"test.after_reuse\""), std::string::npos)
      << "the 131st thread is missing from the flight dump";
  EXPECT_NE(read_file(trace).find("\"test.after_reuse\""), std::string::npos)
      << "the 131st thread is missing from the trace";
  std::remove(dump.c_str());
  std::remove(trace.c_str());
}

TEST(FlightRecorder, DeferredWriteErrorDumpsFailingOpCausalChain) {
  ASSERT_FALSE(obs::trace_enabled());
  const std::string path =
      ::testing::TempDir() + "drx_flight_deferred_error.json";
  std::remove(path.c_str());
  FlightPathGuard guard(path);

  FaultyStorage::Controls controls;
  DrxFile::Options options;
  options.dtype = ElementType::kDouble;
  auto fr = DrxFile::create(std::make_unique<pfs::MemStorage>(),
                            std::make_unique<FaultyStorage>(controls),
                            Shape{4, 4}, Shape{2, 2}, options);
  ASSERT_TRUE(fr.is_ok());
  DrxFile file = std::move(fr).value();
  CachedDrxFile cached(file, /*capacity_chunks=*/1,
                       ChunkCache::AsyncOptions{/*io_threads=*/2,
                                                /*prefetch_depth=*/4});

  // Dirty chunk 0 under a real op, then doom its deferred write-back:
  // two back-to-back misses on another chunk defeat the scan-resistant
  // bypass (same-address re-miss is always admitted), so the second get
  // faults the chunk in, evicting chunk 0 onto a pool worker whose
  // write fails and records the sticky error — the flight-dump trigger.
  const std::uint64_t idx0[] = {0, 0};
  const std::uint64_t idx1[] = {2, 2};
  ASSERT_TRUE(cached.set<double>(idx0, 42.0).is_ok());
  controls.fail_writes_after = 0;
  ASSERT_TRUE(cached.get<double>(idx1).is_ok());
  ASSERT_TRUE(cached.get<double>(idx1).is_ok());
  const Status flushed = cached.flush();
  EXPECT_FALSE(flushed.is_ok());
  EXPECT_EQ(flushed.code(), ErrorCode::kIoError);

  // The dump is written by the failing worker right after it records the
  // error; flush()'s barrier does not wait for the file write, so poll.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text = read_file(path);
    if (!text.empty() && obs::json_validate(text)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ASSERT_FALSE(text.empty()) << "no flight dump at " << path;
  ASSERT_TRUE(obs::json_validate(text)) << text.substr(0, 400);
  auto doc = obs::json_parse(text);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("format")->as_string(), "drx-flight");
  EXPECT_EQ(doc.value().find("reason")->as_string(), "deferred-io-error");

  // The causal chain of the failing op must be on record: the submit-side
  // flow_out, the worker-side flow_in (the dumping worker's own job span
  // is still open at dump time, so the dequeue record is its footprint),
  // and an op summary for the cached operation that submitted the write.
  const obs::JsonValue* threads = doc.value().find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_TRUE(threads->is_array());
  bool flow_out_with_op = false;
  bool flow_in_with_op = false;
  bool op_summary = false;
  for (const auto& t : threads->array) {
    const obs::JsonValue* records = t.find("records");
    if (records == nullptr || !records->is_array()) continue;
    for (const auto& r : records->array) {
      const std::uint64_t op = r.uint_at("op");
      const auto kind = r.find("kind")->as_string();
      const auto name = r.find("name")->as_string();
      if (kind == "flow_out" && op != 0) flow_out_with_op = true;
      if (kind == "flow_in" && op != 0) flow_in_with_op = true;
      if (kind == "op" && name.find("op.cached_") == 0) op_summary = true;
    }
  }
  EXPECT_TRUE(flow_out_with_op) << "no submit-side flow record with an op id";
  EXPECT_TRUE(flow_in_with_op)
      << "no worker-side dequeue record carrying the submitting op";
  EXPECT_TRUE(op_summary) << "no op-summary record for the cached op";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace drx::core
