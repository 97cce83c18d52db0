// End-to-end doctor acceptance test: a 4-rank run with a hot region under
// a BLOCK zone split must be flagged as rank-imbalanced (with the
// BLOCK_CYCLIC suggestion), the same workload under BLOCK_CYCLIC must
// score materially lower, and the doctor JSON report must validate. The
// detectors read the per-rank zone and per-server pfs counters of the
// metrics registry, so these runs also pin where those counters land.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/drxmp.hpp"
#include "core/zone.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "pfs/pfs.hpp"
#include "simpi/runtime.hpp"

namespace drx::obs {
namespace {

using analysis::Finding;
using analysis::Severity;

constexpr int kRanks = 4;

const Finding* find_by_id(const std::vector<Finding>& fs,
                          std::string_view id) {
  for (const Finding& f : fs) {
    if (f.id == id) return &f;
  }
  return nullptr;
}

/// Runs a 4-rank job against a fresh array (elements {64,16}, chunks
/// {8,8} -> an 8x2 chunk grid) where only the "hot" half of the grid
/// (chunk rows 0..3) is written: each rank writes the hot chunks that
/// `dist` assigns to it. Returns the metrics the run added.
MetricsSnapshot run_hot_half_workload(const std::string& name,
                                      const core::Distribution& dist) {
  const MetricsSnapshot before = process_registry().snapshot();
  pfs::PfsConfig cfg;
  pfs::Pfs fs(cfg);
  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kInt32;
    auto fr = core::DrxMpFile::create(comm, fs, name, core::Shape{64, 16},
                                      core::Shape{8, 8}, opts);
    ASSERT_TRUE(fr.is_ok());
    core::DrxMpFile file = std::move(fr).value();

    std::vector<core::Index> mine;
    for (const core::Index& chunk : dist.chunks_of(comm.rank())) {
      if (chunk[0] < 4) mine.push_back(chunk);  // hot half only
    }
    std::vector<std::byte> staging(
        mine.size() * static_cast<std::size_t>(file.chunk_bytes()));
    ASSERT_TRUE(
        file.write_chunks(mine, staging, /*collective=*/true).is_ok());
    ASSERT_TRUE(file.close().is_ok());
  });
  return snapshot_delta(process_registry().snapshot(), before);
}

analysis::ImbalanceStat rank_imbalance(const MetricsSnapshot& snap) {
  return analysis::label_imbalance(snap, "core.zone.rank", "bytes", "calls");
}

TEST(DoctorFixture, BlockSplitOfHotRegionIsFlaggedCyclicIsNot) {
  const core::Shape grid{8, 2};
  const core::Distribution block = core::Distribution::block(grid, kRanks);
  const core::Distribution cyclic =
      core::Distribution::block_cyclic(grid, kRanks, core::Shape{1, 1});

  const MetricsSnapshot block_snap =
      run_hot_half_workload("skew_block", block);
  const MetricsSnapshot cyclic_snap =
      run_hot_half_workload("skew_cyclic", cyclic);

  // BLOCK over a 2x2 process grid puts all 8 hot chunks on the two
  // coord0==0 ranks: 2 of 4 ranks carry everything -> ratio 2.0.
  const analysis::ImbalanceStat bs = rank_imbalance(block_snap);
  EXPECT_EQ(bs.n, 4u);
  EXPECT_NEAR(bs.ratio, 2.0, 1e-9);

  // BLOCK_CYCLIC(1,1) deals the hot rows across all 4 ranks evenly.
  const analysis::ImbalanceStat cs = rank_imbalance(cyclic_snap);
  EXPECT_EQ(cs.n, 4u);
  EXPECT_NEAR(cs.ratio, 1.0, 1e-9);

  // The detector flags BLOCK (warn + remediation hint)...
  std::vector<Finding> block_fs;
  analysis::analyze_metrics(block_snap, block_fs);
  const Finding* flagged = find_by_id(block_fs, "rank-imbalance");
  ASSERT_NE(flagged, nullptr);
  EXPECT_EQ(flagged->severity, Severity::kWarn);
  EXPECT_NEAR(flagged->score, 2.0, 1e-9);
  EXPECT_NE(flagged->message.find("BLOCK_CYCLIC"), std::string::npos);

  // ...and reports BLOCK_CYCLIC as balanced, materially lower.
  std::vector<Finding> cyclic_fs;
  analysis::analyze_metrics(cyclic_snap, cyclic_fs);
  const Finding* balanced = find_by_id(cyclic_fs, "rank-imbalance");
  ASSERT_NE(balanced, nullptr);
  EXPECT_EQ(balanced->severity, Severity::kInfo);
  EXPECT_GT(flagged->score, balanced->score + 0.5);

  // The doctor report over the skewed run is strict JSON and carries the
  // finding with its score.
  analysis::Report report;
  report.findings = block_fs;
  JsonWriter w;
  analysis::report_to_json(report, w);
  ASSERT_TRUE(json_validate(w.str())) << w.str();
  auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("format")->as_string(), "drx-doctor");
  EXPECT_EQ(doc.value().uint_at("errors"), 0u);
  EXPECT_GE(doc.value().uint_at("warnings"), 1u);
  const JsonValue* findings = doc.value().find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_TRUE(findings->is_array());
  bool saw_imbalance = false;
  for (const JsonValue& f : findings->array) {
    if (f.find("id") != nullptr &&
        f.find("id")->as_string() == "rank-imbalance") {
      saw_imbalance = true;
      EXPECT_NEAR(f.number_at("score"), 2.0, 1e-9);
      EXPECT_EQ(f.find("severity")->as_string(), "warn");
    }
  }
  EXPECT_TRUE(saw_imbalance);
}

TEST(DoctorFixture, ProfileRoundTripPreservesDetectorVerdict) {
  // The snapshot written by DRX_METRICS and re-read by
  // drx doctor --metrics must produce the same imbalance verdict as the
  // in-memory one.
  const core::Shape grid{8, 2};
  const core::Distribution block = core::Distribution::block(grid, kRanks);
  const MetricsSnapshot snap = run_hot_half_workload("skew_rt", block);

  auto reread = MetricsSnapshot::deserialize(snap.serialize());
  ASSERT_TRUE(reread.is_ok()) << reread.status().to_string();
  const analysis::ImbalanceStat a = rank_imbalance(snap);
  const analysis::ImbalanceStat b = rank_imbalance(reread.value());
  EXPECT_EQ(a.n, 4u);
  EXPECT_EQ(a.n, b.n);
  EXPECT_DOUBLE_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.argmax, b.argmax);
}

TEST(DoctorFixture, MultiRankZoneWritesLandInPerRankCounters) {
  constexpr std::uint64_t kChunkBytes = 4 * 4 * sizeof(std::int32_t);
  pfs::PfsConfig cfg;
  cfg.num_servers = 2;
  pfs::Pfs fs(cfg);
  const MetricsSnapshot before = process_registry().snapshot();

  simpi::run(kRanks, [&](simpi::Comm& comm) {
    core::DrxFile::Options opts;
    opts.dtype = core::ElementType::kInt32;
    auto fr = core::DrxMpFile::create(comm, fs, "prof", core::Shape{16, 16},
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
    ASSERT_TRUE(file.close().is_ok());
  });

  const MetricsSnapshot snap =
      snapshot_delta(process_registry().snapshot(), before);
  // Every chunk of the 4x4 grid is written exactly once, attributed to
  // its zone owner: one call and a 2x2-chunk zone per rank, and nothing
  // for any other rank.
  std::uint64_t bytes = 0;
  for (int r = 0; r < kRanks; ++r) {
    const std::string prefix = "core.zone.rank." + std::to_string(r);
    EXPECT_EQ(snap.counter(prefix + ".calls"), 1u) << "rank " << r;
    EXPECT_EQ(snap.counter(prefix + ".bytes"), 4 * kChunkBytes)
        << "rank " << r;
    bytes += snap.counter(prefix + ".bytes");
  }
  EXPECT_EQ(bytes, 16 * kChunkBytes);  // 4x4 chunk grid
  const analysis::ImbalanceStat s = rank_imbalance(snap);
  EXPECT_EQ(s.n, static_cast<std::size_t>(kRanks));

  // Each server's counter holds exactly the bytes its datafiles moved:
  // a request path that skipped the counter would break the equality.
  const std::vector<pfs::IoStats> servers = fs.server_stats();
  ASSERT_EQ(servers.size(), 2u);
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    EXPECT_EQ(snap.counter("pfs.server." + std::to_string(i) + ".bytes"),
              servers[i].bytes_read + servers[i].bytes_written)
        << "server " << i;
    written += servers[i].bytes_written;
  }
  EXPECT_GE(written, bytes);  // the zone data reached the servers
}

}  // namespace
}  // namespace drx::obs
