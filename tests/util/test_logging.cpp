#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace drx {
namespace {

/// Restores the level a test found so the aggregated binary stays
/// order-independent.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = log_level(); }
  void TearDown() override { set_log_level(saved_); }

 private:
  LogLevel saved_ = LogLevel::kOff;
};

TEST_F(LoggingTest, SetLogLevelOverridesImmediately) {
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  // Repeated reads keep returning the override (the original bug: the env
  // value was latched once and later overrides were ignored).
  EXPECT_EQ(log_level(), LogLevel::kOff);
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
}

TEST_F(LoggingTest, MacroEmitsAtOrBelowCurrentLevel) {
  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  DRX_LOG_ERROR << "error-visible";
  DRX_LOG_WARN << "warn-visible";
  DRX_LOG_INFO << "info-hidden";
  DRX_LOG_DEBUG << "debug-hidden";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("error-visible"), std::string::npos);
  EXPECT_NE(err.find("warn-visible"), std::string::npos);
  EXPECT_EQ(err.find("info-hidden"), std::string::npos);
  EXPECT_EQ(err.find("debug-hidden"), std::string::npos);
}

TEST_F(LoggingTest, OffSilencesEverything) {
  set_log_level(LogLevel::kOff);
  ::testing::internal::CaptureStderr();
  DRX_LOG_ERROR << "silent";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(LoggingTest, MessagesCarryLevelTag) {
  set_log_level(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  DRX_LOG_INFO << "tagged";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("tagged"), std::string::npos);
  EXPECT_NE(err.find("[drx I]"), std::string::npos);
}

// DRX_LOG_LEVEL takes a whole decimal; one above 4 means 4 (debug), as
// it always has. Anything else keeps logging off and says so once on
// stderr, instead of reading a prefix ("2x" as 2) or a word ("warn" as
// 0) in silence.
TEST(LogLevelEnv, TakesOnlyWholeDecimals) {
  for (const char* good : {"0", "1", "2", "3", "4"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(detail::parse_log_level(good), good[0] - '0');
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "") << good;
  }
  for (const char* high : {"5", "9", "99", "18446744073709551615"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(detail::parse_log_level(high), 4) << high;
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "") << high;
  }
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(detail::parse_log_level(nullptr), 0);
  EXPECT_EQ(detail::parse_log_level(""), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  for (const char* bad :
       {"warn", "2x", "-1", " 2", "1.5", "18446744073709551616"}) {
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(detail::parse_log_level(bad), 0) << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("DRX_LOG_LEVEL='" + std::string(bad) + "'"),
              std::string::npos)
        << err;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
  }
}

}  // namespace
}  // namespace drx
