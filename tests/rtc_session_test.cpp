// Integration tests over the full RTC pipeline: determinism, conservation,
// and the paper's headline ordering (adaptive beats the baseline on latency
// across drops without losing quality).
#include "rtc/session.h"

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "net/capacity_trace.h"

namespace rave::rtc {
namespace {

SessionConfig BaseConfig(Scheme scheme) {
  SessionConfig config;
  config.scheme = scheme;
  config.duration = TimeDelta::Seconds(20);
  config.seed = 42;
  config.initial_rate = DataRate::KilobitsPerSec(2100);
  config.link.trace = net::CapacityTrace::StepDrop(
      DataRate::KilobitsPerSec(2500), DataRate::KilobitsPerSec(1000),
      Timestamp::Seconds(8));
  return config;
}

TEST(SessionTest, RunsAllSchemes) {
  for (Scheme scheme : kAllSchemes) {
    const SessionResult result = RunSession(BaseConfig(scheme));
    EXPECT_EQ(result.scheme_name, ToString(scheme));
    // 20 s at 30 fps, inclusive of both boundary ticks.
    EXPECT_EQ(result.summary.frames_captured, 601);
    EXPECT_GT(result.summary.frames_delivered, 350) << ToString(scheme);
    EXPECT_GT(result.summary.latency_mean_ms, 0.0);
    EXPECT_GT(result.summary.ssim_mean, 0.5);
    EXPECT_FALSE(result.timeseries.empty());
  }
}

TEST(SessionTest, DeterministicAcrossRuns) {
  const SessionResult a = RunSession(BaseConfig(Scheme::kAdaptive));
  const SessionResult b = RunSession(BaseConfig(Scheme::kAdaptive));
  EXPECT_EQ(a.summary.latency_mean_ms, b.summary.latency_mean_ms);
  EXPECT_EQ(a.summary.ssim_mean, b.summary.ssim_mean);
  EXPECT_EQ(a.summary.frames_delivered, b.summary.frames_delivered);
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (size_t i = 0; i < a.frames.size(); i += 37) {
    EXPECT_EQ(a.frames[i].size, b.frames[i].size);
    EXPECT_EQ(a.frames[i].qp, b.frames[i].qp);
  }
}

TEST(SessionTest, DifferentSeedsDiffer) {
  SessionConfig config = BaseConfig(Scheme::kAdaptive);
  const SessionResult a = RunSession(config);
  config.seed = 43;
  const SessionResult b = RunSession(config);
  EXPECT_NE(a.summary.latency_mean_ms, b.summary.latency_mean_ms);
}

TEST(SessionTest, AdaptiveBeatsBaselineLatencyOnDrop) {
  const SessionResult baseline = RunSession(BaseConfig(Scheme::kX264Abr));
  const SessionResult adaptive = RunSession(BaseConfig(Scheme::kAdaptive));
  EXPECT_LT(adaptive.summary.latency_mean_ms,
            baseline.summary.latency_mean_ms * 0.7);
  EXPECT_LT(adaptive.summary.latency_p95_ms,
            baseline.summary.latency_p95_ms * 0.7);
  // Quality must not be sacrificed for it.
  EXPECT_GT(adaptive.summary.encoded_ssim_mean,
            baseline.summary.encoded_ssim_mean * 0.99);
}

TEST(SessionTest, CbrSitsBetweenAbrAndAdaptive) {
  const double abr =
      RunSession(BaseConfig(Scheme::kX264Abr)).summary.latency_p95_ms;
  const double cbr =
      RunSession(BaseConfig(Scheme::kX264Cbr)).summary.latency_p95_ms;
  const double adaptive =
      RunSession(BaseConfig(Scheme::kAdaptive)).summary.latency_p95_ms;
  EXPECT_LT(cbr, abr);
  EXPECT_LT(adaptive, cbr);
}

TEST(SessionTest, AdaptiveAvoidsNetworkLossOnStepDrop) {
  const SessionResult adaptive = RunSession(BaseConfig(Scheme::kAdaptive));
  EXPECT_EQ(adaptive.summary.frames_lost_network, 0);
  EXPECT_EQ(adaptive.link_stats.packets_dropped, 0);
}

TEST(SessionTest, LinkConservation) {
  const SessionResult result = RunSession(BaseConfig(Scheme::kX264Abr));
  // Every frame has a terminal or in-flight fate; no frame is double
  // counted.
  const auto& s = result.summary;
  const int64_t accounted = s.frames_delivered + s.frames_skipped +
                            s.frames_dropped_sender + s.frames_lost_network;
  EXPECT_LE(accounted, s.frames_captured);
  // In-flight tail is small (frames captured in the last moments).
  EXPECT_GE(accounted, s.frames_captured - 40);
}

TEST(SessionTest, SteadyLinkKeepsLatencyLow) {
  SessionConfig config = BaseConfig(Scheme::kAdaptive);
  config.link.trace =
      net::CapacityTrace::Constant(DataRate::KilobitsPerSec(2500));
  const SessionResult result = RunSession(config);
  EXPECT_LT(result.summary.latency_p95_ms, 150.0);
  EXPECT_EQ(result.summary.frames_lost_network, 0);
}

TEST(SessionTest, BitrateBoundedByCapacity) {
  for (Scheme scheme : {Scheme::kX264Abr, Scheme::kAdaptive}) {
    const SessionResult result = RunSession(BaseConfig(scheme));
    // Average capacity: 8 s at 2500 + 12 s at 1000 = 1600 kbps.
    EXPECT_LT(result.summary.encoded_bitrate_kbps, 1800.0) << ToString(scheme);
    EXPECT_GT(result.summary.encoded_bitrate_kbps, 400.0) << ToString(scheme);
  }
}

TEST(SessionTest, OracleAtLeastAsGoodAsGccAdaptive) {
  const SessionResult gcc = RunSession(BaseConfig(Scheme::kAdaptive));
  const SessionResult oracle =
      RunSession(BaseConfig(Scheme::kAdaptiveOracle));
  EXPECT_LT(oracle.summary.latency_p95_ms,
            gcc.summary.latency_p95_ms * 1.25);
}

TEST(SessionTest, TimeseriesCoversSession) {
  const SessionResult result = RunSession(BaseConfig(Scheme::kAdaptive));
  // 20 s at 100 ms sampling.
  EXPECT_NEAR(static_cast<double>(result.timeseries.size()), 200.0, 3.0);
  EXPECT_EQ(result.timeseries.front().capacity_kbps, 2500.0);
  EXPECT_EQ(result.timeseries.back().capacity_kbps, 1000.0);
}

obs::RegistrySnapshot WithoutWallMetrics(const obs::RegistrySnapshot& s) {
  obs::RegistrySnapshot out;
  for (const obs::MetricSnapshot& m : s.metrics) {
    if (m.name.rfind("wall.", 0) != 0) out.metrics.push_back(m);
  }
  return out;
}

// A summary-only run drops the per-frame records and the timeseries and
// nothing else: everything derived from them is what the full run reports.
// Returns the full run.
SessionResult ExpectSummaryOnlyMatchesFull(SessionConfig config) {
  config.keep_frame_detail = true;
  const SessionResult full = RunSession(config);
  config.keep_frame_detail = false;
  const SessionResult lean = RunSession(config);

  EXPECT_FALSE(full.frames.empty());
  EXPECT_FALSE(full.timeseries.empty());
  EXPECT_TRUE(lean.frames.empty());
  EXPECT_TRUE(lean.timeseries.empty());
  EXPECT_EQ(lean.scheme_name, full.scheme_name);
  EXPECT_TRUE(lean.summary == full.summary);
  EXPECT_TRUE(lean.link_stats == full.link_stats);
  EXPECT_TRUE(lean.breaker_stats == full.breaker_stats);
  EXPECT_EQ(lean.events_executed, full.events_executed);
  EXPECT_TRUE(WithoutWallMetrics(lean.metrics) ==
              WithoutWallMetrics(full.metrics));
  return full;
}

TEST(SessionTest, SummaryOnlyResultMatchesFullRun) {
  ExpectSummaryOnlyMatchesFull(BaseConfig(Scheme::kAdaptive));
}

TEST(SessionTest, SummaryOnlyResultMatchesFullRunUnderFaults) {
  // fig10's duplication + reordering scenario on its steady link.
  SessionConfig config = BaseConfig(Scheme::kX264Abr);
  config.link.trace =
      net::CapacityTrace::Constant(DataRate::KilobitsPerSec(2500));
  config.faults =
      fault::FaultPlan()
          .DuplicationBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5), 0.2)
          .ReorderBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5), 0.2,
                        TimeDelta::Millis(40));
  const SessionResult result = ExpectSummaryOnlyMatchesFull(config);
  // The faults fired.
  EXPECT_GT(result.link_stats.packets_duplicated, 0);
  EXPECT_GT(result.link_stats.packets_reordered, 0);
}

TEST(SessionTest, DegradationReducesResolutionUnderStarvation) {
  SessionConfig config = BaseConfig(Scheme::kAdaptive);
  config.enable_degradation = true;
  config.duration = TimeDelta::Seconds(25);
  // Brutal drop to 150 kbps: 720p is unsustainable; the controller must
  // step the resolution down, which shows up as smaller frames.
  config.link.trace = net::CapacityTrace::StepDrop(
      DataRate::KilobitsPerSec(2500), DataRate::KilobitsPerSec(150),
      Timestamp::Seconds(5));
  const SessionResult result = RunSession(config);
  // Mean QP without degradation would pin at ~51; with it, the QP relaxes.
  EXPECT_LT(result.summary.qp_mean, 49.0);
}

TEST(SessionTest, RtxRecoversFromFeedbackPathLoss) {
  SessionConfig config = BaseConfig(Scheme::kAdaptive);
  config.feedback_loss = 0.05;  // lossy reverse path
  const SessionResult result = RunSession(config);
  EXPECT_GT(result.summary.frames_delivered, 500);
}

TEST(SessionTest, DisableRtxStillRuns) {
  SessionConfig config = BaseConfig(Scheme::kX264Abr);
  config.enable_rtx = false;
  const SessionResult result = RunSession(config);
  EXPECT_GT(result.summary.frames_delivered, 300);
}

}  // namespace
}  // namespace rave::rtc
