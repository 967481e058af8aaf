// Chaos matrix over the whole system: every scheme x every hard-fault
// scenario (link outage, feedback blackhole, RTT spike, duplication +
// reordering bursts). Invariants: the session never crashes or deadlocks,
// frame accounting stays conserved, the encoder is never left stuck after
// the fault clears, the sender recovers to >= 90% of its pre-fault encoder
// target within a bounded time, and fault-injected runs are deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/wireless_profiles.h"
#include "net/capacity_trace.h"
#include "rtc/session.h"

namespace rave::rtc {
namespace {

struct FaultScenario {
  std::string name;
  fault::FaultPlan plan;
  /// Scenarios that silence feedback long enough must trip the breaker.
  bool starves_feedback = false;
  /// Long enough to cross the encoder-pause deadline (3 s).
  bool reaches_pause = false;
  /// Worst acceptable time from fault-clear to 90% recovery, across all
  /// schemes. Estimator rebuild dominates (GCC-style additive increase with
  /// no probing); bounds carry ~40% margin over the worst measured scheme.
  TimeDelta recovery_bound = TimeDelta::Seconds(12);
};

std::vector<FaultScenario> Scenarios() {
  std::vector<FaultScenario> scenarios;
  {
    FaultScenario s{.name = "outage", .plan = {}, .starves_feedback = true};
    s.plan.Outage(Timestamp::Seconds(10), TimeDelta::Seconds(2));
    scenarios.push_back(std::move(s));
  }
  {
    FaultScenario s{.name = "outage_long",
                    .plan = {},
                    .starves_feedback = true,
                    .reaches_pause = true};
    s.plan.Outage(Timestamp::Seconds(10), TimeDelta::Seconds(4));
    scenarios.push_back(std::move(s));
  }
  {
    // 3 s of lost feedback collapses every estimator to the starved send
    // rate; the slow rebuild is additive once inside the capacity band.
    FaultScenario s{.name = "blackhole",
                    .plan = {},
                    .starves_feedback = true,
                    .recovery_bound = TimeDelta::Seconds(34)};
    s.plan.FeedbackBlackhole(Timestamp::Seconds(10), TimeDelta::Seconds(3));
    scenarios.push_back(std::move(s));
  }
  {
    // A sustained +150 ms RTT spike reads as 2 s of over-use: the
    // delay-sensitive schemes multiplicatively back off the whole window.
    FaultScenario s{.name = "spike",
                    .plan = {},
                    .recovery_bound = TimeDelta::Seconds(46)};
    s.plan.DelaySpike(Timestamp::Seconds(10), TimeDelta::Seconds(2),
                      TimeDelta::Millis(150));
    scenarios.push_back(std::move(s));
  }
  {
    FaultScenario s{.name = "dup_reorder", .plan = {}};
    s.plan.DuplicationBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5), 0.2)
        .ReorderBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5), 0.2,
                      TimeDelta::Millis(40));
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

class FaultChaosTest
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {
 protected:
  static FaultScenario Scenario() {
    return Scenarios()[static_cast<size_t>(std::get<1>(GetParam()))];
  }

  static constexpr double kLinkKbps = 2500.0;

  static SessionResult Run(uint64_t seed = 42,
                           TimeDelta duration = TimeDelta::Seconds(30)) {
    SessionConfig config;
    config.scheme = std::get<0>(GetParam());
    config.duration = duration;
    config.seed = seed;
    config.initial_rate = DataRate::KilobitsPerSec(2100);
    config.link.trace =
        net::CapacityTrace::Constant(DataRate::KilobitsPerSec(2500));
    config.faults = Scenario().plan;
    return RunSession(config);
  }

  static Timestamp FaultClear() { return Scenario().plan.LastClearTime(); }
};

TEST_P(FaultChaosTest, SurvivesWithFrameAccountingIntact) {
  const SessionResult result = Run();
  const auto& s = result.summary;
  const int64_t accounted = s.frames_delivered + s.frames_skipped +
                            s.frames_dropped_sender + s.frames_lost_network;
  EXPECT_LE(accounted, s.frames_captured);
  // In-flight/timeout tail as in the fault-free property test.
  EXPECT_GE(accounted, s.frames_captured - 90);
  EXPECT_GT(s.frames_captured, 0);
  for (const auto& f : result.frames) {
    if (f.fate == metrics::FrameFate::kDelivered) {
      ASSERT_TRUE(f.complete_time.has_value());
      EXPECT_GE(*f.complete_time, f.capture_time);
    }
  }
}

TEST_P(FaultChaosTest, EncoderIsNotStuckAfterFaultClears) {
  const SessionResult result = Run();
  // Well after the fault cleared, the pipeline must be moving again: frames
  // are being encoded (not paused/skipped) AND delivered end-to-end.
  const Timestamp tail = Timestamp::Seconds(27);
  int64_t encoded_tail = 0;
  int64_t delivered_tail = 0;
  for (const auto& f : result.frames) {
    if (f.capture_time < tail) continue;
    if (f.fate != metrics::FrameFate::kSkippedEncoder &&
        f.fate != metrics::FrameFate::kDroppedSender) {
      ++encoded_tail;
    }
    if (f.fate == metrics::FrameFate::kDelivered) ++delivered_tail;
  }
  EXPECT_GT(encoded_tail, 30) << "encoder stuck after " << Scenario().name;
  EXPECT_GT(delivered_tail, 30) << "delivery stuck after " << Scenario().name;
}

TEST_P(FaultChaosTest, RecoversToPreFaultTargetWithinBoundedTime) {
  // Long horizon: post-starvation estimator rebuild is additive and can
  // legitimately take tens of seconds (no bandwidth probing in GCC-style
  // estimation) — but it must complete, and within the scenario's bound.
  const SessionResult result = Run(42, TimeDelta::Seconds(60));

  // Pre-fault reference: mean encoder target over the 2 s before the fault,
  // clamped to the link capacity — an estimator that was overshooting the
  // link pre-fault (salsify does) owes us capacity back, not the overshoot.
  double pre_sum = 0.0;
  int pre_n = 0;
  for (const auto& p : result.timeseries) {
    if (p.at >= Timestamp::Seconds(8) && p.at < Timestamp::Seconds(10)) {
      pre_sum += p.encoder_target_kbps;
      ++pre_n;
    }
  }
  ASSERT_GT(pre_n, 0);
  const double pre_target = std::min(pre_sum / pre_n, kLinkKbps);
  ASSERT_GT(pre_target, 0.0);

  // Recovery: first timeseries point after the fault clears where the
  // encoder target is back to >= 90% of the pre-fault level.
  const Timestamp clear = FaultClear();
  Timestamp recovered_at = Timestamp::PlusInfinity();
  for (const auto& p : result.timeseries) {
    if (p.at < clear) continue;
    if (p.encoder_target_kbps >= 0.9 * pre_target) {
      recovered_at = p.at;
      break;
    }
  }
  ASSERT_TRUE(recovered_at.IsFinite())
      << Scenario().name << ": target never returned to 90% of "
      << pre_target << " kbps";
  EXPECT_LE(recovered_at - clear, Scenario().recovery_bound)
      << Scenario().name << ": recovery took too long";
}

TEST_P(FaultChaosTest, FaultInjectedRunsAreDeterministic) {
  const SessionResult a = Run(7);
  const SessionResult b = Run(7);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.summary.latency_mean_ms, b.summary.latency_mean_ms);
  EXPECT_EQ(a.summary.encoded_ssim_mean, b.summary.encoded_ssim_mean);
  EXPECT_EQ(a.link_stats.packets_delivered, b.link_stats.packets_delivered);
  EXPECT_EQ(a.link_stats.packets_duplicated, b.link_stats.packets_duplicated);
  EXPECT_EQ(a.link_stats.packets_reordered, b.link_stats.packets_reordered);
  EXPECT_EQ(a.breaker_stats.opens, b.breaker_stats.opens);
  EXPECT_EQ(a.breaker_stats.recoveries, b.breaker_stats.recoveries);
}

TEST_P(FaultChaosTest, BreakerEngagesExactlyWhenFeedbackStarves) {
  const SessionResult result = Run();
  const FaultScenario scenario = Scenario();
  if (scenario.starves_feedback) {
    EXPECT_GE(result.breaker_stats.opens, 1) << scenario.name;
    EXPECT_GE(result.breaker_stats.recoveries, 1)
        << scenario.name << ": breaker never closed again";
    EXPECT_GT(result.breaker_stats.time_open, TimeDelta::Zero());
  } else {
    // Benign-for-feedback faults must not trip the breaker.
    EXPECT_EQ(result.breaker_stats.opens, 0) << scenario.name;
  }
  if (scenario.reaches_pause) {
    EXPECT_GE(result.breaker_stats.pauses, 1) << scenario.name;
    EXPECT_GT(result.summary.frames_dropped_sender, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndFaults, FaultChaosTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Range(0, 5)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, int>>& info) {
      std::string name =
          ToString(std::get<0>(info.param)) + "_" +
          Scenarios()[static_cast<size_t>(std::get<1>(info.param))].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- wireless chaos matrix: named wireless profiles, alone and combined
// with the classic hard faults (fade x handover x blackhole / outage).
// Invariants: no crash, conserved frame accounting, the breaker fires iff
// the scenario genuinely starves feedback (a clean handover gap must NOT
// trip it), and reruns are deterministic.

struct WirelessScenario {
  std::string name;
  std::string profile;
  /// Extra classic faults layered on top of the profile's own events.
  bool add_blackhole = false;  ///< feedback blackhole @10s+3s
  bool add_outage = false;     ///< link outage @15s+2s
  /// Breaker expectation: exactly one of these is meaningful.
  bool breaker_clean = false;     ///< opens must be 0
  bool starves_feedback = false;  ///< opens must be >= 1
};

std::vector<WirelessScenario> WirelessScenarios() {
  return {
      {.name = "wifi_fade", .profile = "wifi-fade", .breaker_clean = true},
      // Handover gaps (150-250 ms) sit below the breaker's ~400 ms
      // starvation threshold: a clean cell move must not open it.
      {.name = "lte_handover",
       .profile = "lte-handover",
       .breaker_clean = true},
      {.name = "fpv_radio", .profile = "fpv-radio", .breaker_clean = true},
      {.name = "lte_handover_blackhole",
       .profile = "lte-handover",
       .add_blackhole = true,
       .starves_feedback = true},
      {.name = "wifi_fade_outage",
       .profile = "wifi-fade",
       .add_outage = true,
       .starves_feedback = true},
      // Fading + three handovers + bursty loss: the breaker may engage at
      // the margin, but it must stay bounded (asserted below) and the
      // session must keep moving.
      {.name = "train_commute", .profile = "train-commute"},
  };
}

class WirelessChaosTest
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {
 protected:
  static WirelessScenario Scenario() {
    return WirelessScenarios()[static_cast<size_t>(std::get<1>(GetParam()))];
  }

  static SessionResult Run(uint64_t seed = 42) {
    const TimeDelta duration = TimeDelta::Seconds(30);
    const WirelessScenario scenario = Scenario();
    const fault::WirelessProfile profile =
        fault::MakeWirelessProfile(scenario.profile, duration);

    SessionConfig config;
    config.scheme = std::get<0>(GetParam());
    config.duration = duration;
    config.seed = seed;
    config.initial_rate = DataRate::KilobitsPerSec(2100);
    config.link.trace = profile.trace;
    config.link.loss = profile.loss;
    config.wireless_profile = profile.name;
    fault::FaultPlan plan(profile.faults.events());
    if (scenario.add_blackhole) {
      plan.FeedbackBlackhole(Timestamp::Seconds(10), TimeDelta::Seconds(3));
    }
    if (scenario.add_outage) {
      plan.Outage(Timestamp::Seconds(15), TimeDelta::Seconds(2));
    }
    config.faults = std::move(plan);
    return RunSession(config);
  }
};

TEST_P(WirelessChaosTest, SurvivesWithFrameAccountingIntact) {
  const SessionResult result = Run();
  const auto& s = result.summary;
  const int64_t accounted = s.frames_delivered + s.frames_skipped +
                            s.frames_dropped_sender + s.frames_lost_network;
  EXPECT_LE(accounted, s.frames_captured);
  EXPECT_GE(accounted, s.frames_captured - 90);
  EXPECT_GT(s.frames_captured, 0);
  EXPECT_GT(s.frames_delivered, 0);
  for (const auto& f : result.frames) {
    if (f.fate == metrics::FrameFate::kDelivered) {
      ASSERT_TRUE(f.complete_time.has_value());
      EXPECT_GE(*f.complete_time, f.capture_time);
    }
  }
}

TEST_P(WirelessChaosTest, SessionKeepsMovingThroughTheTail) {
  const SessionResult result = Run();
  // The last profile event (final handover at 85% of 30 s, or the last
  // renegotiation) is behind us by t=27s: the pipeline must still deliver.
  int64_t delivered_tail = 0;
  for (const auto& f : result.frames) {
    if (f.capture_time >= Timestamp::Seconds(27) &&
        f.fate == metrics::FrameFate::kDelivered) {
      ++delivered_tail;
    }
  }
  EXPECT_GT(delivered_tail, 30) << Scenario().name;
}

TEST_P(WirelessChaosTest, BreakerFiresIffStarved) {
  const SessionResult result = Run();
  const WirelessScenario scenario = Scenario();
  if (scenario.breaker_clean) {
    EXPECT_EQ(result.breaker_stats.opens, 0) << scenario.name;
  }
  if (scenario.starves_feedback) {
    EXPECT_GE(result.breaker_stats.opens, 1) << scenario.name;
    EXPECT_GE(result.breaker_stats.recoveries, 1)
        << scenario.name << ": breaker never closed again";
  }
  // Never flapping: a 30 s session has no business opening the breaker
  // more than a handful of times under any registered profile.
  EXPECT_LE(result.breaker_stats.opens, 4) << scenario.name;
}

TEST_P(WirelessChaosTest, WirelessRunsAreDeterministic) {
  const SessionResult a = Run(7);
  const SessionResult b = Run(7);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.summary.latency_mean_ms, b.summary.latency_mean_ms);
  EXPECT_EQ(a.summary.encoded_ssim_mean, b.summary.encoded_ssim_mean);
  EXPECT_EQ(a.link_stats.packets_delivered, b.link_stats.packets_delivered);
  EXPECT_EQ(a.link_stats.packets_lost_random, b.link_stats.packets_lost_random);
  EXPECT_EQ(a.link_stats.handovers, b.link_stats.handovers);
  EXPECT_EQ(a.link_stats.renegotiations, b.link_stats.renegotiations);
  EXPECT_EQ(a.breaker_stats.opens, b.breaker_stats.opens);
}

TEST_P(WirelessChaosTest, HandoverCountersMatchThePlan) {
  const SessionResult result = Run();
  const WirelessScenario scenario = Scenario();
  const fault::WirelessProfile profile =
      fault::MakeWirelessProfile(scenario.profile, TimeDelta::Seconds(30));
  int64_t handovers = 0;
  int64_t renegs = 0;
  for (const fault::FaultEvent& e : profile.faults.events()) {
    // The session's event loop runs events at exactly t = duration too.
    if (e.start > Timestamp::Seconds(30)) continue;
    if (e.kind == fault::FaultKind::kHandover) ++handovers;
    if (e.kind == fault::FaultKind::kRenegotiate) ++renegs;
  }
  EXPECT_EQ(result.link_stats.handovers, handovers) << scenario.name;
  EXPECT_EQ(result.link_stats.renegotiations, renegs) << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndProfiles, WirelessChaosTest,
    ::testing::Combine(::testing::ValuesIn(kAllSchemes),
                       ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, int>>& info) {
      std::string name =
          ToString(std::get<0>(info.param)) + "_" +
          WirelessScenarios()[static_cast<size_t>(std::get<1>(info.param))]
              .name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rave::rtc
