// Packet-train coalescing A/B bit-identity matrix.
//
// The coalesced fast path (pacer trains, inline link serialization chains,
// shared arrival drains stepping time via EventLoop::TryAdvanceTo) and the
// per-packet path (RAVE_NO_COALESCE: every continuation armed as its own
// event) must produce byte-identical SessionResults — summaries, per-frame
// records, timeseries, link/fault/wireless counters, breaker activity,
// logical event counts, and the full (non-wall) metrics snapshot — across
// every scenario family that exercises a train-splitting discontinuity:
// hard faults, wireless/mobility profiles, Gilbert loss, and cross traffic.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "fault/wireless_profiles.h"
#include "net/cross_traffic.h"
#include "rtc/session.h"
#include "util/time.h"
#include "util/units.h"

namespace rave {
namespace {

// Both runs happen in-process: the knob is read from the environment once
// per EventLoop construction, so toggling it between Session constructions
// selects the path deterministically.
rtc::SessionResult RunWith(const rtc::SessionConfig& config, bool coalesce) {
  if (coalesce) {
    unsetenv("RAVE_NO_COALESCE");
  } else {
    setenv("RAVE_NO_COALESCE", "1", 1);
  }
  rtc::SessionResult result = rtc::RunSession(config);
  unsetenv("RAVE_NO_COALESCE");
  return result;
}

void ExpectIdentical(const rtc::SessionResult& a, const rtc::SessionResult& b) {
  EXPECT_EQ(a.scheme_name, b.scheme_name);
  // Logical event count is part of the determinism contract: a granted time
  // step stands in for exactly one continuation event the per-packet path
  // would have dispatched.
  EXPECT_GT(a.events_executed, 0u);
  EXPECT_EQ(a.events_executed, b.events_executed);

  const metrics::SessionSummary& sa = a.summary;
  const metrics::SessionSummary& sb = b.summary;
  EXPECT_EQ(sa.frames_captured, sb.frames_captured);
  EXPECT_EQ(sa.frames_delivered, sb.frames_delivered);
  EXPECT_EQ(sa.frames_skipped, sb.frames_skipped);
  EXPECT_EQ(sa.frames_dropped_sender, sb.frames_dropped_sender);
  EXPECT_EQ(sa.frames_lost_network, sb.frames_lost_network);
  EXPECT_EQ(sa.latency_mean_ms, sb.latency_mean_ms);
  EXPECT_EQ(sa.latency_p50_ms, sb.latency_p50_ms);
  EXPECT_EQ(sa.latency_p95_ms, sb.latency_p95_ms);
  EXPECT_EQ(sa.latency_p99_ms, sb.latency_p99_ms);
  EXPECT_EQ(sa.latency_max_ms, sb.latency_max_ms);
  EXPECT_EQ(sa.render_latency_mean_ms, sb.render_latency_mean_ms);
  EXPECT_EQ(sa.ssim_mean, sb.ssim_mean);
  EXPECT_EQ(sa.psnr_mean_db, sb.psnr_mean_db);
  EXPECT_EQ(sa.encoded_bitrate_kbps, sb.encoded_bitrate_kbps);
  EXPECT_EQ(sa.total_reencodes, sb.total_reencodes);

  ASSERT_FALSE(a.frames.empty());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_EQ(a.frames[i].frame_id, b.frames[i].frame_id) << "frame " << i;
    EXPECT_EQ(a.frames[i].fate, b.frames[i].fate) << "frame " << i;
    EXPECT_EQ(a.frames[i].qp, b.frames[i].qp) << "frame " << i;
    EXPECT_EQ(a.frames[i].size, b.frames[i].size) << "frame " << i;
    EXPECT_EQ(a.frames[i].complete_time.has_value(),
              b.frames[i].complete_time.has_value())
        << "frame " << i;
    if (a.frames[i].complete_time && b.frames[i].complete_time) {
      EXPECT_EQ(*a.frames[i].complete_time, *b.frames[i].complete_time)
          << "frame " << i;
    }
  }

  ASSERT_FALSE(a.timeseries.empty());
  ASSERT_EQ(a.timeseries.size(), b.timeseries.size());
  for (size_t i = 0; i < a.timeseries.size(); ++i) {
    const metrics::TimeseriesPoint& pa = a.timeseries[i];
    const metrics::TimeseriesPoint& pb = b.timeseries[i];
    EXPECT_EQ(pa.at, pb.at) << "point " << i;
    EXPECT_EQ(pa.capacity_kbps, pb.capacity_kbps) << "point " << i;
    EXPECT_EQ(pa.bwe_target_kbps, pb.bwe_target_kbps) << "point " << i;
    EXPECT_EQ(pa.encoder_target_kbps, pb.encoder_target_kbps) << "point " << i;
    EXPECT_EQ(pa.acked_kbps, pb.acked_kbps) << "point " << i;
    EXPECT_EQ(pa.pacer_queue_ms, pb.pacer_queue_ms) << "point " << i;
    EXPECT_EQ(pa.link_queue_ms, pb.link_queue_ms) << "point " << i;
    EXPECT_EQ(pa.loss_rate, pb.loss_rate) << "point " << i;
    EXPECT_EQ(pa.last_qp, pb.last_qp) << "point " << i;
    EXPECT_EQ(pa.last_latency_ms, pb.last_latency_ms) << "point " << i;
  }

  // Link counters including the fault/wireless tier: a train that failed to
  // split at an outage, handover, Gilbert transition, or reorder window
  // would shift these before anything else.
  EXPECT_EQ(a.link_stats.packets_delivered, b.link_stats.packets_delivered);
  EXPECT_EQ(a.link_stats.packets_dropped, b.link_stats.packets_dropped);
  EXPECT_EQ(a.link_stats.packets_lost_random,
            b.link_stats.packets_lost_random);
  EXPECT_EQ(a.link_stats.packets_duplicated, b.link_stats.packets_duplicated);
  EXPECT_EQ(a.link_stats.packets_reordered, b.link_stats.packets_reordered);
  EXPECT_EQ(a.link_stats.outages, b.link_stats.outages);
  EXPECT_EQ(a.link_stats.handovers, b.link_stats.handovers);
  EXPECT_EQ(a.link_stats.renegotiations, b.link_stats.renegotiations);
  EXPECT_EQ(a.link_stats.bytes_delivered, b.link_stats.bytes_delivered);
  EXPECT_EQ(a.link_stats.bytes_dropped, b.link_stats.bytes_dropped);

  EXPECT_EQ(a.breaker_stats.opens, b.breaker_stats.opens);
  EXPECT_EQ(a.breaker_stats.pauses, b.breaker_stats.pauses);
  EXPECT_EQ(a.breaker_stats.recoveries, b.breaker_stats.recoveries);
  EXPECT_EQ(a.breaker_stats.time_open, b.breaker_stats.time_open);
  EXPECT_EQ(a.breaker_stats.time_paused, b.breaker_stats.time_paused);

  // Full metrics snapshot, minus wall.* (wall-clock-derived by contract).
  auto deterministic = [](const obs::RegistrySnapshot& snap) {
    std::vector<obs::MetricSnapshot> out;
    for (const obs::MetricSnapshot& m : snap.metrics) {
      if (m.name.rfind("wall.", 0) != 0) out.push_back(m);
    }
    return out;
  };
  const auto ma = deterministic(a.metrics);
  const auto mb = deterministic(b.metrics);
  ASSERT_EQ(ma.size(), mb.size());
  for (size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i], mb[i]) << "metric " << ma[i].name;
  }
}

void ExpectModesIdentical(rtc::SessionConfig config) {
  const rtc::SessionResult coalesced = RunWith(config, true);
  const rtc::SessionResult per_packet = RunWith(config, false);
  ExpectIdentical(coalesced, per_packet);
}

rtc::SessionConfig BaseConfig(TimeDelta duration, uint64_t seed) {
  return bench::DefaultConfig(rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
                              video::ContentClass::kTalkingHead, duration,
                              seed);
}

TEST(CoalesceIdentityTest, PlainDropTraceBothSchemes) {
  for (rtc::Scheme scheme : rtc::kHeadlineSchemes) {
    SCOPED_TRACE(rtc::ToString(scheme));
    rtc::SessionConfig config =
        bench::DefaultConfig(scheme, bench::DropTrace(0.6),
                             video::ContentClass::kTalkingHead,
                             TimeDelta::Seconds(8), 11);
    ExpectModesIdentical(config);
  }
}

TEST(CoalesceIdentityTest, FaultKindMatrix) {
  struct Case {
    const char* name;
    fault::FaultPlan plan;
  };
  const Timestamp at = Timestamp::Seconds(3);
  const TimeDelta dur = TimeDelta::Millis(800);
  std::vector<Case> cases;
  cases.push_back({"outage", fault::FaultPlan().Outage(at, dur)});
  cases.push_back(
      {"feedback-blackhole", fault::FaultPlan().FeedbackBlackhole(at, dur)});
  cases.push_back({"delay-spike", fault::FaultPlan().DelaySpike(
                                      at, dur, TimeDelta::Millis(120))});
  cases.push_back({"reorder", fault::FaultPlan().ReorderBurst(
                                  at, TimeDelta::Seconds(2), 0.25,
                                  TimeDelta::Millis(30))});
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 23);
    config.faults = std::move(c.plan);
    ExpectModesIdentical(config);
  }
}

TEST(CoalesceIdentityTest, WirelessProfiles) {
  for (const char* name : {"wifi-fade", "lte-handover", "train-commute"}) {
    SCOPED_TRACE(name);
    const fault::WirelessProfile profile =
        fault::MakeWirelessProfile(name, TimeDelta::Seconds(10));
    rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(10), 37);
    bench::ApplyWirelessProfile(config, profile);
    ExpectModesIdentical(config);
  }
}

TEST(CoalesceIdentityTest, GilbertLoss) {
  rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 41);
  config.link.loss.gilbert_enabled = true;
  config.link.loss.gilbert_bad_loss = 0.4;
  config.link.loss.gilbert_step = TimeDelta::Millis(5);
  ExpectModesIdentical(config);
}

TEST(CoalesceIdentityTest, CrossTraffic) {
  rtc::SessionConfig config = BaseConfig(TimeDelta::Seconds(8), 43);
  net::CrossTraffic::Config cross;
  cross.rate = DataRate::KilobitsPerSec(900);
  cross.mean_on = TimeDelta::Seconds(2);
  cross.mean_off = TimeDelta::Seconds(2);
  cross.start_on = true;
  config.cross_traffic = cross;
  ExpectModesIdentical(config);
}

}  // namespace
}  // namespace rave
