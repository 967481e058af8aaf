#include "metrics/session_metrics.h"

#include <gtest/gtest.h>

namespace rave::metrics {
namespace {

// Every suite result holds thousands of these; the small fields share one
// 8-byte slot.
static_assert(sizeof(FrameRecord) <= 96,
              "FrameRecord grew past 96 bytes: pack new small fields with "
              "fate/type/late_render/reencodes");

FrameRecord EncodedRecord(int64_t id, double ssim = 0.95, double qp = 28.0,
                          codec::FrameType type = codec::FrameType::kDelta) {
  FrameRecord r;
  r.frame_id = id;
  r.type = type;
  r.ssim = ssim;
  r.psnr = 40.0;
  r.qp = qp;
  r.size = DataSize::Bits(50'000);
  r.temporal_complexity = 0.5;
  return r;
}

// Convenience: captured at id*33ms, encoded, completed after `latency_ms`.
void AddDeliveredFrame(SessionMetrics& m, int64_t id, double latency_ms,
                       double ssim = 0.95,
                       codec::FrameType type = codec::FrameType::kDelta) {
  const Timestamp capture = Timestamp::Millis(id * 33);
  m.OnFrameCaptured(id, capture);
  m.OnFrameEncoded(EncodedRecord(id, ssim, 28.0, type));
  m.OnFrameCompleted(id, capture + TimeDelta::SecondsF(latency_ms / 1e3));
}

TEST(SessionMetricsTest, LatencyStatistics) {
  SessionMetrics m;
  for (int64_t id = 0; id < 100; ++id) {
    AddDeliveredFrame(m, id, 50.0 + static_cast<double>(id));
  }
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(10));
  EXPECT_EQ(s.frames_captured, 100);
  EXPECT_EQ(s.frames_delivered, 100);
  EXPECT_NEAR(s.latency_mean_ms, 99.5, 0.1);
  EXPECT_NEAR(s.latency_p50_ms, 99.5, 0.6);
  EXPECT_NEAR(s.latency_max_ms, 149.0, 0.1);
  EXPECT_NEAR(s.latency_p95_ms, 144.0, 1.0);
  EXPECT_EQ(s.undelivered_ratio, 0.0);
}

TEST(SessionMetricsTest, FateCounters) {
  SessionMetrics m;
  AddDeliveredFrame(m, 0, 50.0, 0.95, codec::FrameType::kKey);
  m.OnFrameCaptured(1, Timestamp::Millis(33));
  m.OnFrameEncoded([] {
    FrameRecord r = EncodedRecord(1);
    r.fate = FrameFate::kSkippedEncoder;
    return r;
  }());
  m.OnFrameCaptured(2, Timestamp::Millis(66));
  m.OnFrameDroppedAtSender(2);
  m.OnFrameCaptured(3, Timestamp::Millis(99));
  m.OnFrameEncoded(EncodedRecord(3));
  m.OnFrameLost(3);
  m.OnFrameCaptured(4, Timestamp::Millis(132));
  m.OnFrameEncoded(EncodedRecord(4));  // still in flight at session end

  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  EXPECT_EQ(s.frames_captured, 5);
  EXPECT_EQ(s.frames_delivered, 1);
  EXPECT_EQ(s.frames_skipped, 1);
  EXPECT_EQ(s.frames_dropped_sender, 1);
  EXPECT_EQ(s.frames_lost_network, 1);
  EXPECT_NEAR(s.undelivered_ratio, 0.8, 1e-9);
}

TEST(SessionMetricsTest, EncodedSsimIncludesUndeliveredEncodes) {
  SessionMetrics m;
  AddDeliveredFrame(m, 0, 50.0, 0.90, codec::FrameType::kKey);
  // Encoded but lost: still counts toward encoder-side quality.
  m.OnFrameCaptured(1, Timestamp::Millis(33));
  m.OnFrameEncoded(EncodedRecord(1, 0.80));
  m.OnFrameLost(1);
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  EXPECT_NEAR(s.encoded_ssim_mean, 0.85, 1e-9);
  // Delivered-only mean sees just the first frame.
  EXPECT_NEAR(s.ssim_mean, 0.90, 1e-9);
}

TEST(SessionMetricsTest, LossBreaksDecodabilityUntilKeyframe) {
  SessionMetrics m;
  AddDeliveredFrame(m, 0, 50.0, 0.95, codec::FrameType::kKey);
  // Frame 1 lost in the network.
  m.OnFrameCaptured(1, Timestamp::Millis(33));
  m.OnFrameEncoded(EncodedRecord(1));
  m.OnFrameLost(1);
  // Frames 2-3 delivered but undecodable (reference broken).
  AddDeliveredFrame(m, 2, 50.0, 0.99);
  AddDeliveredFrame(m, 3, 50.0, 0.99);
  // Frame 4: the PLI keyframe restores decodability.
  AddDeliveredFrame(m, 4, 50.0, 0.93, codec::FrameType::kKey);
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  // Delivered-and-decodable SSIM mean: frames 0 and 4 only.
  EXPECT_NEAR(s.ssim_mean, 0.94, 1e-9);
  // Displayed SSIM decayed during the outage, so it is below the encoded
  // quality of the displayed frames.
  EXPECT_LT(s.displayed_ssim_mean, 0.94);
}

TEST(SessionMetricsTest, DisplayedSsimDecaysDuringFreeze) {
  SessionMetrics m;
  AddDeliveredFrame(m, 0, 50.0, 0.95, codec::FrameType::kKey);
  for (int64_t id = 1; id <= 10; ++id) {
    m.OnFrameCaptured(id, Timestamp::Millis(id * 33));
    FrameRecord r = EncodedRecord(id);
    r.fate = FrameFate::kSkippedEncoder;
    r.temporal_complexity = 1.0;
    m.OnFrameEncoded(r);
  }
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  // First frame 0.95; then decay 0.02/frame for 10 frames.
  const double expected =
      (0.95 + 0.93 + 0.91 + 0.89 + 0.87 + 0.85 + 0.83 + 0.81 + 0.79 + 0.77 +
       0.75) /
      11.0;
  EXPECT_NEAR(s.displayed_ssim_mean, expected, 1e-9);
}

TEST(SessionMetricsTest, EncodedBitrateFromTotalBits) {
  SessionMetrics m;
  for (int64_t id = 0; id < 30; ++id) {
    AddDeliveredFrame(m, id, 40.0);  // 50'000 bits each
  }
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  EXPECT_NEAR(s.encoded_bitrate_kbps, 1500.0, 1.0);
}

TEST(SessionMetricsTest, TimeseriesStored) {
  SessionMetrics m;
  TimeseriesPoint p;
  p.at = Timestamp::Millis(100);
  p.capacity_kbps = 2500;
  m.AddTimeseriesPoint(p);
  ASSERT_EQ(m.timeseries().size(), 1u);
  EXPECT_EQ(m.timeseries()[0].capacity_kbps, 2500);
}

TEST(SessionMetricsTest, DeliveredLatenciesVector) {
  SessionMetrics m;
  AddDeliveredFrame(m, 0, 42.0);
  m.OnFrameCaptured(1, Timestamp::Millis(33));
  const auto latencies = m.DeliveredLatenciesMs();
  ASSERT_EQ(latencies.size(), 1u);
  EXPECT_NEAR(latencies[0], 42.0, 1e-9);
}

TEST(SessionMetricsTest, UnknownFrameIdsIgnored) {
  SessionMetrics m;
  m.OnFrameCompleted(99, Timestamp::Seconds(1));
  m.OnFrameLost(98);
  m.OnFrameDroppedAtSender(97);
  const SessionSummary s = m.Summarize(TimeDelta::Seconds(1));
  EXPECT_EQ(s.frames_captured, 0);
}

}  // namespace
}  // namespace rave::metrics
