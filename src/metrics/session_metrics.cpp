#include "metrics/session_metrics.h"

#include <algorithm>
#include <cassert>

namespace rave::metrics {

void SessionMetrics::Reserve(size_t expected_frames,
                             size_t expected_timeseries) {
  frames_.reserve(expected_frames);
  timeseries_.reserve(expected_timeseries);
}

FrameRecord* SessionMetrics::Find(int64_t frame_id) {
  const int64_t idx = frame_id - base_frame_id_;
  if (base_frame_id_ < 0 || idx < 0 ||
      static_cast<size_t>(idx) >= frames_.size()) {
    return nullptr;
  }
  FrameRecord* r = &frames_[static_cast<size_t>(idx)];
  assert(r->frame_id == frame_id);
  return r;
}

void SessionMetrics::OnFrameCaptured(int64_t frame_id,
                                     Timestamp capture_time) {
  if (base_frame_id_ < 0) base_frame_id_ = frame_id;
  // Capture ids must stay consecutive for base-offset lookup to hold.
  assert(frame_id ==
         base_frame_id_ + static_cast<int64_t>(frames_.size()));
  FrameRecord record;
  record.frame_id = frame_id;
  record.capture_time = capture_time;
  record.fate = FrameFate::kInFlight;
  frames_.push_back(record);
}

void SessionMetrics::OnFrameDroppedAtSender(int64_t frame_id) {
  if (FrameRecord* r = Find(frame_id)) r->fate = FrameFate::kDroppedSender;
}

void SessionMetrics::OnFrameEncoded(const FrameRecord& encoded) {
  FrameRecord* r = Find(encoded.frame_id);
  if (!r) return;
  r->type = encoded.type;
  r->qp = encoded.qp;
  r->size = encoded.size;
  r->ssim = encoded.ssim;
  r->psnr = encoded.psnr;
  r->reencodes = encoded.reencodes;
  r->temporal_complexity = encoded.temporal_complexity;
  if (encoded.fate == FrameFate::kSkippedEncoder) {
    r->fate = FrameFate::kSkippedEncoder;
  }
}

void SessionMetrics::OnFrameCompleted(int64_t frame_id,
                                      Timestamp complete_time) {
  if (FrameRecord* r = Find(frame_id)) {
    r->complete_time = complete_time;
    r->fate = FrameFate::kDelivered;
  }
}

void SessionMetrics::OnFrameRendered(int64_t frame_id, Timestamp render_time,
                                     bool late) {
  if (FrameRecord* r = Find(frame_id)) {
    r->render_time = render_time;
    r->late_render = late;
  }
}

void SessionMetrics::OnFrameLost(int64_t frame_id) {
  if (FrameRecord* r = Find(frame_id)) r->fate = FrameFate::kLostNetwork;
}

void SessionMetrics::AddTimeseriesPoint(const TimeseriesPoint& point) {
  timeseries_.push_back(point);
}

std::vector<double> SessionMetrics::DeliveredLatenciesMs() const {
  std::vector<double> out;
  out.reserve(frames_.size());
  for (const FrameRecord& r : frames_) {
    if (auto latency = r.latency()) out.push_back(latency->ms_float());
  }
  return out;
}

SessionSummary SessionMetrics::Summarize(TimeDelta duration) const {
  SessionSummary s;
  s.frames_captured = static_cast<int64_t>(frames_.size());

  SampleSet latencies;
  SampleSet render_latencies;
  latencies.Reserve(frames_.size());
  render_latencies.Reserve(frames_.size());
  int64_t late_renders = 0;
  RunningStats ssim;
  RunningStats psnr;
  RunningStats qp;
  RunningStats encoded_ssim;
  RunningStats displayed;
  int64_t total_bits = 0;

  // Per displayed-frame freeze decay at temporal complexity 1.0.
  constexpr double kFreezePenalty = 0.02;
  double last_displayed_ssim = 0.0;

  // H.264 reference-chain decodability: a delta frame that follows a lost
  // frame cannot be decoded until the next keyframe arrives, even if its own
  // packets were delivered. Encoder skips and sender drops do not break the
  // chain (no frame was emitted, so the prediction reference is unchanged).
  bool decodable = true;

  for (const FrameRecord& r : frames_) {
    switch (r.fate) {
      case FrameFate::kDelivered:
        ++s.frames_delivered;
        break;
      case FrameFate::kSkippedEncoder:
        ++s.frames_skipped;
        break;
      case FrameFate::kDroppedSender:
        ++s.frames_dropped_sender;
        break;
      case FrameFate::kLostNetwork:
        ++s.frames_lost_network;
        break;
      case FrameFate::kInFlight:
        break;
    }
    const bool encoded = r.fate != FrameFate::kSkippedEncoder &&
                         r.fate != FrameFate::kDroppedSender;
    if (encoded) encoded_ssim.Add(r.ssim);

    if (r.fate == FrameFate::kLostNetwork) decodable = false;
    if (r.fate == FrameFate::kDelivered && r.type == codec::FrameType::kKey) {
      decodable = true;
    }

    if (auto latency = r.latency()) latencies.Add(latency->ms_float());
    if (auto render = r.render_latency()) {
      render_latencies.Add(render->ms_float());
      if (r.late_render) ++late_renders;
    }
    if (r.fate == FrameFate::kDelivered && decodable) {
      ssim.Add(r.ssim);
      psnr.Add(r.psnr);
      qp.Add(r.qp);
      last_displayed_ssim = r.ssim;
    } else {
      // Freeze: the previous frame stays on screen; its similarity to the
      // current content decays with motion.
      last_displayed_ssim = std::max(
          0.0, last_displayed_ssim -
                   kFreezePenalty * std::max(r.temporal_complexity, 0.2));
    }
    displayed.Add(last_displayed_ssim);
    total_bits += r.size.bits();
    s.total_reencodes += r.reencodes;
  }

  s.latency_mean_ms = latencies.mean();
  s.latency_p50_ms = latencies.Quantile(0.50);
  s.latency_p95_ms = latencies.Quantile(0.95);
  s.latency_p99_ms = latencies.Quantile(0.99);
  s.latency_max_ms = latencies.max();

  s.render_latency_mean_ms = render_latencies.mean();
  s.render_latency_p95_ms = render_latencies.Quantile(0.95);
  s.late_render_ratio =
      render_latencies.empty()
          ? 0.0
          : static_cast<double>(late_renders) /
                static_cast<double>(render_latencies.count());

  s.ssim_mean = ssim.mean();
  s.psnr_mean_db = psnr.mean();
  s.qp_mean = qp.mean();
  s.encoded_ssim_mean = encoded_ssim.mean();
  s.displayed_ssim_mean = displayed.mean();

  s.undelivered_ratio =
      s.frames_captured > 0
          ? 1.0 - static_cast<double>(s.frames_delivered) /
                      static_cast<double>(s.frames_captured)
          : 0.0;

  if (duration > TimeDelta::Zero()) {
    s.encoded_bitrate_kbps =
        static_cast<double>(total_bits) / duration.seconds() / 1e3;
  }
  return s;
}

}  // namespace rave::metrics
