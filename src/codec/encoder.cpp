#include "codec/encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics_registry.h"
#include "obs/stage_timer.h"
#include "simd/vmath.h"
#include "obs/trace.h"

namespace rave::codec {

Encoder::Encoder(const EncoderConfig& config, std::unique_ptr<RateControl> rc)
    : config_(config), rd_(config.rd, Rng(config.seed)), rc_(std::move(rc)) {
  assert(rc_);
}

void Encoder::SetTargetRate(DataRate target) { rc_->SetTargetRate(target); }

FrameType Encoder::DecideType(const video::RawFrame& frame, Timestamp now) {
  if (keyframe_requested_) {
    // PLI responses are rate-limited to avoid keyframe storms under loss;
    // the request stays pending until the interval allows it.
    if (last_keyframe_time_.IsMinusInfinity() ||
        now - last_keyframe_time_ >= config_.min_keyframe_interval) {
      return FrameType::kKey;
    }
  }
  if (config_.keyframe_on_scene_change && frame.scene_change) {
    return FrameType::kKey;
  }
  if (config_.keyframe_interval_frames > 0 &&
      frames_since_key_ >= config_.keyframe_interval_frames) {
    return FrameType::kKey;
  }
  return FrameType::kDelta;
}

EncodedFrame Encoder::EncodeFrame(const video::RawFrame& frame,
                                  Timestamp now) {
  const FrameType type = DecideType(frame, now);
  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double cplx_term = type == FrameType::kKey
                               ? pixels * frame.spatial_complexity
                               : pixels * frame.temporal_complexity;
  FrameGuidance guidance;
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    guidance = rc_->PlanFrame(frame, type, now);
  }

  EncodedFrame out;
  out.frame_id = frame.frame_id;
  out.capture_time = frame.capture_time;
  out.encode_time = now;
  out.type = type;
  out.resolution = frame.resolution;
  out.spatial_complexity = frame.spatial_complexity;
  out.temporal_complexity = frame.temporal_complexity;

  if (guidance.skip) {
    out.skipped = true;
    if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
      reg->GetCounter("encoder.frames_skipped")->Add();
    }
    FrameOutcome outcome;
    outcome.frame_id = frame.frame_id;
    outcome.type = type;
    outcome.skipped = true;
    outcome.capture_time = frame.capture_time;
    outcome.complexity_term = cplx_term;
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    rc_->OnFrameEncoded(outcome, now);
    ++frames_encoded_;
    return out;
  }

  int reencodes = 0;
  double qp = std::clamp(guidance.qp, kMinQp, kMaxQp);
  double qscale = QpToQscale(qp);
  const double gamma = rd_.Gamma(type);
  double qscale_pow = 0.0;
  DataSize size = DataSize::Zero();
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kRd);
    size = rd_.ActualBits(type, frame, qscale, &qscale_pow);
    // Hard-cap enforcement: re-encode at a higher QP until the frame fits
    // or the retry budget is spent (x264's VBV loop with row-level
    // re-quant).
    if (guidance.max_size.IsFinite()) {
      const double cap = static_cast<double>(guidance.max_size.bits());
      while (static_cast<double>(size.bits()) >
                 cap * (1.0 + config_.cap_tolerance) &&
             reencodes < config_.max_reencodes && qp < kMaxQp) {
        // Scale qscale by the observed overshoot, inverted through the
        // type-appropriate exponent, with a safety factor.
        const double overshoot = static_cast<double>(size.bits()) / cap;
        qscale *= simd::PowS(overshoot * 1.1, 1.0 / gamma);
        qscale = std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));
        qp = QscaleToQp(qscale);
        size = rd_.ActualBits(type, frame, qscale, &qscale_pow);
        ++reencodes;
      }
    }
    out.ssim = rd_.Ssim(frame, qscale);
    out.psnr = rd_.Psnr(frame, qp);
  }
  out.qp = qp;
  out.size = size;
  out.reencodes = reencodes;

  if (type == FrameType::kKey) {
    frames_since_key_ = 0;
    keyframe_requested_ = false;
    last_keyframe_time_ = now;
  } else {
    ++frames_since_key_;
  }

  RAVE_TRACE_COUNTER(kEncoderQp, now, qp);
  RAVE_TRACE_COUNTER(kEncoderFrameKbits, now,
                     static_cast<double>(size.bits()) / 1000.0);
  if (type == FrameType::kKey) {
    RAVE_TRACE_INSTANT(kEncoderKeyframe, now, "keyframe");
  }
  if (obs::MetricsRegistry* reg = obs::CurrentMetrics()) {
    reg->GetCounter("encoder.frames_encoded")->Add();
    if (type == FrameType::kKey) reg->GetCounter("encoder.keyframes")->Add();
    if (reencodes > 0) {
      reg->GetCounter("encoder.reencodes")
          ->Add(static_cast<uint64_t>(reencodes));
    }
    reg->GetSketch("encoder.qp")->Record(qp);
  }

  FrameOutcome outcome;
  outcome.frame_id = frame.frame_id;
  outcome.type = type;
  outcome.skipped = false;
  outcome.qp = qp;
  outcome.qscale = qscale;
  outcome.qscale_pow = qscale_pow;
  outcome.gamma = gamma;
  outcome.size = size;
  outcome.complexity_term = cplx_term;
  outcome.capture_time = frame.capture_time;
  outcome.reencodes = reencodes;
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kControl);
    rc_->OnFrameEncoded(outcome, now);
  }

  ++frames_encoded_;
  return out;
}

}  // namespace rave::codec
