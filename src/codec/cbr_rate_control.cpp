#include "codec/cbr_rate_control.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"
#include "simd/vmath.h"

namespace rave::codec {

CbrRateControl::CbrRateControl(const CbrConfig& config)
    : config_(config),
      target_(config.initial_target),
      vbv_(config.initial_target, config.vbv_window),
      pred_key_(/*gamma=*/0.9),
      pred_delta_(/*gamma=*/1.2),
      lstep_(simd::Exp2S(config.qp_step / 6.0)) {
  assert(config.fps > 0);
}

void CbrRateControl::SetTargetRate(DataRate target) {
  if (target.bps() <= 0) return;
  target_ = target;
  vbv_.SetMaxRate(target);
}

FrameGuidance CbrRateControl::PlanFrame(const video::RawFrame& frame,
                                        FrameType type, Timestamp now) {
  if (last_time_) vbv_.Drain(now - *last_time_);
  last_time_ = now;

  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double cplx_term = type == FrameType::kKey
                               ? pixels * frame.spatial_complexity
                               : pixels * frame.temporal_complexity;

  const double bpf = static_cast<double>(target_.bps()) / config_.fps;
  // Steer the buffer toward target fullness over half a second.
  const double correction_frames = std::max(config_.fps * 0.5, 1.0);
  const double fill_error =
      static_cast<double>(vbv_.fill().bits()) -
      config_.target_fullness * static_cast<double>(vbv_.capacity().bits());
  double frame_budget = bpf - fill_error / correction_frames;
  frame_budget = std::clamp(frame_budget, 0.25 * bpf, 3.0 * bpf);
  if (type == FrameType::kKey) {
    frame_budget *= 4.0;  // keyframes borrow from the buffer
  }

  BitPredictor& pred = type == FrameType::kKey ? pred_key_ : pred_delta_;
  double qscale = pred.QscaleForBits(
      cplx_term, DataSize::Bits(static_cast<int64_t>(
                     std::max(frame_budget, 1.0))));
  if (type == FrameType::kKey) qscale /= config_.ip_factor;

  if (last_qscale_ > 0.0 && type == FrameType::kDelta) {
    qscale = std::clamp(qscale, last_qscale_ / lstep_, last_qscale_ * lstep_);
  }
  qscale = std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));

  FrameGuidance guidance;
  guidance.qp = QscaleToQp(qscale);
  // Strict VBV: the frame must fit in the remaining buffer space.
  const DataSize space = vbv_.MaxFrameSize(/*headroom=*/0.02);
  guidance.max_size = std::max(space, DataSize::Bits(2000));
  return guidance;
}

void CbrRateControl::OnFrameEncoded(const FrameOutcome& outcome,
                                    Timestamp now) {
  if (last_time_) vbv_.Drain(now - *last_time_);
  last_time_ = now;
  if (outcome.skipped) return;

  BitPredictor& pred =
      outcome.type == FrameType::kKey ? pred_key_ : pred_delta_;
  pred.Update(outcome.complexity_term, outcome.qscale, outcome.size,
              outcome.qscale_pow, outcome.gamma);
  vbv_.AddFrame(outcome.size);
  RAVE_TRACE_COUNTER(kVbvFill, now, vbv_.fullness());
  last_qscale_ = outcome.qscale;
}

}  // namespace rave::codec
