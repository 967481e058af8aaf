#include "codec/abr_rate_control.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"
#include "simd/vmath.h"

namespace rave::codec {

AbrRateControl::AbrRateControl(const AbrConfig& config)
    : config_(config),
      target_(config.initial_target),
      target_bits_per_frame_(static_cast<double>(config.initial_target.bps()) /
                             config.fps),
      vbv_(config.initial_target, config.vbv_window),
      pred_key_(/*gamma=*/0.9, /*initial_coef=*/1.0),
      pred_delta_(/*gamma=*/1.2, /*initial_coef=*/1.0),
      window_decay_(1.0 - 1.0 / (config.window_seconds * config.fps)),
      lstep_(simd::Exp2S(config.qp_step / 6.0)) {
  assert(config.fps > 0);
}

void AbrRateControl::SetTargetRate(DataRate target) {
  if (target.bps() <= 0) return;
  target_ = target;
  target_bits_per_frame_ = static_cast<double>(target.bps()) / config_.fps;
  // Applications also move vbv-maxrate when reconfiguring the encoder.
  vbv_.SetMaxRate(target);
}

double AbrRateControl::ComplexityTerm(const video::RawFrame& frame,
                                      FrameType type) const {
  const double pixels = static_cast<double>(frame.resolution.pixels());
  return type == FrameType::kKey ? pixels * frame.spatial_complexity
                                 : pixels * frame.temporal_complexity;
}

double AbrRateControl::Rceq(double complexity_term) const {
  return simd::PowS(std::max(complexity_term, 1.0), 1.0 - config_.qcomp);
}

FrameGuidance AbrRateControl::PlanFrame(const video::RawFrame& frame,
                                        FrameType type, Timestamp now) {
  if (last_time_) vbv_.Drain(now - *last_time_);
  last_time_ = now;

  const double cplx_term = ComplexityTerm(frame, type);
  // Blur complexity over the recent past (x264 uses decay 0.5).
  const double blurred =
      (short_term_cplx_sum_ * 0.5 + cplx_term) /
      (short_term_cplx_count_ * 0.5 + 1.0);
  const double rceq = Rceq(blurred);
  planned_rceq_ = rceq;

  double qscale = 0.0;
  if (wanted_bits_window_ <= 0.0) {
    // First frame: no rate factor yet; invert the predictor for the
    // per-frame budget (keyframes get a generous multiple, as x264's
    // init does via rate_factor guessing).
    BitPredictor& pred = type == FrameType::kKey ? pred_key_ : pred_delta_;
    const double budget =
        target_bits_per_frame_ * (type == FrameType::kKey ? 5.0 : 1.0);
    qscale = pred.QscaleForBits(cplx_term,
                                DataSize::Bits(static_cast<int64_t>(budget)));
  } else {
    const double rate_factor = wanted_bits_window_ / cplxr_sum_;
    qscale = rceq / rate_factor;

    // Overflow compensation over the ABR buffer (~2 s of target rate).
    const double abr_buffer = 2.0 * config_.rate_tolerance *
                              static_cast<double>(target_.bps());
    const double overflow =
        std::clamp(1.0 + (total_bits_ - wanted_bits_) / abr_buffer, 0.5, 2.0);
    qscale *= overflow;
    RAVE_TRACE_COUNTER(kAbrRateRatio, now, overflow);
  }

  if (type == FrameType::kKey) qscale /= config_.ip_factor;

  // Per-frame step clamp (lstep, cached at construction).
  if (last_qscale_ > 0.0 && type == FrameType::kDelta) {
    qscale = std::clamp(qscale, last_qscale_ / lstep_, last_qscale_ * lstep_);
  }

  // VBV: if the predicted size does not fit in the remaining buffer space,
  // raise qscale until it does (soft constraint; x264 iterates similarly).
  BitPredictor& pred = type == FrameType::kKey ? pred_key_ : pred_delta_;
  const DataSize space = vbv_.MaxFrameSize(/*headroom=*/0.1);
  if (space.bits() > 0) {
    const DataSize predicted = pred.Predict(cplx_term, qscale);
    if (predicted > space) {
      qscale = std::max(qscale, pred.QscaleForBits(cplx_term, space));
    }
  }

  qscale = std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));

  FrameGuidance guidance;
  guidance.qp = QscaleToQp(qscale);
  // ABR has no hard cap: x264 without strict VBV emits whatever the frame
  // costs at the chosen QP. (This is a key reason the baseline overshoots.)
  guidance.max_size = DataSize::PlusInfinity();
  return guidance;
}

void AbrRateControl::OnFrameEncoded(const FrameOutcome& outcome,
                                    Timestamp now) {
  if (last_time_) vbv_.Drain(now - *last_time_);
  last_time_ = now;
  if (outcome.skipped) return;

  const double bits = static_cast<double>(outcome.size.bits());

  short_term_cplx_sum_ = short_term_cplx_sum_ * 0.5 + outcome.complexity_term;
  short_term_cplx_count_ = short_term_cplx_count_ * 0.5 + 1.0;

  const double rceq = planned_rceq_ > 0.0
                          ? planned_rceq_
                          : Rceq(std::max(outcome.complexity_term, 1.0));
  // I-frames contribute at their P-equivalent cost (x264 scales by the
  // ip_factor) so keyframes don't poison the rate factor.
  const double type_scale =
      outcome.type == FrameType::kKey ? 1.0 / config_.ip_factor : 1.0;
  cplxr_sum_ = cplxr_sum_ * window_decay_ +
               bits * outcome.qscale * type_scale / rceq;
  wanted_bits_window_ =
      wanted_bits_window_ * window_decay_ + target_bits_per_frame_;

  total_bits_ += bits;
  wanted_bits_ += target_bits_per_frame_;

  BitPredictor& pred =
      outcome.type == FrameType::kKey ? pred_key_ : pred_delta_;
  pred.Update(outcome.complexity_term, outcome.qscale, outcome.size,
              outcome.qscale_pow, outcome.gamma);

  vbv_.AddFrame(outcome.size);
  RAVE_TRACE_COUNTER(kVbvFill, now, vbv_.fullness());
  last_qscale_ = outcome.qscale;
}

}  // namespace rave::codec
