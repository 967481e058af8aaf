#include "codec/crf_rate_control.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simd/vmath.h"

namespace rave::codec {

CrfRateControl::CrfRateControl(const CrfConfig& config)
    : config_(config),
      pred_key_(/*gamma=*/0.9),
      pred_delta_(/*gamma=*/1.2),
      lstep_(simd::Exp2S(config.qp_step / 6.0)) {
  assert(config_.fps > 0);
  if (config_.cap_rate) {
    vbv_.emplace(*config_.cap_rate, config_.vbv_window);
  }
  // x264: rate_factor chosen so a frame of "typical" complexity encodes at
  // qscale(crf). We anchor to 720p at the model's reference complexity.
  const double reference_cplx = 1280.0 * 720.0 * 0.5;
  rate_factor_ = simd::PowS(reference_cplx, 1.0 - config_.qcomp) /
                 QpToQscale(config_.crf);
}

void CrfRateControl::SetTargetRate(DataRate target) {
  if (!config_.cap_rate || target.bps() <= 0) return;  // pure CRF: ignore
  config_.cap_rate = target;
  vbv_->SetMaxRate(target);
}

FrameGuidance CrfRateControl::PlanFrame(const video::RawFrame& frame,
                                        FrameType type, Timestamp now) {
  if (vbv_ && last_time_) vbv_->Drain(now - *last_time_);
  last_time_ = now;

  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double cplx_term = type == FrameType::kKey
                               ? pixels * frame.spatial_complexity
                               : pixels * frame.temporal_complexity;
  const double blurred = (short_term_cplx_sum_ * 0.5 + cplx_term) /
                         (short_term_cplx_count_ * 0.5 + 1.0);

  double qscale =
      simd::PowS(std::max(blurred, 1.0), 1.0 - config_.qcomp) / rate_factor_;
  if (type == FrameType::kKey) qscale /= config_.ip_factor;

  if (last_qscale_ > 0.0 && type == FrameType::kDelta) {
    qscale = std::clamp(qscale, last_qscale_ / lstep_, last_qscale_ * lstep_);
  }

  // Capped CRF: raise qscale until the predicted frame fits the VBV.
  if (vbv_) {
    BitPredictor& pred = type == FrameType::kKey ? pred_key_ : pred_delta_;
    const DataSize space = vbv_->MaxFrameSize(/*headroom=*/0.1);
    if (space.bits() > 0 && pred.Predict(cplx_term, qscale) > space) {
      qscale = std::max(qscale, pred.QscaleForBits(cplx_term, space));
    }
  }
  qscale = std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));

  FrameGuidance guidance;
  guidance.qp = QscaleToQp(qscale);
  if (vbv_) {
    guidance.max_size = std::max(vbv_->MaxFrameSize(/*headroom=*/0.02),
                                 DataSize::Bits(2000));
  }
  return guidance;
}

void CrfRateControl::OnFrameEncoded(const FrameOutcome& outcome,
                                    Timestamp now) {
  if (vbv_ && last_time_) vbv_->Drain(now - *last_time_);
  last_time_ = now;
  if (outcome.skipped) return;
  short_term_cplx_sum_ = short_term_cplx_sum_ * 0.5 + outcome.complexity_term;
  short_term_cplx_count_ = short_term_cplx_count_ * 0.5 + 1.0;
  BitPredictor& pred =
      outcome.type == FrameType::kKey ? pred_key_ : pred_delta_;
  pred.Update(outcome.complexity_term, outcome.qscale, outcome.size,
              outcome.qscale_pow, outcome.gamma);
  if (vbv_) vbv_->AddFrame(outcome.size);
  last_qscale_ = outcome.qscale;
}

}  // namespace rave::codec
