#include "codec/rd_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simd/vmath.h"

namespace rave::codec {

// All transcendentals below go through rave::simd's scalar kernels rather
// than libm: their bits are fixed by our own operation sequence, not by the
// host's libm version, and they define the simulator's result bytes.

double QpToQscale(double qp) {
  return 0.85 * simd::Exp2S((qp - 12.0) / 6.0);
}

double QscaleToQp(double qscale) {
  return 12.0 + 6.0 * simd::Log2S(qscale / 0.85);
}

RdModel::RdModel(const RdModelConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      inv_gamma_i_(1.0 / config.gamma_i),
      inv_gamma_p_(1.0 / config.gamma_p) {}

double RdModel::QscalePow(double qscale, double exponent) {
  if (qscale != memo_qscale_) {
    memo_qscale_ = qscale;
    memo_log2_qscale_ = simd::Log2S(qscale);
  }
  return simd::PowFromLog2S(qscale, memo_log2_qscale_, exponent);
}

double RdModel::RawExpected(FrameType type, const video::RawFrame& frame,
                            double qscale_pow) const {
  // pixels * complexity is the shared "complexity term" of the power law;
  // hoisting it keeps this path and the predictors on the same expression.
  const double pixels = static_cast<double>(frame.resolution.pixels());
  double bits = 0.0;
  if (type == FrameType::kKey) {
    const double cplx_term = pixels * frame.spatial_complexity;
    bits = config_.coef_i * cplx_term / qscale_pow;
  } else {
    // Scene-change frames coded as delta still cost near intra; the content
    // model already spikes temporal complexity, so no special case here.
    const double cplx_term = pixels * frame.temporal_complexity;
    bits = config_.coef_p * cplx_term / qscale_pow;
  }
  return std::max(bits, static_cast<double>(config_.min_frame_bits));
}

DataSize RdModel::ExpectedBits(FrameType type, const video::RawFrame& frame,
                               double qscale) const {
  const double pow = simd::PowS(qscale, Gamma(type));
  return DataSize::Bits(static_cast<int64_t>(RawExpected(type, frame, pow)));
}

DataSize RdModel::ActualBits(FrameType type, const video::RawFrame& frame,
                             double qscale, double* qscale_pow) {
  const double pow = QscalePow(qscale, Gamma(type));
  if (qscale_pow != nullptr) *qscale_pow = pow;
  const double expected = RawExpected(type, frame, pow);
  const double noise = simd::ExpS(rng_.Gaussian(0.0, config_.noise_sigma));
  const double bits =
      std::max(expected * noise, static_cast<double>(config_.min_frame_bits));
  return DataSize::Bits(static_cast<int64_t>(bits));
}

double RdModel::QscaleForBits(FrameType type, const video::RawFrame& frame,
                              DataSize target) const {
  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double bits =
      std::max<double>(static_cast<double>(target.bits()),
                       static_cast<double>(config_.min_frame_bits));
  double qscale = 0.0;
  if (type == FrameType::kKey) {
    const double cplx_term = pixels * frame.spatial_complexity;
    qscale = simd::PowS(config_.coef_i * cplx_term / bits, inv_gamma_i_);
  } else {
    const double cplx_term = pixels * frame.temporal_complexity;
    qscale = simd::PowS(config_.coef_p * cplx_term / bits, inv_gamma_p_);
  }
  return std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));
}

double RdModel::Ssim(const video::RawFrame& frame, double qscale) {
  const double complexity =
      0.5 * (frame.spatial_complexity + frame.temporal_complexity);
  const double distortion = config_.ssim_d0 *
                            QscalePow(qscale, config_.ssim_beta) *
                            (0.5 + 0.5 * complexity);
  return std::clamp(1.0 - distortion, 0.0, 1.0);
}

double RdModel::Psnr(const video::RawFrame& frame, double qp) const {
  const double complexity =
      0.5 * (frame.spatial_complexity + frame.temporal_complexity);
  return 52.0 - 0.6 * qp - 2.0 * simd::Log2S(1.0 + complexity);
}

BitPredictor::BitPredictor(double gamma, double initial_coef)
    : gamma_(gamma), inv_gamma_(1.0 / gamma), coef_(initial_coef) {
  assert(gamma_ > 0.0);
}

DataSize BitPredictor::Predict(double complexity_term, double qscale) const {
  assert(qscale > 0.0);
  const double bits = coef_ * complexity_term / simd::PowS(qscale, gamma_);
  return DataSize::Bits(static_cast<int64_t>(std::max(bits, 1.0)));
}

double BitPredictor::QscaleForBits(double complexity_term,
                                   DataSize target) const {
  const double bits = std::max<double>(static_cast<double>(target.bits()), 1.0);
  const double qscale =
      simd::PowS(coef_ * complexity_term / bits, inv_gamma_);
  return std::clamp(qscale, QpToQscale(kMinQp), QpToQscale(kMaxQp));
}

void BitPredictor::Update(double complexity_term, double qscale,
                          DataSize bits, double qscale_pow, double pow_gamma) {
  if (complexity_term <= 0.0 || qscale <= 0.0 || bits.bits() <= 0) return;
  if (pow_gamma != gamma_) qscale_pow = simd::PowS(qscale, gamma_);
  // Damped least squares on the single coefficient, as in x264's
  // update_predictor: new observations get weight 1, history decays.
  const double observed_coef =
      static_cast<double>(bits.bits()) * qscale_pow / complexity_term;
  constexpr double kDecay = 0.5;
  weight_ = weight_ * kDecay + 1.0;
  coef_ += (observed_coef - coef_) / weight_;
}

}  // namespace rave::codec
