// Rate-distortion model of an x264-like encoder.
//
// x264's own rate control does not know real frame sizes in advance either:
// it predicts them with a power-law model of complexity and quantizer scale
// (`predict_size`: bits = coef * complexity / qscale) and corrects the
// coefficient online. We use the same family of models as *ground truth*
// (with multiplicative noise standing in for everything the model misses),
// and give the rate-control implementations only an online-calibrated
// predictor (`BitPredictor`). This keeps the control problem honest: no
// scheme gets oracle knowledge of frame sizes.
#pragma once

#include <cstdint>
#include <limits>

#include "util/rng.h"
#include "util/units.h"
#include "video/frame.h"

namespace rave::codec {

/// Frame coding type. RTC streams are I/P only (no B frames: they add a
/// frame of latency by construction).
enum class FrameType : uint8_t { kKey, kDelta };

/// QP <-> quantizer-scale conversions, exactly as in x264
/// (`qp2qscale`: qscale = 0.85 * 2^((QP-12)/6)).
double QpToQscale(double qp);
double QscaleToQp(double qscale);

/// Valid H.264 QP range.
inline constexpr double kMinQp = 10.0;
inline constexpr double kMaxQp = 51.0;

/// Parameters of the ground-truth R-D surface.
struct RdModelConfig {
  /// Bits for a delta frame: coef_p * pixels * temporal_c / qscale^gamma_p.
  double coef_p = 1.0;
  double gamma_p = 1.2;
  /// Bits for a key frame: coef_i * pixels * spatial_c / qscale^gamma_i.
  double coef_i = 1.2;
  double gamma_i = 0.9;
  /// Lognormal noise stddev applied to the true size (encoder-side only).
  double noise_sigma = 0.08;
  /// SSIM proxy: ssim = 1 - d0 * qscale^beta * (0.5 + 0.5 * complexity).
  double ssim_d0 = 0.0154;
  double ssim_beta = 0.7;
  /// Floor on any frame's size (headers, syntax overhead).
  int64_t min_frame_bits = 1500;
};

/// Deterministic ground-truth R-D surface plus the encoder's noise source.
class RdModel {
 public:
  RdModel(const RdModelConfig& config, Rng rng);

  /// Noise-free expected size of a frame encoded at `qscale`.
  DataSize ExpectedBits(FrameType type, const video::RawFrame& frame,
                        double qscale) const;

  /// Actual size: expected size perturbed by this encoder's noise stream.
  /// Each call draws fresh noise (so a re-encode at a new QP re-rolls).
  /// If `qscale_pow` is non-null it receives the qscale^Gamma(type) the size
  /// law used, for the rate control's BitPredictor::Update.
  DataSize ActualBits(FrameType type, const video::RawFrame& frame,
                      double qscale, double* qscale_pow = nullptr);

  /// Inverts the expected-size model: qscale needed for `target` bits.
  /// Returns a qscale clamped to the valid QP range.
  double QscaleForBits(FrameType type, const video::RawFrame& frame,
                       DataSize target) const;

  /// SSIM-like quality proxy in (0, 1], monotonically decreasing in qscale.
  double Ssim(const video::RawFrame& frame, double qscale);

  /// PSNR-like proxy in dB, monotonically decreasing in QP.
  double Psnr(const video::RawFrame& frame, double qp) const;

  /// Size-law qscale exponent of a frame type (gamma_i or gamma_p).
  double Gamma(FrameType type) const {
    return type == FrameType::kKey ? config_.gamma_i : config_.gamma_p;
  }

  const RdModelConfig& config() const { return config_; }

 private:
  /// Noise-free size, floored at min_frame_bits, given qscale^Gamma(type).
  double RawExpected(FrameType type, const video::RawFrame& frame,
                     double qscale_pow) const;
  /// qscale^exponent, bit-identical to simd::PowS. log2(qscale) is kept for
  /// the last qscale seen, so the size law and Ssim of one encode share a
  /// single Log2S.
  double QscalePow(double qscale, double exponent);

  RdModelConfig config_;
  Rng rng_;
  /// QscalePow's one-entry memo (NaN: empty; it never compares equal).
  double memo_qscale_ = std::numeric_limits<double>::quiet_NaN();
  double memo_log2_qscale_ = 0.0;
  /// Cached reciprocal exponents for the QscaleForBits inversions.
  double inv_gamma_i_;
  double inv_gamma_p_;
};

/// Online-calibrated size predictor available to rate controls.
///
/// Mirrors x264's `predictor_t`: predicted = coef * complexity_term /
/// qscale^gamma, with `coef` tracked as a damped ratio of observed sizes.
/// One instance per frame type.
class BitPredictor {
 public:
  /// `gamma` must match the qscale exponent used for this frame type.
  explicit BitPredictor(double gamma, double initial_coef = 1.0);

  /// Predicted bits for encoding `complexity_term` (= pixels * complexity)
  /// at `qscale`.
  DataSize Predict(double complexity_term, double qscale) const;

  /// Qscale at which the predictor expects `target` bits.
  double QscaleForBits(double complexity_term, DataSize target) const;

  /// Feeds an observation (the frame actually produced `bits`). Callers that
  /// already hold qscale^pow_gamma pass it: it is reused when pow_gamma equals
  /// this predictor's gamma and recomputed otherwise (pow_gamma 0, the
  /// default, never matches).
  void Update(double complexity_term, double qscale, DataSize bits,
              double qscale_pow = 0.0, double pow_gamma = 0.0);

  double coef() const { return coef_; }

 private:
  double gamma_;
  /// Cached 1/gamma so QscaleForBits doesn't divide on every frame.
  double inv_gamma_;
  double coef_;
  double weight_ = 0.0;
};

}  // namespace rave::codec
