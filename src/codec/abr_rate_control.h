// x264-style ABR rate control — the paper's baseline ("current video
// encoders adjust bitrates too slowly").
//
// This is a faithful reimplementation of the control structure in x264's
// `ratecontrol.c` for single-pass ABR:
//   * short-term blurred complexity (decay 0.5 per frame),
//   * qscale = complexity^(1-qcomp) / rate_factor, with rate_factor derived
//     from windowed sums (`cplxr_sum` / `wanted_bits_window`) that decay over
//     several seconds,
//   * overflow compensation against cumulative wanted bits, clamped to
//     [0.5, 2.0] over an `abr_buffer` of ~2 s at the target rate,
//   * per-frame qscale step clamping (`lstep`, default 4 QP),
//   * a VBV leaky bucket that soft-limits individual frame sizes.
//
// The consequence — deliberately preserved — is that after the application
// reconfigures the target bitrate downward, the encoder's *output* bitrate
// converges over seconds, overshooting a dropped link all the while.
#pragma once

#include "codec/rate_control.h"
#include "codec/vbv.h"

#include <optional>

namespace rave::codec {

/// Tunables mirroring x264's defaults.
struct AbrConfig {
  double fps = 30.0;
  DataRate initial_target = DataRate::KilobitsPerSec(1500);
  /// Complexity exponent compression (x264 --qcomp).
  double qcomp = 0.6;
  /// Allowed deviation window (x264 --ratetol); sizes the abr_buffer.
  double rate_tolerance = 1.0;
  /// Max QP change per frame (x264 qpstep).
  double qp_step = 4.0;
  /// I-frame quantizer advantage (x264 --ipratio).
  double ip_factor = 1.4;
  /// VBV buffer window; RTC deployments commonly use ~1 s.
  TimeDelta vbv_window = TimeDelta::Millis(1000);
  /// Window (seconds) of the rate_factor sums; larger = slower adaptation.
  double window_seconds = 4.0;
};

/// Single-pass ABR controller. See file comment for the control law.
class AbrRateControl : public RateControl {
 public:
  explicit AbrRateControl(const AbrConfig& config);

  void SetTargetRate(DataRate target) override;
  FrameGuidance PlanFrame(const video::RawFrame& frame, FrameType type,
                          Timestamp now) override;
  void OnFrameEncoded(const FrameOutcome& outcome, Timestamp now) override;
  std::string name() const override { return "x264-abr"; }
  DataRate current_target() const override { return target_; }

  const AbrConfig& config() const { return config_; }

  /// Diagnostics for tests.
  double last_qscale() const { return last_qscale_; }
  const VbvBuffer& vbv() const { return vbv_; }

 private:
  double ComplexityTerm(const video::RawFrame& frame, FrameType type) const;
  double Rceq(double complexity_term) const;

  AbrConfig config_;
  DataRate target_;
  double target_bits_per_frame_;
  VbvBuffer vbv_;
  BitPredictor pred_key_;
  BitPredictor pred_delta_;

  // Windowed rate-factor state (x264: cplxr_sum / wanted_bits_window).
  double cplxr_sum_ = 0.0;
  double wanted_bits_window_ = 0.0;
  double window_decay_;
  /// exp2(qp_step/6), cached: the per-frame qscale step clamp.
  double lstep_;

  // Cumulative totals for overflow compensation.
  double total_bits_ = 0.0;
  double wanted_bits_ = 0.0;

  // Short-term blurred complexity (x264 short_term_cplx*).
  double short_term_cplx_sum_ = 0.0;
  double short_term_cplx_count_ = 0.0;

  double last_qscale_ = 0.0;
  std::optional<Timestamp> last_time_;
  // Stashed between PlanFrame and OnFrameEncoded for the window update.
  double planned_rceq_ = 0.0;
};

}  // namespace rave::codec
