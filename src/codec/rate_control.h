// Rate-control interface shared by all schemes.
//
// A rate control plans each frame *before* encoding (QP, optional hard size
// cap, optional skip) and observes the result afterwards. The baseline
// implementations (`AbrRateControl`, `CbrRateControl`) live in this module;
// the paper's contribution (`core::AdaptiveRateControl`) implements the same
// interface from the `core` module.
#pragma once

#include <string>

#include "codec/rd_model.h"
#include "util/time.h"
#include "util/units.h"
#include "video/frame.h"

namespace rave::codec {

/// Per-frame plan issued before encoding.
struct FrameGuidance {
  /// Do not encode this frame at all (the receiver repeats the previous one).
  bool skip = false;
  /// Quantizer to encode at; clamped to [kMinQp, kMaxQp] by the encoder.
  double qp = 26.0;
  /// Hard size cap. If the encoded frame exceeds it, the encoder re-encodes
  /// at a higher QP (up to its retry limit). PlusInfinity = no cap.
  DataSize max_size = DataSize::PlusInfinity();
};

/// Everything a rate control learns about a finished frame.
struct FrameOutcome {
  int64_t frame_id = 0;
  FrameType type = FrameType::kDelta;
  bool skipped = false;
  double qp = 0.0;
  double qscale = 0.0;
  /// qscale^gamma as the R-D size law computed it, and the gamma it used
  /// (0 when skipped). BitPredictor::Update reuses the power when its own
  /// gamma matches.
  double qscale_pow = 0.0;
  double gamma = 0.0;
  DataSize size = DataSize::Zero();
  /// pixels * complexity actually used by the R-D model for this frame;
  /// rate controls feed it to their BitPredictors.
  double complexity_term = 0.0;
  Timestamp capture_time = Timestamp::Zero();
  int reencodes = 0;
};

/// Abstract rate control. Implementations are single-stream and stateful.
class RateControl {
 public:
  virtual ~RateControl() = default;

  /// New target bitrate from the congestion controller. Implementations may
  /// smooth internally (the baseline does; that sluggishness is the paper's
  /// motivation).
  virtual void SetTargetRate(DataRate target) = 0;

  /// Plans the next frame. `type` was already decided by the encoder
  /// front-end (keyframe policy); `now` is the encode wall-clock.
  virtual FrameGuidance PlanFrame(const video::RawFrame& frame, FrameType type,
                                  Timestamp now) = 0;

  /// Observes the encoded (or skipped) frame.
  virtual void OnFrameEncoded(const FrameOutcome& outcome, Timestamp now) = 0;

  /// Scheme name for reports ("x264-abr", "rave-adaptive", ...).
  virtual std::string name() const = 0;

  /// Current (possibly smoothed) operating target, for diagnostics.
  virtual DataRate current_target() const = 0;
};

}  // namespace rave::codec
