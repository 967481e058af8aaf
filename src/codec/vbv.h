// Video Buffering Verifier (VBV) model, as used by x264's `--vbv-bufsize` /
// `--vbv-maxrate`. The VBV models the downstream buffer that drains at the
// configured max rate; the encoder must never overflow it. For low-latency
// RTC, applications configure a ~1 s buffer, which bounds *average* overshoot
// but reacts far too slowly to sudden capacity drops — precisely the failure
// mode the paper targets.
#pragma once

#include "util/time.h"
#include "util/units.h"

namespace rave::codec {

/// Leaky-bucket VBV state tracking.
class VbvBuffer {
 public:
  /// `max_rate` is the drain rate; `buffer_window` sizes the buffer as
  /// max_rate * buffer_window.
  VbvBuffer(DataRate max_rate, TimeDelta buffer_window);

  /// Reconfigures the drain rate (e.g. on encoder reconfig). Buffer size
  /// scales with the new rate; the current fill is preserved (clamped).
  void SetMaxRate(DataRate max_rate);

  /// Advances time: the buffer drains by max_rate * dt.
  void Drain(TimeDelta dt);

  /// Adds an encoded frame's bits to the buffer (clamped at capacity).
  void AddFrame(DataSize size);

  /// Space left before overflow.
  DataSize SpaceRemaining() const;
  /// Largest frame admissible right now while leaving `headroom` fraction of
  /// the buffer free.
  DataSize MaxFrameSize(double headroom = 0.0) const;

  DataSize fill() const { return fill_; }
  DataSize capacity() const { return capacity_; }
  DataRate max_rate() const { return max_rate_; }
  /// Fill as a fraction of capacity in [0,1].
  double fullness() const;

 private:
  DataRate max_rate_;
  TimeDelta buffer_window_;
  DataSize capacity_;
  DataSize fill_ = DataSize::Zero();
};

}  // namespace rave::codec
