// Trendline over-use estimator, following WebRTC's TrendlineEstimator: a
// linear regression over the smoothed accumulated one-way-delay measures the
// queue-growth slope; an adaptive threshold (Kup/Kdown) turns the slope into
// normal / over-using / under-using signals for the AIMD controller.
#pragma once

#include <array>
#include <cstddef>

#include "cc/inter_arrival.h"
#include "util/time.h"

namespace rave::cc {

/// Congestion signal handed to the rate controller.
enum class BandwidthUsage { kNormal, kOverusing, kUnderusing };

class TrendlineEstimator {
 public:
  struct Config {
    size_t window_size = 20;
    double smoothing = 0.9;
    double threshold_gain = 4.0;
    double k_up = 0.0087;
    double k_down = 0.039;
    double initial_threshold_ms = 12.5;
    TimeDelta overuse_time_threshold = TimeDelta::Millis(10);
  };

  /// Upper bound on Config::window_size (the history ring is inline).
  static constexpr size_t kMaxWindow = 64;

  TrendlineEstimator();
  explicit TrendlineEstimator(const Config& config);

  /// Feeds one inter-group delta; returns the updated signal.
  BandwidthUsage OnDelta(const InterArrivalDelta& delta);

  BandwidthUsage state() const { return state_; }
  /// Latest modified trend (slope * gain * count), for diagnostics.
  double modified_trend() const { return modified_trend_; }
  double threshold() const { return threshold_; }

 private:
  double LinearFitSlope() const;
  void UpdateThreshold(double modified_trend, Timestamp now);
  void Detect(double trend, TimeDelta ts_delta, Timestamp now);

  Config config_;

  double accumulated_delay_ms_ = 0.0;
  double smoothed_delay_ms_ = 0.0;
  Timestamp first_arrival_ = Timestamp::MinusInfinity();
  /// (arrival time since first, smoothed delay) samples in a fixed-capacity
  /// flat ring — this is a per-arrival hot container, so no deque chunks
  /// (allocation-free).
  /// Oldest sample at hist_head_, newest at (hist_head_ + hist_size_ - 1).
  std::array<double, kMaxWindow> hist_x_;
  std::array<double, kMaxWindow> hist_y_;
  size_t hist_head_ = 0;
  size_t hist_size_ = 0;
  int num_deltas_ = 0;

  double threshold_;
  double prev_trend_ = 0.0;
  double modified_trend_ = 0.0;
  TimeDelta time_over_using_ = TimeDelta::Millis(-1);
  int overuse_counter_ = 0;
  Timestamp last_threshold_update_ = Timestamp::MinusInfinity();
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

}  // namespace rave::cc
