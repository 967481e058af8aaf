#include "cc/trendline.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "simd/kernels.h"

namespace rave::cc {

TrendlineEstimator::TrendlineEstimator() : TrendlineEstimator(Config{}) {}

TrendlineEstimator::TrendlineEstimator(const Config& config)
    : config_(config), threshold_(config.initial_threshold_ms) {
  assert(config_.window_size > 0 && config_.window_size <= kMaxWindow);
}

BandwidthUsage TrendlineEstimator::OnDelta(const InterArrivalDelta& delta) {
  const double delta_ms =
      delta.arrival_delta.ms_float() - delta.send_delta.ms_float();
  ++num_deltas_;
  if (first_arrival_.IsMinusInfinity()) first_arrival_ = delta.arrival;

  accumulated_delay_ms_ += delta_ms;
  smoothed_delay_ms_ = config_.smoothing * smoothed_delay_ms_ +
                       (1.0 - config_.smoothing) * accumulated_delay_ms_;

  // Push (arrival since first, smoothed delay); a full ring overwrites the
  // oldest sample in place (the deque's emplace_back + pop_front).
  const size_t cap = config_.window_size;
  size_t slot;
  if (hist_size_ < cap) {
    slot = hist_head_ + hist_size_;
    if (slot >= cap) slot -= cap;
    ++hist_size_;
  } else {
    slot = hist_head_;
    ++hist_head_;
    if (hist_head_ == cap) hist_head_ = 0;
  }
  hist_x_[slot] = (delta.arrival - first_arrival_).ms_float();
  hist_y_[slot] = smoothed_delay_ms_;

  if (hist_size_ == cap) {
    const double trend = LinearFitSlope();
    Detect(trend, delta.arrival_delta, delta.arrival);
  }
  return state_;
}

double TrendlineEstimator::LinearFitSlope() const {
  // Linearize oldest -> newest and delegate to the shared regression kernel.
  double xs[kMaxWindow];
  double ys[kMaxWindow];
  const size_t cap = config_.window_size;
  for (size_t i = 0; i < hist_size_; ++i) {
    size_t j = hist_head_ + i;
    if (j >= cap) j -= cap;
    xs[i] = hist_x_[j];
    ys[i] = hist_y_[j];
  }
  return simd::FitSlope(xs, ys, hist_size_);
}

void TrendlineEstimator::UpdateThreshold(double modified_trend,
                                         Timestamp now) {
  if (last_threshold_update_.IsMinusInfinity()) {
    last_threshold_update_ = now;
  }
  // Large spikes (route changes etc.) must not inflate the threshold.
  if (std::fabs(modified_trend) > threshold_ + 15.0) {
    last_threshold_update_ = now;
    return;
  }
  const double k =
      std::fabs(modified_trend) < threshold_ ? config_.k_down : config_.k_up;
  const double time_delta_ms =
      std::min((now - last_threshold_update_).ms_float(), 100.0);
  threshold_ += k * (std::fabs(modified_trend) - threshold_) * time_delta_ms;
  threshold_ = std::clamp(threshold_, 6.0, 600.0);
  last_threshold_update_ = now;
}

void TrendlineEstimator::Detect(double trend, TimeDelta ts_delta,
                                Timestamp now) {
  const double modified_trend =
      std::min(num_deltas_, 60) * trend * config_.threshold_gain;
  modified_trend_ = modified_trend;

  if (modified_trend > threshold_) {
    if (time_over_using_ < TimeDelta::Zero()) {
      time_over_using_ = ts_delta / 2;
    } else {
      time_over_using_ += ts_delta;
    }
    ++overuse_counter_;
    if (time_over_using_ > config_.overuse_time_threshold &&
        overuse_counter_ > 1 && trend >= prev_trend_) {
      time_over_using_ = TimeDelta::Zero();
      overuse_counter_ = 0;
      state_ = BandwidthUsage::kOverusing;
    }
  } else if (modified_trend < -threshold_) {
    time_over_using_ = TimeDelta::Millis(-1);
    overuse_counter_ = 0;
    state_ = BandwidthUsage::kUnderusing;
  } else {
    time_over_using_ = TimeDelta::Millis(-1);
    overuse_counter_ = 0;
    state_ = BandwidthUsage::kNormal;
  }
  prev_trend_ = trend;
  UpdateThreshold(modified_trend, now);
}

}  // namespace rave::cc
