#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <numeric>

namespace rave {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Reset() { *this = RunningStats(); }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::Add(double x) {
  samples_.push_back(x);
  order_valid_ = false;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!order_valid_) {
    order_ = samples_;
    order_valid_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(order_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, order_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The two order statistics a full sort would put at `lo` and `hi`: after
  // nth_element the element at `lo` is in its sorted place and everything
  // above it is no smaller, so the next one is the upper partition's
  // minimum. Later calls re-partition the same multiset, so `order_` is
  // re-copied from the samples only after an Add.
  const auto nth = order_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(order_.begin(), nth, order_.end());
  const double lo_value = *nth;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(nth + 1, order_.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

std::vector<double> SampleSet::Sorted() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

Ewma::Ewma(double alpha) : alpha_(alpha) { assert(alpha > 0.0 && alpha <= 1.0); }

void Ewma::Add(double x) {
  if (!initialized_) {
    value_ = x;
    variance_ = 0.0;
    initialized_ = true;
    return;
  }
  const double delta = x - value_;
  value_ += alpha_ * delta;
  variance_ = (1.0 - alpha_) * (variance_ + alpha_ * delta * delta);
}

void Ewma::Reset() {
  initialized_ = false;
  value_ = 0.0;
  variance_ = 0.0;
}

}  // namespace rave
