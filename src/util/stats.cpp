#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
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
  sorted_valid_ = false;
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

void SampleSet::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

std::vector<double> SampleSet::Sorted() const {
  EnsureSorted();
  return sorted_;
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
