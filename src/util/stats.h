// Streaming and batch statistics used throughout the metrics pipeline:
// Welford running moments, exact percentiles over retained samples and an
// exponentially weighted moving average/variance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rave {

/// Numerically stable streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Mean of the samples added so far; 0 when empty.
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample to answer exact quantile queries.
///
/// Intended for per-frame metrics at simulation scale (a 60 s session at
/// 30 fps is 1800 samples), where exactness matters more than memory.
class SampleSet {
 public:
  void Add(double x);
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Exact quantile by linear interpolation between order statistics.
  /// `q` in [0,1]; returns 0 when empty. Selects the two order statistics
  /// in linear time instead of sorting.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

  /// All samples, sorted ascending. Useful for CDF output.
  std::vector<double> Sorted() const;
  const std::vector<double>& raw() const { return samples_; }

 private:
  std::vector<double> samples_;
  /// The samples in the partial order left by the last Quantile() call.
  mutable std::vector<double> order_;
  mutable bool order_valid_ = false;
};

/// Exponentially weighted moving average with optional variance tracking.
/// `alpha` is the weight of the newest sample.
class Ewma {
 public:
  explicit Ewma(double alpha);

  void Add(double x);
  void Reset();

  bool initialized() const { return initialized_; }
  /// Current smoothed value; `fallback` until the first sample arrives.
  double GetOr(double fallback) const {
    return initialized_ ? value_ : fallback;
  }
  double value() const { return value_; }
  double variance() const { return variance_; }

 private:
  double alpha_;
  bool initialized_ = false;
  double value_ = 0.0;
  double variance_ = 0.0;
};

}  // namespace rave
