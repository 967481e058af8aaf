// Summary statistics and host normalization for the benchmark driver.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace rave::benchmark {

/// Every timing metric is scaled to what it would read on a host whose
/// calibration loop takes exactly this long.
inline constexpr double kCalibRefSeconds = 0.010;

/// Samples a percentile needs beyond its cut before it is reported.
inline constexpr double kMinSamplesBeyondCut = 10.0;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// The q-quantile (0 < q < 1) of `values`, linearly interpolated between
/// order statistics, or nullopt unless at least kMinSamplesBeyondCut
/// samples lie beyond the cut, i.e. count * (1 - q) >= 10. p50 needs 20
/// samples, p90 100 and p99 1000.
std::optional<double> Percentile(std::vector<double> values, double q);

/// Scales a raw timing to the reference host: raw * kCalibRefSeconds /
/// median(calibration). Returns `raw` unchanged when there is no usable
/// calibration sample.
double Normalize(double raw, const std::vector<double>& calibration_s);

/// Runs the fixed calibration workload (xorshift64 indexing into a 256 KiB
/// table, about 10 ms on a current x86 core) and returns its wall seconds.
/// The work never changes, so its time tracks the host's speed alone.
double CalibrationSeconds();

/// 64-bit FNV-1a, used for output digests.
class Digest {
 public:
  void Add(const void* data, size_t size);
  template <typename T>
  void AddValue(const T& value) {
    Add(&value, sizeof(value));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace rave::benchmark
