#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace rave::benchmark {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(BenchmarkStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(BenchmarkStats, PercentileNeedsTenSamplesBeyondTheCut) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  EXPECT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile(Ramp(99), 0.90).has_value());
  EXPECT_TRUE(Percentile(Ramp(100), 0.90).has_value());
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  EXPECT_TRUE(Percentile(Ramp(20), 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(BenchmarkStats, PercentileInterpolatesBetweenOrderStatistics) {
  // Positions are q * (n - 1) over the sorted samples 1..n.
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(1000), 0.99), 990.01);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(21), 0.50), 11.0);
  std::vector<double> shuffled = Ramp(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(*Percentile(shuffled, 0.90), 90.1);
}

TEST(BenchmarkStats, PercentileRejectsDegenerateQuantiles) {
  EXPECT_FALSE(Percentile(Ramp(5000), 0.0).has_value());
  EXPECT_FALSE(Percentile(Ramp(5000), 1.0).has_value());
}

TEST(BenchmarkStats, NormalizeScalesByMedianCalibration) {
  // A host whose calibration runs twice the reference time is twice as
  // slow, so its timings halve; the outlier does not move the median.
  EXPECT_DOUBLE_EQ(Normalize(3.0, {0.020, 0.020, 0.500}), 1.5);
  EXPECT_DOUBLE_EQ(Normalize(3.0, {0.005, 0.005}), 6.0);
  EXPECT_DOUBLE_EQ(Normalize(3.0, {kCalibRefSeconds}), 3.0);
  EXPECT_DOUBLE_EQ(Normalize(3.0, {}), 3.0);
}

TEST(BenchmarkStats, CalibrationTakesMeasurableTime) {
  const double s = CalibrationSeconds();
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 1.0);
}

TEST(BenchmarkStats, DigestIsFnv1a) {
  Digest empty;
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ULL);
  Digest a;
  a.Add("a", 1);
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace rave::benchmark
