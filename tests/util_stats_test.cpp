#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"

namespace rave {
namespace {

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, SingleSampleVarianceZero) {
  RunningStats s;
  s.Add(3.14);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
  EXPECT_DOUBLE_EQ(s.min(), 3.14);
  EXPECT_DOUBLE_EQ(s.max(), 3.14);
}

TEST(RunningStatsTest, Reset) {
  RunningStats s;
  s.Add(1.0);
  s.Add(2.0);
  s.Reset();
  EXPECT_TRUE(s.empty());
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.95), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SampleSetTest, UnsortedInput) {
  SampleSet s;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  const auto sorted = s.Sorted();
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1], sorted[i]);
  }
}

TEST(SampleSetTest, EmptyReturnsZero) {
  SampleSet s;
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleSetTest, AddAfterQuantileInvalidatesCache) {
  SampleSet s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.Median(), 2.0);
  s.Add(100.0);
  EXPECT_DOUBLE_EQ(s.Median(), 3.0);
}

TEST(SampleSetTest, QuantileMatchesFullSortBitExactly) {
  // The selection-based Quantile must return exactly what interpolating a
  // fully sorted copy returns, for any query order and with ties.
  for (const size_t n : {1u, 2u, 3u, 17u, 1000u}) {
    SampleSet s;
    Rng rng(n);
    for (size_t i = 0; i < n; ++i) {
      // Coarse values so ties are common.
      s.Add(std::floor(rng.Uniform(0.0, 50.0)) * 0.25);
    }
    std::vector<double> sorted = s.raw();
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.99, 0.0, 0.5, 0.95, 1.0, 0.25, 0.5, 0.999}) {
      const double pos = q * static_cast<double>(n - 1);
      const size_t lo = static_cast<size_t>(pos);
      const size_t hi = std::min(lo + 1, n - 1);
      const double frac = pos - static_cast<double>(lo);
      const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
      EXPECT_EQ(s.Quantile(q), expected) << "n " << n << " q " << q;
    }
  }
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  EXPECT_EQ(e.GetOr(42.0), 42.0);
  e.Add(10.0);
  EXPECT_TRUE(e.initialized());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.2);
  for (int i = 0; i < 200; ++i) e.Add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
  EXPECT_NEAR(e.variance(), 0.0, 1e-9);
}

TEST(EwmaTest, StepResponse) {
  Ewma e(0.5);
  e.Add(0.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(EwmaTest, Reset) {
  Ewma e(0.5);
  e.Add(3.0);
  e.Reset();
  EXPECT_FALSE(e.initialized());
  EXPECT_EQ(e.GetOr(-1.0), -1.0);
}

}  // namespace
}  // namespace rave
