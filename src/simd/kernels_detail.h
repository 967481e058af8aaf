// Scalar domain kernels; same rules as vmath_detail.h (private to src/simd
// TUs, -ffp-contract=off, plain mul/add only).
#pragma once

#include <cstddef>

namespace rave::simd::detail {

/// OLS slope of y[0..n) over x[0..n).
inline double FitSlopeRef(const double* x, const double* y, size_t n) {
  double sum_x = 0.0;
  double sum_y = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum_x += x[i];
    sum_y += y[i];
  }
  const double count = static_cast<double>(n);
  const double mean_x = sum_x / count;
  const double mean_y = sum_y / count;
  double numerator = 0.0;
  double denominator = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    numerator += dx * dy;
    denominator += dx * dx;
  }
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace rave::simd::detail
