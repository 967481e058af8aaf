// Domain kernels with the same bit contract as vmath.h: scalar reference
// code compiled with -ffp-contract=off, so results never depend on the
// calling TU's flags.
#pragma once

#include <cstddef>

namespace rave::simd {

/// Ordinary-least-squares slope of y over x: two passes (sums, then
/// mean-centered products), plain mul/add, 0.0 when the denominator is
/// degenerate — the exact operation sequence of
/// TrendlineEstimator::LinearFitSlope, which delegates here.
double FitSlope(const double* x, const double* y, size_t n);

}  // namespace rave::simd
