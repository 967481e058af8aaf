#include "simd/kernels.h"

#include "simd/kernels_detail.h"

namespace rave::simd {

double FitSlope(const double* x, const double* y, size_t n) {
  return detail::FitSlopeRef(x, y, n);
}

}  // namespace rave::simd
