#include "simd/vmath.h"

#include "simd/vmath_detail.h"

namespace rave::simd {

double Exp2S(double x) { return detail::Exp2Ref(x); }
double Log2S(double x) { return detail::Log2Ref(x); }
double ExpS(double x) { return detail::ExpRef(x); }
double PowS(double x, double y) { return detail::PowRef(x, y); }
double PowFromLog2S(double x, double log2_x, double y) {
  return detail::PowFromLog2Ref(x, log2_x, y);
}

}  // namespace rave::simd
