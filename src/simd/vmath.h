// Scalar transcendental kernels that define the simulator's result bytes.
//
// The simulator evaluates its R-D model and rate-control laws through these
// rather than libm: their bits are fixed by our own IEEE-754 operation
// sequence (plain mul/add, compiled with -ffp-contract=off), not by the
// host's libm version, so every platform produces the same frames.
// simd_vmath_test pins the output bits over a fixed input grid.
//
// Accuracy: within a few ulp of correctly rounded across the simulator's
// domain. These are NOT libm — results may differ from std::pow/exp/log2 in
// the last ulps, identically on every platform. PowS(x, y) returns NaN for
// x < 0 (the simulator has no negative bases).
//
// The kernels assume the default FP environment (round-to-nearest-even,
// no denormal flushing); nothing in the simulator changes it.
#pragma once

namespace rave::simd {

/// Out-of-line, so every call site in every TU (whatever its optimization
/// or contraction flags) computes identical bits.
double Exp2S(double x);
double Log2S(double x);
double ExpS(double x);
double PowS(double x, double y);
/// PowS(x, y) given log2_x == Log2S(x), bit-identical to it: lets callers
/// raising one base to several exponents take its log2 once.
double PowFromLog2S(double x, double log2_x, double y);

}  // namespace rave::simd
