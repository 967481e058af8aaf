// Scalar kernels for rave::simd. Their exact IEEE-754 operation sequence
// defines the simulator's result bits. Plain mul/add throughout (no
// std::fma): results must stay fast and identical on CPUs without FMA.
//
// Private to src/simd TUs, which are all compiled with -ffp-contract=off;
// do not include elsewhere (a contracting TU would compute different bits).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rave::simd::detail {

// --- exp2 ---------------------------------------------------------------
// 2^x = 2^k * 2^r with k = nearbyint(x) and r in [-0.5, 0.5]: degree-12
// Taylor expansion of 2^r (coefficients ln2^i / i!, correctly rounded;
// truncation < 1e-16 relative over the reduced range).
inline constexpr double kExp2C[13] = {
    0x1.0000000000000p+0,  // 1
    0x1.62e42fefa39efp-1,  // ln2
    0x1.ebfbdff82c58fp-3,  0x1.c6b08d704a0c0p-5,  0x1.3b2ab6fba4e77p-7,
    0x1.5d87fe78a6731p-10, 0x1.430912f86c787p-13, 0x1.ffcbfc588b0c7p-17,
    0x1.62c0223a5c824p-20, 0x1.b5253d395e7c4p-24, 0x1.e4cf5158b8ecap-28,
    0x1.e8cac7351bb25p-32, 0x1.c3bd650fc2986p-36,
};

// 1.5 * 2^52. Adding then subtracting it rounds |x| <= 2^51 to the nearest
// integer (ties to even), and the low bits of the intermediate sum hold
// that integer in two's complement: bits(kRoundBias + k) = kRoundBiasBits
// + k, which is how k is extracted.
inline constexpr double kRoundBias = 0x1.8p52;
inline constexpr int64_t kRoundBiasBits = 0x4338000000000000;

inline double Exp2Poly(double r) {
  double p = kExp2C[12];
  for (int i = 11; i >= 0; --i) p = p * r + kExp2C[i];
  return p;
}

/// Full-range 2^x. The [[likely]] path covers k in [-1021, 1023] (normal
/// results); overflow, subnormal results and NaN take the branches around
/// it.
inline double Exp2Ref(double x) {
  if (!(x < 1024.0)) {  // +inf, NaN, or guaranteed overflow
    return std::isnan(x) ? x : std::numeric_limits<double>::infinity();
  }
  if (x < -1075.0) return 0.0;  // guaranteed underflow to zero
  const double biased = x + kRoundBias;
  const double kd = biased - kRoundBias;
  const double p = Exp2Poly(x - kd);
  const int64_t k = std::bit_cast<int64_t>(biased) - kRoundBiasBits;
  if (k >= -1021 && k <= 1023) [[likely]] {
    // Exact scale by 2^k built from exponent bits.
    return p * std::bit_cast<double>(static_cast<uint64_t>(k + 1023) << 52);
  }
  return std::ldexp(p, static_cast<int>(k));
}

// --- log2 ---------------------------------------------------------------
// x = 2^e * m with m in [sqrt2/2, sqrt2): log2(m) = s * poly(s^2) where
// s = (m-1)/(m+1) and poly coefficients are (2/ln2)/(2k+1), degree 10 in
// s^2 (|s| <= (sqrt2-1)/(sqrt2+1) ~ 0.1716 keeps truncation < 1e-18).
inline constexpr double kLog2C[11] = {
    0x1.71547652b82fep+1,  // 2/ln2
    0x1.ec709dc3a03fdp-1, 0x1.2776c50ef9bfep-1, 0x1.a61762a7aded9p-2,
    0x1.484b13d7c02a9p-2, 0x1.0c9a84994022dp-2, 0x1.c68f568d31760p-3,
    0x1.89f3b1694cffep-3, 0x1.5b9ac9b743f0dp-3, 0x1.3703c1f4d0ffep-3,
    0x1.1964ec6fc9491p-3,
};

inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;
inline constexpr uint64_t kMantissaMask = 0x000FFFFFFFFFFFFFull;
inline constexpr uint64_t kOneBits = 0x3FF0000000000000ull;

/// log2 of a normal positive x whose raw bits are `bits`, with `e` holding
/// its unbiased exponent as a double. Shared by the fast path and the
/// denormal slow path (which rescales first).
inline double Log2Normal(uint64_t bits, double e) {
  double m = std::bit_cast<double>((bits & kMantissaMask) | kOneBits);
  if (m >= kSqrt2) {
    m *= 0.5;
    e += 1.0;
  }
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  double p = kLog2C[10];
  for (int i = 9; i >= 0; --i) p = p * z + kLog2C[i];
  return s * p + e;
}

inline double Log2Slow(double x) {
  if (std::isnan(x)) return x;
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  if (x == 0.0) return -std::numeric_limits<double>::infinity();
  if (std::isinf(x)) return x;
  // Positive denormal: rescale into the normal range and recurse once.
  const double xs = x * 0x1p54;
  const uint64_t bits = std::bit_cast<uint64_t>(xs);
  const double e =
      static_cast<double>(static_cast<int64_t>(bits >> 52)) - 1023.0 - 54.0;
  return Log2Normal(bits, e);
}

inline double Log2Ref(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const uint64_t expf = (bits >> 52) & 0x7FF;
  if (x > 0.0 && expf != 0 && expf != 0x7FF) [[likely]] {
    const double e = static_cast<double>(static_cast<int64_t>(expf)) - 1023.0;
    return Log2Normal(bits, e);
  }
  return Log2Slow(x);
}

// --- exp / pow ----------------------------------------------------------

inline constexpr double kLog2E = 0x1.71547652b82fep+0;

inline double ExpRef(double x) { return Exp2Ref(x * kLog2E); }

/// x^y as 2^(y*log2 x), given log2_x == Log2Ref(x), so a caller raising
/// one base to several exponents takes its log2 once. Negative bases return
/// NaN by design (the simulator has none); x==1 and y==0 return exactly 1.0
/// like std::pow.
inline double PowFromLog2Ref(double x, double log2_x, double y) {
  if (y == 0.0 || x == 1.0) return 1.0;
  if (x < 0.0) return std::numeric_limits<double>::quiet_NaN();
  return Exp2Ref(log2_x * y);
}

inline double PowRef(double x, double y) {
  return PowFromLog2Ref(x, Log2Ref(x), y);
}

}  // namespace rave::simd::detail
