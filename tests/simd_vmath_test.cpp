// Tests for the scalar math kernels in src/simd: they must stay within a few
// ulp of libm over the simulator's domain, handle specials like std::pow,
// and keep their exact output bits (which define the result bytes) over a
// fixed input grid.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "simd/kernels.h"
#include "simd/vmath.h"
#include "util/rng.h"

namespace rave::simd {
namespace {

constexpr size_t kRandomCount = 10000;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

/// Edge inputs every unary kernel must handle: specials, denormals, and
/// values straddling each fast-path boundary.
std::vector<double> EdgeInputs() {
  return {
      0.0,      -0.0,      1.0,        -1.0,      kInf,     -kInf,
      kNan,     kDenormMin, -kDenormMin, 2.2e-308, -2.2e-308,
      1.5e-308,  // denormal-adjacent normal
      0x1p-1022, 0x1p-1021, 0x1p-1074,
      1023.0,   1023.5,    1024.0,     1024.5,    -1021.0,  -1021.5,
      -1022.0,  -1074.0,   -1075.0,    -1075.5,   -1076.0,
      std::sqrt(2.0), std::nextafter(std::sqrt(2.0), 0.0),
      std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
      0.5,      2.0,       1e-30,      1e30,      0.9999999999999999,
      1.0000000000000002,
  };
}

/// Random positive values log-uniform across the full normal range plus a
/// slice of the denormals.
std::vector<double> RandomPositive(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % 97 == 0) {
      // Random denormal.
      v.push_back(std::bit_cast<double>(
          static_cast<uint64_t>(rng.Next() & 0xFFFFFFFFFFFFFull)));
    } else {
      v.push_back(std::exp2(rng.NextDouble() * 2040.0 - 1020.0));
    }
  }
  return v;
}

/// Random exponents spanning the interesting exp2 range (incl. overflow
/// and underflow tails).
std::vector<double> RandomExponents(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<double> v;
  v.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    v.push_back(rng.NextDouble() * 2400.0 - 1200.0);
  }
  return v;
}

double UlpDiff(double a, double b) {
  if (a == b) return 0.0;
  const double ulp = std::ldexp(1.0, std::ilogb(b) - 52);
  return std::fabs(a - b) / ulp;
}

TEST(SimdVmath, Exp2MatchesLibmWithinUlp) {
  auto inputs = RandomExponents(0x5EED0001, kRandomCount);
  for (double x : inputs) {
    const double got = Exp2S(x);
    const double want = std::exp2(x);
    if (want == 0.0 || std::isinf(want) ||
        std::fpclassify(want) == FP_SUBNORMAL) {
      // Underflow/overflow/subnormal: same class is enough (the slow path
      // rounds via ldexp, identically everywhere).
      EXPECT_EQ(std::fpclassify(got), std::fpclassify(want)) << "x=" << x;
    } else {
      EXPECT_LE(UlpDiff(got, want), 4.0) << "x=" << x;
    }
  }
}

TEST(SimdVmath, Log2MatchesLibmWithinUlp) {
  auto inputs = RandomPositive(0x5EED0002, kRandomCount);
  for (double x : inputs) {
    const double got = Log2S(x);
    const double want = std::log2(x);
    if (want == 0.0) {
      EXPECT_EQ(got, want) << "x=" << x;
    } else {
      // log2 near 1 loses absolute precision in any non-fused scheme;
      // bound the absolute error by ulp(e)+poly error there.
      EXPECT_LE(std::fabs(got - want),
                std::max(4.0 * std::fabs(want) * 1e-16, 1e-15))
          << "x=" << x;
    }
  }
}

TEST(SimdVmath, ExpAndPowMatchLibm) {
  Rng rng(0x5EED0003);
  for (size_t i = 0; i < kRandomCount; ++i) {
    const double x = rng.NextDouble() * 1400.0 - 700.0;
    const double ew = std::exp(x);
    const double eg = ExpS(x);
    if (ew == 0.0 || std::isinf(ew) || std::fpclassify(ew) == FP_SUBNORMAL) {
      EXPECT_EQ(std::fpclassify(eg), std::fpclassify(ew)) << "x=" << x;
    } else {
      // The single multiply in the x*log2e reduction (plus the rounded
      // log2e constant itself) costs absolute argument error proportional
      // to |x|, hence ~1.5*|x| ulp of relative result error. Tight for the
      // simulator's O(1) exponents (covered below), linear at the extremes.
      EXPECT_LE(UlpDiff(eg, ew), 8.0 + 1.5 * std::fabs(x)) << "x=" << x;
    }

    const double small = rng.NextDouble() * 8.0 - 4.0;  // lognormal-noise range
    EXPECT_LE(UlpDiff(ExpS(small), std::exp(small)), 8.0) << "x=" << small;

    // Simulator-domain pow: bases spanning qscale/complexity/ratio ranges,
    // exponents like gamma, 1/gamma, ssim_beta, qcomp.
    const double base = std::exp2(rng.NextDouble() * 60.0 - 30.0);
    const double exponent = rng.NextDouble() * 6.0 - 3.0;
    const double pw = std::pow(base, exponent);
    const double pg = PowS(base, exponent);
    // Same error model: ~1 ulp of log2(base) amplified by the exponent and
    // the magnitude of t = exponent*log2(base).
    const double t = std::fabs(exponent * std::log2(base));
    EXPECT_LE(UlpDiff(pg, pw), 16.0 + 1.5 * t)
        << "base=" << base << " exp=" << exponent;
  }
}

TEST(SimdVmath, PowSpecialCases) {
  EXPECT_EQ(PowS(2.0, 0.0), 1.0);
  EXPECT_EQ(PowS(0.0, 0.0), 1.0);
  EXPECT_EQ(PowS(kNan, 0.0), 1.0);
  EXPECT_EQ(PowS(1.0, kNan), 1.0);
  EXPECT_EQ(PowS(1.0, kInf), 1.0);
  EXPECT_EQ(PowS(0.0, 2.0), 0.0);
  EXPECT_EQ(PowS(0.0, -2.0), kInf);
  EXPECT_EQ(PowS(kInf, 2.0), kInf);
  EXPECT_EQ(PowS(kInf, -2.0), 0.0);
  EXPECT_EQ(PowS(2.0, kInf), kInf);
  EXPECT_EQ(PowS(2.0, -kInf), 0.0);
  EXPECT_EQ(PowS(0.5, kInf), 0.0);
  EXPECT_TRUE(std::isnan(PowS(-2.0, 0.5)));
  EXPECT_TRUE(std::isnan(PowS(kNan, 1.0)));
  EXPECT_TRUE(std::isnan(PowS(2.0, kNan)));
}

TEST(SimdVmath, PowFromLog2IsBitIdenticalToPow) {
  // Callers that hoist Log2S(x) out of several powers of one base rely on
  // PowFromLog2S reproducing PowS exactly, specials included.
  std::vector<double> bases = EdgeInputs();
  const std::vector<double> random = RandomPositive(11, 2000);
  bases.insert(bases.end(), random.begin(), random.end());
  std::vector<double> exponents = {0.0,  -0.0, 1.0,  -1.0, 0.7, 0.9,
                                   1.2,  kInf, -kInf, kNan};
  const std::vector<double> wide = RandomExponents(12, 40);
  for (const double e : wide) exponents.push_back(e / 64.0);
  for (const double b : bases) {
    const double log2_b = Log2S(b);
    for (const double y : exponents) {
      const double want = PowS(b, y);
      const double got = PowFromLog2S(b, log2_b, y);
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(got)) << "base=" << b << " exp=" << y;
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "base=" << b << " exp=" << y;
      }
    }
  }
}

TEST(SimdKernels, FitSlopeMatchesDirectRegression) {
  // A perfectly linear series recovers its slope almost exactly.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(5.0 * i);
    y.push_back(3.25 * x.back() + 7.0);
  }
  EXPECT_NEAR(FitSlope(x.data(), y.data(), x.size()), 3.25, 1e-12);
  // Degenerate x (zero variance) yields 0.
  std::fill(x.begin(), x.end(), 2.0);
  EXPECT_EQ(FitSlope(x.data(), y.data(), x.size()), 0.0);
}

/// FNV-1a over the raw IEEE-754 bits of each output. Every NaN hashes as
/// the canonical quiet NaN: which NaN payload an operation propagates may
/// depend on operand order, which the compiler is free to pick.
class BitHash {
 public:
  void Add(double v) {
    const uint64_t bits = std::isnan(v) ? 0x7FF8000000000000ull
                                        : std::bit_cast<uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

TEST(SimdVmath, ScalarKernelBitsArePinned) {
  // These kernels define the simulator's result bytes: an edit that moves
  // any output bit of PowS/Exp2S/Log2S/ExpS/FitSlope over this fixed grid
  // must fail here, not surface later as a byte diff in the bench outputs.
  // The grid is built from exact arithmetic only (integer steps, ldexp).
  BitHash hash;
  std::vector<double> unary = EdgeInputs();
  for (int i = -4400; i <= 4400; ++i) unary.push_back(i / 4.0 + i * 0x1p-20);
  for (int e = -1074; e <= 1023; e += 7) {
    for (int m = 0; m < 8; ++m) unary.push_back(std::ldexp(1.0 + m / 8.0, e));
  }
  for (const double x : unary) {
    hash.Add(Exp2S(x));
    hash.Add(Log2S(x));
    hash.Add(ExpS(x));
  }
  std::vector<double> bases = EdgeInputs();
  for (int e = -40; e <= 40; ++e) {
    bases.push_back(std::ldexp(1.0 + (e & 7) / 7.0, e));
  }
  std::vector<double> exponents = {0.0,  -0.0, 1.0,   -1.0,
                                   0.5,  kInf, -kInf, kNan};
  for (int i = -24; i <= 24; ++i) exponents.push_back(i / 8.0 + 1.0 / 3.0);
  for (const double b : bases) {
    for (const double y : exponents) hash.Add(PowS(b, y));
  }
  // FitSlope over windows of a noisy ramp, including a degenerate (flat)
  // series and the single-sample window.
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 64; ++i) {
    x.push_back(16.5 * i + (i % 3) * 0.25);
    y.push_back(0.75 * i - ((i * 37) % 11) * 0.125);
  }
  for (size_t n = 1; n <= x.size(); ++n) {
    hash.Add(FitSlope(x.data(), y.data(), n));
    hash.Add(FitSlope(y.data(), x.data(), n));
  }
  const std::vector<double> flat(8, 3.0);
  hash.Add(FitSlope(flat.data(), y.data(), flat.size()));
  EXPECT_EQ(hash.value(), 0x646C325B83CB9464ull)
      << std::hex << "got 0x" << hash.value();
}

}  // namespace
}  // namespace rave::simd
