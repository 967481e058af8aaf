#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace rave::benchmark {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<double> Percentile(std::vector<double> values, double q) {
  const double n = static_cast<double>(values.size());
  // The epsilon keeps 100 samples enough for p90 although 1 - 0.9 rounds
  // below 0.1.
  if (q <= 0.0 || q >= 1.0 || n * (1.0 - q) + 1e-9 < kMinSamplesBeyondCut) {
    return std::nullopt;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * (n - 1.0);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Normalize(double raw, const std::vector<double>& calibration_s) {
  const double calib = Median(calibration_s);
  return calib > 0.0 ? raw * kCalibRefSeconds / calib : raw;
}

namespace {

constexpr size_t kTableEntries = 64 * 1024;  // 256 KiB of uint32_t
constexpr int kCalibIterations = 750'000;
volatile uint64_t g_calibration_sink = 0;

}  // namespace

double CalibrationSeconds() {
  static std::vector<uint32_t> table(kTableEntries);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < kTableEntries; ++i) {
    table[i] = static_cast<uint32_t>(i * 2654435761u);
  }
  // Each index depends on the previous load, so the loop is bound by the
  // latency of a cache-resident table walk, like the simulator's own
  // pointer-heavy event and packet bookkeeping.
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < kCalibIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint32_t& slot = table[(x ^ table[x % kTableEntries]) % kTableEntries];
    slot += static_cast<uint32_t>(x);
    x += slot;
  }
  g_calibration_sink = g_calibration_sink + x;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Digest::Add(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

}  // namespace rave::benchmark
