#include "obs/sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/byteio.h"

namespace rave::obs {

namespace {

/// Fixed-point scale for the deterministic sum: 2^20 units per 1.0.
constexpr double kSumScale = 0x1p20;
/// Per-sample clamp on the scaled contribution, so converting the double
/// product to __int128 is always in range (no UB on absurd inputs).
constexpr double kSumClampUnits = 0x1p100;

}  // namespace

int QuantileSketch::BucketIndex(double v) {
  if (!(v >= kMinValue)) return 0;                     // underflow, 0, negative
  if (v >= kMaxValue) return kNumLogBuckets + 1;       // overflow
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int biased_exp = static_cast<int>(bits >> 52);
  const int sub = static_cast<int>((bits >> (52 - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return 1 + (biased_exp - kMinBiasedExp) * kSubBuckets + sub;
}

double QuantileSketch::BucketLowerBound(int i) {
  const int idx = i - 1;
  const uint64_t biased_exp =
      static_cast<uint64_t>(kMinBiasedExp + idx / kSubBuckets);
  const uint64_t sub = static_cast<uint64_t>(idx % kSubBuckets);
  return std::bit_cast<double>((biased_exp << 52) |
                               (sub << (52 - kSubBucketBits)));
}

void QuantileSketch::Record(double v) {
  if (!std::isfinite(v)) return;
  if (count_ == 0) {
    buckets_.assign(kTotalBuckets, 0);
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  const double units =
      std::clamp(v * kSumScale, -kSumClampUnits, kSumClampUnits);
  sum_fp_ += static_cast<__int128>(units);
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_fp_ += other.sum_fp_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double QuantileSketch::sum() const {
  return static_cast<double>(sum_fp_) / kSumScale;
}

double QuantileSketch::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Rank of the target sample, 1-based: q=0 -> first sample, q=1 -> last.
  const double rank = q * static_cast<double>(count_ - 1) + 1.0;
  uint64_t cumulative = 0;
  for (int i = 0; i < kTotalBuckets; ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    const double bucket_first = static_cast<double>(cumulative) + 1.0;
    cumulative += in_bucket;
    if (rank > static_cast<double>(cumulative)) continue;
    const double lower = i == 0 ? min_ : BucketLowerBound(i);
    const double upper =
        i == kTotalBuckets - 1 ? max_ : BucketLowerBound(i + 1);
    const double lo = std::clamp(lower, min_, max_);
    const double hi = std::clamp(upper, min_, max_);
    if (in_bucket == 1 || hi <= lo) return hi;
    const double frac =
        (rank - bucket_first) / static_cast<double>(in_bucket - 1);
    return lo + frac * (hi - lo);
  }
  return max_;
}

void QuantileSketch::Encode(ByteWriter& w) const {
  w.U64(count_);
  w.U64(static_cast<uint64_t>(static_cast<unsigned __int128>(sum_fp_) >> 64));
  w.U64(static_cast<uint64_t>(static_cast<unsigned __int128>(sum_fp_)));
  w.F64(min_);
  w.F64(max_);
  uint32_t nonzero = 0;
  for (uint64_t c : buckets_) nonzero += c != 0 ? 1 : 0;
  w.U32(nonzero);
  for (int i = 0; i < static_cast<int>(buckets_.size()); ++i) {
    if (buckets_[static_cast<size_t>(i)] == 0) continue;
    w.U32(static_cast<uint32_t>(i));
    w.U64(buckets_[static_cast<size_t>(i)]);
  }
}

QuantileSketch QuantileSketch::Decode(ByteReader& r) {
  QuantileSketch s;
  s.count_ = r.U64();
  const uint64_t sum_hi = r.U64();
  const uint64_t sum_lo = r.U64();
  s.sum_fp_ = static_cast<__int128>(
      (static_cast<unsigned __int128>(sum_hi) << 64) | sum_lo);
  s.min_ = r.F64();
  s.max_ = r.F64();
  const uint32_t nonzero = r.U32();
  if (!r.ok()) return QuantileSketch{};
  if (s.count_ > 0) s.buckets_.assign(kTotalBuckets, 0);
  uint64_t total = 0;
  int prev_index = -1;
  for (uint32_t i = 0; i < nonzero && r.ok(); ++i) {
    const uint32_t index = r.U32();
    const uint64_t bucket_count = r.U64();
    if (index >= kTotalBuckets || static_cast<int>(index) <= prev_index ||
        bucket_count == 0 || s.count_ == 0) {
      r.Invalidate();
      return QuantileSketch{};
    }
    prev_index = static_cast<int>(index);
    s.buckets_[index] = bucket_count;
    total += bucket_count;
  }
  if (!r.ok()) return QuantileSketch{};
  // Structural validation: bucket counts must account for every sample, an
  // empty sketch must carry no state, and min/max must be finite and
  // ordered. Anything else is corruption; fail the stream.
  const bool empty_ok =
      s.count_ != 0 || (s.sum_fp_ == 0 && s.min_ == 0.0 && s.max_ == 0.0);
  const bool extremes_ok =
      s.count_ == 0 ||
      (std::isfinite(s.min_) && std::isfinite(s.max_) && s.min_ <= s.max_);
  if (total != s.count_ || !empty_ok || !extremes_ok) {
    r.Invalidate();
    return QuantileSketch{};
  }
  return s;
}

bool QuantileSketch::operator==(const QuantileSketch& other) const {
  return count_ == other.count_ && sum_fp_ == other.sum_fp_ &&
         min_ == other.min_ && max_ == other.max_ &&
         buckets_ == other.buckets_;
}

}  // namespace rave::obs
