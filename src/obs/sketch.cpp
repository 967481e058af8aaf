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

void QuantileSketch::Widen(int first, int last) {
  if (first < offset_) {
    buckets_.insert(buckets_.begin(), static_cast<size_t>(offset_ - first), 0);
    offset_ = first;
  }
  if (last > last_index()) {
    buckets_.resize(static_cast<size_t>(last - offset_ + 1), 0);
  }
}

void QuantileSketch::Record(double v) {
  if (!std::isfinite(v)) return;
  // -0.0 == +0.0, so which zero became min/max would depend on arrival
  // order (and show in Encode); record both as +0.0.
  if (v == 0.0) v = 0.0;
  const int index = BucketIndex(v);
  if (count_ == 0) {
    buckets_.assign(1, 0);
    offset_ = index;
    min_ = max_ = v;
  } else if (v < min_) {
    min_ = v;
    Widen(index, index);
  } else if (max_ < v) {
    max_ = v;
    Widen(index, index);
  }
  ++count_;
  const double units =
      std::clamp(v * kSumScale, -kSumClampUnits, kSumClampUnits);
  sum_fp_ += static_cast<__int128>(units);
  ++buckets_[static_cast<size_t>(index - offset_)];
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  Widen(other.offset_, other.last_index());
  const size_t shift = static_cast<size_t>(other.offset_ - offset_);
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[shift + i] += other.buckets_[i];
  }
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
  for (int i = offset_; i <= last_index(); ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i - offset_)];
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
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    w.U32(static_cast<uint32_t>(offset_ + static_cast<int>(i)));
    w.U64(buckets_[i]);
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
  // Structural validation: an empty sketch must carry no state, min/max
  // must be finite and ordered, every bucket index must lie in the window
  // they fix, and bucket counts must account for every sample. Anything
  // else is corruption; fail the stream.
  const auto fail = [&r] {
    r.Invalidate();
    return QuantileSketch{};
  };
  if (s.count_ == 0) {
    if (s.sum_fp_ != 0 || s.min_ != 0.0 || s.max_ != 0.0 || nonzero != 0) {
      return fail();
    }
    return s;
  }
  if (!std::isfinite(s.min_) || !std::isfinite(s.max_) || s.min_ > s.max_) {
    return fail();
  }
  s.offset_ = BucketIndex(s.min_);
  s.buckets_.assign(static_cast<size_t>(BucketIndex(s.max_) - s.offset_ + 1),
                    0);
  uint64_t total = 0;
  int prev_index = s.offset_ - 1;
  for (uint32_t i = 0; i < nonzero && r.ok(); ++i) {
    const uint32_t index = r.U32();
    const uint64_t bucket_count = r.U64();
    if (index > static_cast<uint32_t>(s.last_index()) ||
        static_cast<int>(index) <= prev_index || bucket_count == 0) {
      return fail();
    }
    prev_index = static_cast<int>(index);
    s.buckets_[static_cast<size_t>(prev_index - s.offset_)] = bucket_count;
    total += bucket_count;
  }
  if (!r.ok()) return QuantileSketch{};
  if (total != s.count_) return fail();
  return s;
}

bool QuantileSketch::operator==(const QuantileSketch& other) const {
  return count_ == other.count_ && sum_fp_ == other.sum_fp_ &&
         min_ == other.min_ && max_ == other.max_ &&
         offset_ == other.offset_ && buckets_ == other.buckets_;
}

}  // namespace rave::obs
