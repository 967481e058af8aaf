// Deterministic, mergeable quantile sketch.
//
// The suite-path aggregation problem: percentile claims (p95/p99 frame
// latency) over a sweep used to require materializing every per-frame
// latency in one vector — O(sessions x frames) memory, and impossible to
// shard. A QuantileSketch is the streaming replacement: a fixed-layout
// log-bucket histogram (HdrHistogram/DDSketch family) with exact count,
// fixed-point sum, and exact min/max. Its memory is O(occupied range): it
// stores one counter per bucket from the min's bucket to the max's, never
// more than kTotalBuckets, however many samples it absorbed.
//
// Layout (compile-time constants, identical in every sketch — there is no
// per-instance configuration, which is what makes any two sketches
// mergeable):
//   * bucket 0                       — underflow: v < 2^-16 (incl. 0 and
//                                      negatives)
//   * buckets 1..kNumLogBuckets      — log-spaced: 32 sub-buckets per
//                                      power of two, covering [2^-16, 2^48)
//   * bucket kNumLogBuckets + 1      — overflow: v >= 2^48
// The log-bucket index of a positive double is a pure integer function of
// its IEEE-754 bits (biased exponent + top 5 mantissa bits), so bucketing
// never depends on floating-point rounding modes or evaluation order.
//
// Determinism contract: Merge() adds integer bucket counts, adds the
// 128-bit fixed-point sums, and takes min/max — all commutative and
// associative — so merging any permutation of shards, in any grouping,
// yields a bit-identical sketch. The sum is accumulated in fixed point
// (2^-20 units) precisely so that no floating-point addition order can
// leak into the merged state; the quantization error is <= 2^-20 per
// sample and sum() documents it.
//
// Accuracy: Quantile(q) returns a value inside the bucket holding the true
// order statistic (linear interpolation by rank inside the bucket, clamped
// to [min, max]), so for samples inside the log range the relative error is
// bounded by the bucket width: kRelativeError = 2^(1/32) - 1 ~= 2.2%.
// q = 0 and q = 1 return the exact min/max. Non-finite samples are ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rave {
class ByteReader;
class ByteWriter;
}  // namespace rave

namespace rave::obs {

class QuantileSketch {
 public:
  /// Sub-bucket resolution: 2^5 = 32 log buckets per power of two.
  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Smallest / one-past-largest value resolved by the log range; outside
  /// values land in the underflow/overflow buckets (min/max stay exact).
  static constexpr double kMinValue = 0x1p-16;  // 2^-16
  static constexpr double kMaxValue = 0x1p48;   // 2^48
  static constexpr int kMinBiasedExp = 1023 - 16;
  static constexpr int kMaxBiasedExp = 1023 + 47;
  static constexpr int kNumLogBuckets =
      (kMaxBiasedExp - kMinBiasedExp + 1) * kSubBuckets;  // 2048
  /// Buckets in the fixed layout: underflow + log buckets + overflow.
  static constexpr int kTotalBuckets = kNumLogBuckets + 2;
  /// Worst-case relative error of Quantile() for samples in
  /// [kMinValue, kMaxValue): one bucket width, 2^(1/32) - 1.
  static constexpr double kRelativeError = 0.0219;  // > 2^(1/32) - 1

  /// Adds one sample. Ignores NaN/inf (they would poison sum and min/max)
  /// and records -0.0 as +0.0 (so min/max cannot depend on sample order).
  void Record(double v);

  /// Adds `other` into this sketch. Commutative, associative, and
  /// bit-identical under any merge order or grouping.
  void Merge(const QuantileSketch& other);

  uint64_t count() const { return count_; }
  /// Sum of samples, quantized to 2^-20 per sample (see file comment).
  double sum() const;
  /// Exact extremes; 0 when empty.
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Value at quantile q in [0,1] (clamped): q=0 -> min, q=1 -> max, linear
  /// interpolation by rank inside the winning bucket. 0 when empty.
  double Quantile(double q) const;

  /// Sparse serialization: only non-zero buckets are written, so encoded
  /// size is O(distinct magnitudes), typically well under 1 KB.
  void Encode(ByteWriter& w) const;
  /// Inverse of Encode. On truncated bytes or a structurally invalid
  /// payload (unsorted bucket indices, an index outside
  /// [BucketIndex(min), BucketIndex(max)], bucket counts that do not sum to
  /// the total) the reader is invalidated, so blob decoding fails closed and
  /// the cache recomputes.
  static QuantileSketch Decode(ByteReader& r);

  bool operator==(const QuantileSketch& other) const;

 private:
  /// Dense bucket index for a finite sample.
  static int BucketIndex(double v);
  /// Lower bound of dense bucket i (i in [1, kNumLogBuckets + 1]); the
  /// upper bound of bucket i is BucketLowerBound(i + 1).
  static double BucketLowerBound(int i);

  /// Dense index of the window's last bucket.
  int last_index() const {
    return offset_ + static_cast<int>(buckets_.size()) - 1;
  }
  /// Grows the window to cover dense buckets [first, last].
  void Widen(int first, int last);

  /// Counts of dense buckets [offset_, offset_ + buckets_.size()). The window
  /// is exactly [BucketIndex(min_), BucketIndex(max_)] (BucketIndex is
  /// monotone, so every sample lands inside it), and empty iff count_ == 0;
  /// the exact extremes fix it, so comparison stays value-based.
  std::vector<uint64_t> buckets_;
  int offset_ = 0;
  uint64_t count_ = 0;
  /// Fixed-point (2^-20 units) sum in 128 bits; addition is associative,
  /// so merge order cannot change a bit. Per-sample contributions are
  /// clamped to +/-2^100 units, far beyond any metric this codebase emits.
  __int128 sum_fp_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rave::obs
