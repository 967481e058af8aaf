// QuantileSketch: accuracy against exact order statistics, merge
// determinism (bit-identity under any shard order or grouping), edge
// cases, codec round trips, and fail-closed decoding of corrupt bytes —
// including through the result-cache blob codec.
#include "obs/sketch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "rtc/session.h"
#include "runner/result_cache.h"
#include "util/byteio.h"

namespace rave::obs {
namespace {

std::vector<uint8_t> EncodeBytes(const QuantileSketch& s) {
  ByteWriter w;
  s.Encode(w);
  return w.bytes();
}

QuantileSketch DecodeBytes(const std::vector<uint8_t>& bytes, bool* ok) {
  ByteReader r(bytes);
  QuantileSketch s = QuantileSketch::Decode(r);
  *ok = r.ok() && r.AtEnd();
  return s;
}

/// Exact quantile with the sketch's rank semantics: q=0 -> first sample,
/// q=1 -> last, linear interpolation between adjacent order statistics.
double ExactQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

/// splitmix64: a fixed generator that no standard library can change, so
/// the seeded streams below (and the pinned digest) are the same everywhere.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// `n` finite doubles built from raw bits: magnitudes 2^-24..2^52, so the
/// stream reaches the underflow and overflow buckets, and one in eight
/// negative.
std::vector<double> SpreadStream(uint64_t seed, int n) {
  SplitMix64 rng(seed);
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const uint64_t a = rng.Next();
    const uint64_t b = rng.Next();
    const uint64_t biased_exp = 1023 - 24 + a % 77;
    const uint64_t sign = (b >> 61) == 0 ? 1 : 0;
    const uint64_t mantissa = b & ((uint64_t{1} << 52) - 1);
    samples.push_back(
        std::bit_cast<double>(sign << 63 | biased_exp << 52 | mantissa));
  }
  return samples;
}

/// FNV-1a, 64-bit.
uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t byte : bytes) {
    h ^= byte;
    h *= 0x100000001b3ull;
  }
  return h;
}

QuantileSketch RecordAll(const std::vector<double>& samples) {
  QuantileSketch s;
  for (double v : samples) s.Record(v);
  return s;
}

TEST(QuantileSketchTest, EmptySketch) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
  EXPECT_EQ(s, QuantileSketch{});
}

TEST(QuantileSketchTest, SingleSample) {
  QuantileSketch s;
  s.Record(123.456);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.min(), 123.456);
  EXPECT_EQ(s.max(), 123.456);
  EXPECT_NEAR(s.sum(), 123.456, 1e-5);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(s.Quantile(q), 123.456) << "q=" << q;
  }
}

TEST(QuantileSketchTest, NonFiniteSamplesIgnored) {
  QuantileSketch s;
  s.Record(std::nan(""));
  s.Record(std::numeric_limits<double>::infinity());
  s.Record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.count(), 0u);
  s.Record(10.0);
  s.Record(std::nan(""));
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.Quantile(0.5), 10.0);
}

TEST(QuantileSketchTest, ExtremeValuesLandInOverflowBucketsWithExactMinMax) {
  QuantileSketch s;
  s.Record(0.0);
  s.Record(-5.5);       // negative: underflow bucket, exact min
  s.Record(1e-30);      // below kMinValue: underflow bucket
  s.Record(1e300);      // above kMaxValue: overflow bucket, exact max
  s.Record(50.0);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_EQ(s.min(), -5.5);
  EXPECT_EQ(s.max(), 1e300);
  EXPECT_EQ(s.Quantile(0.0), -5.5);
  EXPECT_EQ(s.Quantile(1.0), 1e300);
  // Every quantile stays inside [min, max].
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, s.min()) << "q=" << q;
    EXPECT_LE(v, s.max()) << "q=" << q;
  }
}

TEST(QuantileSketchTest, RankErrorWithinDocumentedBound) {
  std::mt19937_64 rng(42);
  // Latency-shaped data: lognormal body plus a uniform heavy tail.
  std::lognormal_distribution<double> body(3.5, 0.8);
  std::uniform_real_distribution<double> tail(200.0, 2000.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> samples;
  QuantileSketch s;
  for (int i = 0; i < 50'000; ++i) {
    const double v = coin(rng) < 0.02 ? tail(rng) : body(rng);
    samples.push_back(v);
    s.Record(v);
  }
  EXPECT_EQ(s.count(), samples.size());
  for (double q : {0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99,
                   0.999}) {
    const double exact = ExactQuantile(samples, q);
    const double approx = s.Quantile(q);
    // The sketch answers from the log bucket holding the target rank; the
    // exact interpolated value can sit in an adjacent bucket, so allow two
    // bucket widths of relative error.
    const double bound = 2.0 * QuantileSketch::kRelativeError * exact;
    EXPECT_NEAR(approx, exact, bound) << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeBitIdenticalUnderAnyShardOrderAndGrouping) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(3.0, 1.2);
  constexpr int kShards = 8;
  std::vector<QuantileSketch> shards(kShards);
  for (int i = 0; i < kShards; ++i) {
    // Uneven shard sizes, including an empty shard.
    const int n = i == 3 ? 0 : 100 * (i + 1);
    for (int k = 0; k < n; ++k) shards[static_cast<size_t>(i)].Record(dist(rng));
  }

  // Reference: left fold in natural order.
  QuantileSketch reference;
  for (const QuantileSketch& s : shards) reference.Merge(s);
  const std::vector<uint8_t> reference_bytes = EncodeBytes(reference);

  // Every permutation order (sampled), right fold, and a pairwise tree must
  // produce the same bits.
  std::vector<size_t> order(kShards);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (int perm = 0; perm < 20; ++perm) {
    std::shuffle(order.begin(), order.end(), rng);
    QuantileSketch merged;
    for (size_t i : order) merged.Merge(shards[i]);
    EXPECT_EQ(merged, reference) << "permutation " << perm;
    EXPECT_EQ(EncodeBytes(merged), reference_bytes) << "permutation " << perm;
  }
  {
    QuantileSketch merged;
    for (int i = kShards - 1; i >= 0; --i) {
      merged.Merge(shards[static_cast<size_t>(i)]);
    }
    EXPECT_EQ(EncodeBytes(merged), reference_bytes) << "right fold";
  }
  {
    // Pairwise tree: ((0+1)+(2+3)) + ((4+5)+(6+7)).
    std::vector<QuantileSketch> level = shards;
    while (level.size() > 1) {
      std::vector<QuantileSketch> next;
      for (size_t i = 0; i + 1 < level.size(); i += 2) {
        QuantileSketch pair = level[i];
        pair.Merge(level[i + 1]);
        next.push_back(pair);
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    EXPECT_EQ(EncodeBytes(level[0]), reference_bytes) << "pairwise tree";
  }

  // And the merged shards match recording every sample into one sketch.
  EXPECT_EQ(reference.count(), 100u * (1 + 2 + 3 + 5 + 6 + 7 + 8));
}

TEST(QuantileSketchTest, MergeIntoEmptyAndFromEmpty) {
  QuantileSketch a;
  a.Record(5.0);
  a.Record(7.0);
  QuantileSketch empty;
  QuantileSketch b = a;
  b.Merge(empty);  // no-op
  EXPECT_EQ(b, a);
  QuantileSketch c;
  c.Merge(a);  // copy
  EXPECT_EQ(c, a);
  EXPECT_EQ(EncodeBytes(c), EncodeBytes(a));
}

TEST(QuantileSketchTest, EncodeDecodeRoundTrip) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> dist(2.0, 1.5);
  QuantileSketch s;
  for (int i = 0; i < 5000; ++i) s.Record(dist(rng));
  s.Record(-3.0);
  s.Record(1e200);

  bool ok = false;
  const std::vector<uint8_t> bytes = EncodeBytes(s);
  const QuantileSketch back = DecodeBytes(bytes, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(back, s);
  EXPECT_EQ(EncodeBytes(back), bytes);

  // Empty sketch round trip.
  const std::vector<uint8_t> empty_bytes = EncodeBytes(QuantileSketch{});
  const QuantileSketch empty_back = DecodeBytes(empty_bytes, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(empty_back, QuantileSketch{});
}

TEST(QuantileSketchTest, TruncatedBytesFailClosed) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.Record(static_cast<double>(i));
  const std::vector<uint8_t> bytes = EncodeBytes(s);
  for (size_t cut : {size_t{0}, size_t{7}, size_t{20}, bytes.size() - 1}) {
    bool ok = true;
    (void)DecodeBytes(std::vector<uint8_t>(bytes.begin(),
                                           bytes.begin() +
                                               static_cast<std::ptrdiff_t>(cut)),
                      &ok);
    EXPECT_FALSE(ok) << "cut at " << cut;
  }
}

TEST(QuantileSketchTest, StructurallyInvalidBytesFailClosed) {
  QuantileSketch s;
  for (int i = 1; i <= 100; ++i) s.Record(static_cast<double>(i));
  const std::vector<uint8_t> bytes = EncodeBytes(s);

  // Bucket counts no longer sum to the total.
  std::vector<uint8_t> bad_count = bytes;
  bad_count[0] ^= 0x01;  // count_ low byte
  bool ok = true;
  (void)DecodeBytes(bad_count, &ok);
  EXPECT_FALSE(ok) << "count mismatch must invalidate the reader";

  // Out-of-range bucket index (the first pair's U32 index sits right after
  // count/sum/min/max/nonzero = 8+8+8+8+8+4 bytes).
  std::vector<uint8_t> bad_index = bytes;
  bad_index[44 + 3] = 0xff;
  ok = true;
  (void)DecodeBytes(bad_index, &ok);
  EXPECT_FALSE(ok) << "out-of-range bucket index must invalidate the reader";

  // Unordered min/max.
  std::vector<uint8_t> bad_minmax = bytes;
  std::swap_ranges(bad_minmax.begin() + 24, bad_minmax.begin() + 32,
                   bad_minmax.begin() + 32);  // swap min and max
  ok = true;
  (void)DecodeBytes(bad_minmax, &ok);
  EXPECT_FALSE(ok) << "min > max must invalidate the reader";
}

TEST(QuantileSketchTest, RegistrySketchMergesAndSurvivesSnapshotCodec) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetSketch("frame.latency_ms")->Record(10.0);
  a.GetSketch("frame.latency_ms")->Record(30.0);
  b.GetSketch("frame.latency_ms")->Record(20.0);

  RegistrySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const MetricSnapshot* m = merged.Find("frame.latency_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kSketch);
  EXPECT_EQ(m->sketch.count(), 3u);
  EXPECT_EQ(m->sketch.min(), 10.0);
  EXPECT_EQ(m->sketch.max(), 30.0);
  EXPECT_EQ(m->Percentile(0.0), 10.0);

  ByteWriter w;
  merged.Encode(w);
  ByteReader r(w.bytes());
  const RegistrySnapshot back = RegistrySnapshot::Decode(r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  const MetricSnapshot* back_m = back.Find("frame.latency_ms");
  ASSERT_NE(back_m, nullptr);
  EXPECT_EQ(back_m->sketch, m->sketch);
}

TEST(QuantileSketchTest, CorruptCacheBlobFailsDecodeInsteadOfCrashing) {
  rtc::SessionConfig config;
  config.duration = TimeDelta::Seconds(3);
  const rtc::SessionResult result = rtc::RunSession(config);
  ASSERT_NE(result.metrics.Find("frame.latency_ms"), nullptr);

  const std::vector<uint8_t> payload = runner::ResultCache::EncodeResult(result);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(payload, &decoded));
  const MetricSnapshot* m = decoded.metrics.Find("frame.latency_ms");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kSketch);
  EXPECT_GT(m->sketch.count(), 0u);

  // The registry snapshot (sketches included) sits at the payload tail.
  // Flipping bytes there must never crash, and structural damage must be
  // rejected so the cache recomputes. Some flips only perturb float values
  // and still decode; require that a healthy majority fail closed.
  const size_t tail_start = payload.size() - payload.size() / 8;
  int rejected = 0;
  int attempts = 0;
  for (size_t pos = tail_start; pos < payload.size(); pos += 13) {
    std::vector<uint8_t> corrupt = payload;
    corrupt[pos] ^= 0xa5;
    rtc::SessionResult out;
    if (!runner::ResultCache::DecodeResult(corrupt, &out)) ++rejected;
    ++attempts;
  }
  EXPECT_GT(attempts, 10);
  EXPECT_GT(rejected, 0) << "no tail corruption was ever detected";

  // Truncation anywhere in the sketch region always fails.
  std::vector<uint8_t> truncated(payload.begin(),
                                 payload.end() - 5);
  rtc::SessionResult out;
  EXPECT_FALSE(runner::ResultCache::DecodeResult(truncated, &out));
}

// The window a sketch stores is fixed by its exact extremes, so the encoded
// bytes cannot depend on how the samples reached it: in order, reversed, or
// split into random groups merged in random order.
TEST(QuantileSketchTest, EncodeBytesIndependentOfRecordAndMergeOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> ascending;
  for (int i = 0; i < 2000; ++i) ascending.push_back(0.37 * i);
  std::vector<double> with_non_finite = SpreadStream(11, 500);
  for (size_t i = 0; i < with_non_finite.size(); i += 7) {
    with_non_finite[i] = i % 3 == 0 ? nan : (i % 3 == 1 ? inf : -inf);
  }
  const std::vector<std::pair<const char*, std::vector<double>>> streams = {
      {"spread", SpreadStream(1, 3000)},
      {"underflow only", {1e-9, 0.0, -0.0, 3e-6, 1e-300}},
      {"overflow only", {1e15, 3e17, 2.81474976710656e14, 1e300}},
      {"negative only", {-1.0, -250.0, -1e-3, -7e20}},
      {"non-finite mixed in", with_non_finite},
      {"only non-finite", {nan, inf, -inf}},
      {"single sample", {42.5}},
      {"single underflow", {-3.0}},
      {"single overflow", {1e200}},
      {"constant", std::vector<double>(300, 7.25)},
      {"ascending", ascending},
  };
  std::mt19937_64 rng(5);
  for (const auto& [name, samples] : streams) {
    SCOPED_TRACE(name);
    const QuantileSketch reference = RecordAll(samples);
    const std::vector<uint8_t> reference_bytes = EncodeBytes(reference);

    const std::vector<double> reversed(samples.rbegin(), samples.rend());
    EXPECT_EQ(RecordAll(reversed), reference);
    EXPECT_EQ(EncodeBytes(RecordAll(reversed)), reference_bytes) << "reversed";

    for (int split = 0; split < 8; ++split) {
      const size_t num_groups = 1 + rng() % 6;
      std::vector<QuantileSketch> groups(num_groups);
      for (double v : samples) groups[rng() % num_groups].Record(v);
      std::shuffle(groups.begin(), groups.end(), rng);
      QuantileSketch merged;
      for (const QuantileSketch& g : groups) merged.Merge(g);
      EXPECT_EQ(merged, reference) << "split " << split;
      EXPECT_EQ(EncodeBytes(merged), reference_bytes) << "split " << split;
    }

    bool ok = false;
    const QuantileSketch back = DecodeBytes(reference_bytes, &ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(back, reference);
    EXPECT_EQ(EncodeBytes(back), reference_bytes);
  }
}

// The wire format behind cache blobs and BENCH_suite.json's "sketches"
// section: one seeded sketch's Encode bytes, pinned by digest.
TEST(QuantileSketchTest, SeededSketchEncodeDigestIsPinned) {
  const QuantileSketch s = RecordAll(SpreadStream(2026, 4096));
  EXPECT_EQ(s.count(), 4096u);
  EXPECT_EQ(Fnv1a64(EncodeBytes(s)), 0x7eb73013db3a56ebull);
}

// Every sample lies in [BucketIndex(min), BucketIndex(max)], so a bucket
// outside that window is corruption even when the layout has such a bucket.
TEST(QuantileSketchTest, DecodeRejectsBucketOutsideMinMaxWindow) {
  QuantileSketch s;
  for (int i = 10; i <= 100; ++i) s.Record(static_cast<double>(i));
  const std::vector<uint8_t> bytes = EncodeBytes(s);
  // Pairs of (U32 index, U64 count) follow the 44-byte header; the first
  // holds the min's bucket, the last the max's.
  const auto index_at = [&bytes](size_t pos) {
    uint32_t index = 0;
    for (int k = 3; k >= 0; --k) index = index << 8 | bytes[pos + k];
    return index;
  };
  const auto with_index_at = [&bytes](size_t pos, uint32_t index) {
    std::vector<uint8_t> out = bytes;
    for (int k = 0; k < 4; ++k) out[pos + k] = static_cast<uint8_t>(index >> (8 * k));
    return out;
  };
  const size_t first = 44;
  const size_t last = bytes.size() - 12;
  ASSERT_GT(index_at(first), 0u);
  ASSERT_LT(index_at(last) + 1,
            static_cast<uint32_t>(QuantileSketch::kTotalBuckets));

  for (const auto& [name, corrupt] :
       {std::pair{"below the min's bucket",
                  with_index_at(first, index_at(first) - 1)},
        std::pair{"above the max's bucket",
                  with_index_at(last, index_at(last) + 1)}}) {
    SCOPED_TRACE(name);
    ByteReader r(corrupt);
    const QuantileSketch decoded = QuantileSketch::Decode(r);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(decoded, QuantileSketch{});
  }
}

}  // namespace
}  // namespace rave::obs
