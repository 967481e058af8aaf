// Metrics-registry unit tests: registry lookup semantics (pointer
// stability, name ordering), snapshot merging, the serialization round trip
// through both the raw byte codec and a full result-cache blob, and
// fail-closed decoding of retired or unknown metric kinds.
#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include "common.h"
#include "runner/result_cache.h"
#include "rtc/session.h"
#include "util/byteio.h"

namespace rave::obs {
namespace {

TEST(MetricsRegistryTest, RepeatLookupsReturnTheSamePointer) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("a.count");
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("a.count"), c);
  EXPECT_EQ(registry.GetCounter("a.count")->value(), 3u);

  Gauge* g = registry.GetGauge("a.gauge");
  g->Set(1.5);
  EXPECT_EQ(registry.GetGauge("a.gauge"), g);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("z.last")->Add();
  registry.GetGauge("m.middle")->Set(2.0);
  registry.GetCounter("a.first")->Add(5);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "a.first");
  EXPECT_EQ(snap.metrics[1].name, "m.middle");
  EXPECT_EQ(snap.metrics[2].name, "z.last");
  EXPECT_EQ(snap.Find("a.first")->counter, 5u);
  EXPECT_EQ(snap.Find("missing"), nullptr);
}

TEST(RegistrySnapshotTest, MergeAddsCountersAndAveragesGauges) {
  MetricsRegistry a;
  a.GetCounter("n")->Add(2);
  a.GetGauge("g")->Set(1.0);
  MetricsRegistry b;
  b.GetCounter("n")->Add(3);
  b.GetGauge("g")->Set(3.0);
  b.GetCounter("only_b")->Add(7);

  RegistrySnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  EXPECT_EQ(merged.Find("n")->counter, 5u);
  EXPECT_DOUBLE_EQ(merged.Find("g")->gauge, 2.0);  // mean of 1 and 3
  EXPECT_EQ(merged.Find("only_b")->counter, 7u);
}

TEST(RegistrySnapshotTest, ByteCodecRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(42);
  registry.GetGauge("g")->Set(-2.25);
  QuantileSketch* h = registry.GetSketch("h");
  for (double v : {0.5, 3.0, 250.0}) h->Record(v);
  const RegistrySnapshot snap = registry.Snapshot();

  ByteWriter w;
  snap.Encode(w);
  const std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes.data(), bytes.size());
  const RegistrySnapshot decoded = RegistrySnapshot::Decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded, snap);
  EXPECT_EQ(decoded.Find("h")->sketch.count(), 3u);
}

// Kind byte 2 is the retired fixed-bucket histogram and 4 was never
// assigned; both must invalidate the reader instead of being parsed with
// another kind's layout.
constexpr uint8_t kRejectedKinds[] = {2, 4};

TEST(RegistrySnapshotTest, DecodeRejectsRetiredAndUnknownKinds) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Add(42);
  ByteWriter w;
  registry.Snapshot().Encode(w);
  const std::vector<uint8_t> bytes = w.Take();
  // Metric count (u64), then the name as length (u64) + bytes, then kind.
  const size_t kind_pos = 8 + 8 + 1;
  ASSERT_EQ(bytes[kind_pos], static_cast<uint8_t>(MetricKind::kCounter));

  for (const uint8_t kind : kRejectedKinds) {
    std::vector<uint8_t> patched = bytes;
    patched[kind_pos] = kind;
    ByteReader r(patched.data(), patched.size());
    const RegistrySnapshot decoded = RegistrySnapshot::Decode(r);
    EXPECT_FALSE(r.ok()) << "kind byte " << int{kind};
    EXPECT_TRUE(decoded.metrics.empty()) << "kind byte " << int{kind};
  }
}

TEST(RegistrySnapshotTest, ResultCacheRejectsRetiredAndUnknownKinds) {
  rtc::SessionConfig config;
  config.duration = TimeDelta::Seconds(3);
  const rtc::SessionResult result = rtc::RunSession(config);
  ASSERT_FALSE(result.metrics.metrics.empty());
  const std::vector<uint8_t> payload =
      runner::ResultCache::EncodeResult(result);

  // The registry snapshot is the payload's tail; locate the first
  // metric's kind byte inside it.
  ByteWriter w;
  result.metrics.Encode(w);
  const size_t tail_start = payload.size() - w.bytes().size();
  const size_t kind_pos =
      tail_start + 8 + 8 + result.metrics.metrics.front().name.size();
  ASSERT_LT(kind_pos, payload.size());
  ASSERT_EQ(payload[kind_pos],
            static_cast<uint8_t>(result.metrics.metrics.front().kind));

  for (const uint8_t kind : kRejectedKinds) {
    std::vector<uint8_t> patched = payload;
    patched[kind_pos] = kind;
    rtc::SessionResult out;
    EXPECT_FALSE(runner::ResultCache::DecodeResult(patched, &out))
        << "kind byte " << int{kind};
  }
}

TEST(RegistrySnapshotTest, SurvivesAResultCacheBlobRoundTrip) {
  rtc::SessionConfig config = bench::DefaultConfig(
      rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
      video::ContentClass::kTalkingHead, TimeDelta::Seconds(12), /*seed=*/7);
  const rtc::SessionResult result = rtc::RunSession(config);
  ASSERT_FALSE(result.metrics.metrics.empty());
  EXPECT_NE(result.metrics.Find("encoder.frames_encoded"), nullptr);
  EXPECT_NE(result.metrics.Find("frame.latency_ms"), nullptr);
  EXPECT_NE(result.metrics.Find("session.events"), nullptr);

  const std::vector<uint8_t> blob = runner::ResultCache::EncodeResult(result);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(blob, &decoded));
  EXPECT_EQ(decoded.metrics, result.metrics);
}

TEST(MetricsScopeTest, InstallsAndRestores) {
  EXPECT_EQ(CurrentMetrics(), nullptr);
  MetricsRegistry registry;
  {
    MetricsScope scope(&registry);
    EXPECT_EQ(CurrentMetrics(), &registry);
    MetricsRegistry inner;
    {
      MetricsScope nested(&inner);
      EXPECT_EQ(CurrentMetrics(), &inner);
    }
    EXPECT_EQ(CurrentMetrics(), &registry);
  }
  EXPECT_EQ(CurrentMetrics(), nullptr);
}

}  // namespace
}  // namespace rave::obs
