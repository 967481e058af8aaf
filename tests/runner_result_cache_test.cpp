// ResultCache correctness: blob codec round-trips bit-exactly, every flavor
// of disk corruption degrades to a recompute (never a crash, never a wrong
// result), and concurrent writers sharing one cache directory stay safe.
#include "runner/result_cache.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "runner/session_key.h"

namespace rave {
namespace {

namespace fs = std::filesystem;

rtc::SessionConfig SmallConfig(uint64_t seed = 3,
                               rtc::Scheme scheme = rtc::Scheme::kAdaptive) {
  auto config = bench::DefaultConfig(scheme, bench::DropTrace(0.5),
                                     video::ContentClass::kTalkingHead,
                                     TimeDelta::Seconds(4), seed);
  return config;
}

/// Fresh empty scratch directory under the gtest temp dir.
std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rave_cache_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Total bytes of the blobs in `dir`.
uint64_t BlobBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".rrc") total += entry.file_size();
  }
  return total;
}

void ExpectBitIdentical(const rtc::SessionResult& a,
                        const rtc::SessionResult& b) {
  // The codec serializes every field bit-exactly, so encoded equality is
  // full-result equality — and it is exactly what the disk tier preserves.
  EXPECT_EQ(runner::ResultCache::EncodeResult(a),
            runner::ResultCache::EncodeResult(b));
}

void ExpectBitIdentical(const rtc::SharedSessionResult& a,
                        const rtc::SharedSessionResult& b) {
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ExpectBitIdentical(*a, *b);
}

TEST(ResultCacheCodecTest, RoundTripsARealSessionBitExactly) {
  auto config = SmallConfig();
  config.enable_fec = true;  // exercise protection/FEC summary fields
  config.faults =
      fault::FaultPlan().Outage(Timestamp::Seconds(2), TimeDelta::Millis(500));
  const rtc::SessionResult original = rtc::RunSession(config);
  ASSERT_FALSE(original.frames.empty());
  ASSERT_FALSE(original.timeseries.empty());

  const std::vector<uint8_t> payload =
      runner::ResultCache::EncodeResult(original);
  rtc::SessionResult decoded;
  ASSERT_TRUE(runner::ResultCache::DecodeResult(payload, &decoded));

  EXPECT_EQ(decoded.scheme_name, original.scheme_name);
  EXPECT_EQ(decoded.events_executed, original.events_executed);
  EXPECT_EQ(decoded.frames.size(), original.frames.size());
  EXPECT_EQ(decoded.timeseries.size(), original.timeseries.size());
  EXPECT_EQ(decoded.summary.frames_captured, original.summary.frames_captured);
  EXPECT_EQ(decoded.summary.latency_p95_ms, original.summary.latency_p95_ms);
  EXPECT_EQ(decoded.summary.encoded_ssim_mean,
            original.summary.encoded_ssim_mean);
  EXPECT_EQ(decoded.link_stats.packets_delivered,
            original.link_stats.packets_delivered);
  EXPECT_EQ(decoded.breaker_stats.opens, original.breaker_stats.opens);
  for (size_t i = 0; i < original.frames.size(); ++i) {
    ASSERT_EQ(decoded.frames[i].frame_id, original.frames[i].frame_id);
    ASSERT_EQ(decoded.frames[i].fate, original.frames[i].fate);
    ASSERT_EQ(decoded.frames[i].ssim, original.frames[i].ssim);
    ASSERT_EQ(decoded.frames[i].complete_time,
              original.frames[i].complete_time);
  }
  // Re-encoding the decoded result must reproduce the payload byte for byte.
  EXPECT_EQ(runner::ResultCache::EncodeResult(decoded), payload);
}

TEST(ResultCacheCodecTest, DecodeRejectsTruncationAtEveryLength) {
  const rtc::SessionResult result = rtc::RunSession(SmallConfig());
  const std::vector<uint8_t> payload =
      runner::ResultCache::EncodeResult(result);
  rtc::SessionResult out;
  // Every strict prefix must be rejected cleanly (no crash, no partial OK).
  // Step through lengths to keep the test fast on big payloads.
  for (size_t len = 0; len < payload.size();
       len += (payload.size() / 257) + 1) {
    const std::vector<uint8_t> truncated(payload.begin(),
                                         payload.begin() + len);
    EXPECT_FALSE(runner::ResultCache::DecodeResult(truncated, &out))
        << "accepted a " << len << "-byte prefix";
  }
  // Trailing garbage is rejected too (AtEnd check).
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(runner::ResultCache::DecodeResult(padded, &out));
}

TEST(ResultCacheTest, MemoryTierHitsWithoutDisk) {
  runner::ResultCache cache;  // no dir: memory tier only
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);

  int computes = 0;
  auto compute = [&] {
    ++computes;
    return rtc::RunSession(config);
  };
  const auto first = cache.GetOrCompute(key, compute);
  const auto second = cache.GetOrCompute(key, compute);
  EXPECT_EQ(computes, 1);
  // A hit shares the computed entry; it is never a copy.
  EXPECT_EQ(first.get(), second.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.computes, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.stores, 0u);  // no disk tier configured
}

TEST(ResultCacheTest, DiskTierSurvivesProcessRestart) {
  const std::string dir = FreshDir("restart");
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };

  rtc::SharedSessionResult first;
  {
    runner::ResultCache cache({dir});
    first = cache.GetOrCompute(key, compute);
    EXPECT_EQ(cache.stats().computes, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);
  }
  {
    // A new instance stands in for a new process sharing the directory.
    runner::ResultCache cache({dir});
    const auto second = cache.GetOrCompute(key, [&]() -> rtc::SessionResult {
      ADD_FAILURE() << "disk hit expected; compute ran";
      return rtc::RunSession(config);
    });
    ExpectBitIdentical(first, second);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
    EXPECT_EQ(cache.stats().computes, 0u);
    EXPECT_GT(cache.stats().saved_compute_us, 0u);
  }
  fs::remove_all(dir);
}

// Corruption matrix: flip/truncate/garble the one blob in the directory; a
// fresh cache must recompute (miss), count the blob as corrupt, and heal the
// file by overwriting it.
TEST(ResultCacheTest, CorruptedBlobsAreMissesNotCrashes) {
  const std::string dir = FreshDir("corrupt");
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };

  rtc::SharedSessionResult reference;
  {
    runner::ResultCache cache({dir});
    reference = cache.GetOrCompute(key, compute);
  }
  const std::string blob = dir + "/" + key.ToHex() + ".rrc";
  ASSERT_TRUE(fs::exists(blob));
  std::vector<char> pristine;
  {
    std::ifstream in(blob, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 64u);

  constexpr size_t kNoFlip = SIZE_MAX;
  struct Corruption {
    const char* name;
    size_t size;     // length of the corrupted file
    size_t flip_at;  // byte to XOR, or kNoFlip
  };
  const size_t full = pristine.size();
  const Corruption corruptions[] = {
      {"bad magic", full, 0},
      {"bad header", full, 24},
      {"bad payload", full, full - 9},
      {"truncated header", 16, kNoFlip},
      {"truncated payload", full / 2, kNoFlip},
      {"one-byte file", 1, kNoFlip},
      {"empty file", 0, kNoFlip},
      {"bytes appended", full + 16, kNoFlip},
  };
  for (const Corruption& c : corruptions) {
    SCOPED_TRACE(c.name);
    std::vector<char> bytes = pristine;
    bytes.resize(c.size);  // appended bytes are zeros
    if (c.flip_at != kNoFlip) {
      bytes[c.flip_at] = static_cast<char>(bytes[c.flip_at] ^ 0x5a);
    }
    {
      std::ofstream out(blob, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    runner::ResultCache cache({dir});
    const auto recomputed = cache.GetOrCompute(key, compute);
    ExpectBitIdentical(reference, recomputed);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().computes, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);  // blob healed
  }

  // After the last heal the blob must be valid again.
  runner::ResultCache cache({dir});
  cache.GetOrCompute(key, compute);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  fs::remove_all(dir);
}

// A blob written under another kBlobVersion or kSimFingerprint is intact but
// stale: it is recomputed and overwritten like a corrupt one, but counted in
// `stale`, so a version migration does not read as disk damage.
void ExpectStaleBlobRecomputed(const char* dir_name, size_t field_offset,
                               size_t field_size, uint64_t stale_value) {
  const std::string dir = FreshDir(dir_name);
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };

  rtc::SharedSessionResult reference;
  {
    runner::ResultCache cache({dir});
    reference = cache.GetOrCompute(key, compute);
  }
  const std::string blob = dir + "/" + key.ToHex() + ".rrc";
  std::vector<char> bytes;
  {
    std::ifstream in(blob, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), field_offset + field_size);
  // Header fields are little-endian.
  for (size_t i = 0; i < field_size; ++i) {
    bytes[field_offset + i] = static_cast<char>(stale_value >> (8 * i));
  }
  {
    std::ofstream out(blob, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  {
    runner::ResultCache cache({dir});
    ExpectBitIdentical(reference, cache.GetOrCompute(key, compute));
    EXPECT_EQ(cache.stats().stale, 1u);
    EXPECT_EQ(cache.stats().corrupt, 0u);
    EXPECT_EQ(cache.stats().computes, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);  // blob healed
  }
  runner::ResultCache cache({dir});
  cache.GetOrCompute(key, compute);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().stale, 0u);
  fs::remove_all(dir);
}

TEST(ResultCacheTest, OlderBlobVersionIsStaleNotCorrupt) {
  // Layout: magic (4 B), version (u32 at 4), fingerprint (u64 at 8).
  ExpectStaleBlobRecomputed("stale_version", 4, 4, runner::kBlobVersion - 1);
}

TEST(ResultCacheTest, OtherSimFingerprintIsStaleNotCorrupt) {
  ExpectStaleBlobRecomputed("stale_fingerprint", 8, 8,
                            runner::kSimFingerprint - 1);
}

// Something other than a regular file at the blob path is a counted miss:
// no throw, no hang, no allocation sized from a bogus length.
TEST(ResultCacheTest, NonRegularFileAtBlobPathIsAMiss) {
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };
  const rtc::SessionResult reference = rtc::RunSession(config);

  struct Squatter {
    const char* name;
    bool (*make)(const std::string& path);
  };
  const Squatter squatters[] = {
      {"directory",
       [](const std::string& path) { return fs::create_directory(path); }},
      // Opening a FIFO for reading would block until a writer appears.
      {"fifo",
       [](const std::string& path) { return ::mkfifo(path.c_str(), 0600) == 0; }},
  };
  for (const Squatter& s : squatters) {
    SCOPED_TRACE(s.name);
    const std::string dir = FreshDir(std::string("squat_") + s.name);
    fs::create_directories(dir);
    ASSERT_TRUE(s.make(dir + "/" + key.ToHex() + ".rrc"));

    runner::ResultCache cache({dir});
    rtc::SharedSessionResult recomputed;
    EXPECT_NO_THROW(recomputed = cache.GetOrCompute(key, compute));
    ASSERT_NE(recomputed, nullptr);
    ExpectBitIdentical(reference, *recomputed);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_EQ(cache.stats().computes, 1u);
    fs::remove_all(dir);
  }
}

TEST(ResultCacheTest, BlobLargerThanCapIsAMiss) {
  const std::string dir = FreshDir("oversize");
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };
  rtc::SharedSessionResult reference;
  {
    runner::ResultCache cache({dir});
    reference = cache.GetOrCompute(key, compute);
  }
  runner::ResultCache::Options options;
  options.dir = dir;
  options.max_disk_bytes = BlobBytes(dir) - 1;
  runner::ResultCache cache(options);
  ExpectBitIdentical(reference, cache.GetOrCompute(key, compute));
  EXPECT_EQ(cache.stats().corrupt, 1u);
  EXPECT_EQ(cache.stats().computes, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  fs::remove_all(dir);
}

TEST(ResultCacheTest, UnwritableDirDegradesToMemoryTier) {
  // A path under a regular file can never be created.
  const std::string file = ::testing::TempDir() + "/rave_cache_blocker";
  { std::ofstream out(file); }
  runner::ResultCache cache({file + "/sub"});
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);
  auto compute = [&] { return rtc::RunSession(config); };
  const auto first = cache.GetOrCompute(key, compute);
  const auto second = cache.GetOrCompute(key, compute);
  ExpectBitIdentical(first, second);
  EXPECT_EQ(cache.stats().computes, 1u);
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  fs::remove(file);
}

TEST(ResultCacheTest, InflightDedupUnderConcurrency) {
  runner::ResultCache cache;
  const auto config = SmallConfig();
  const runner::SessionKey key = runner::ComputeSessionKey(config);

  std::vector<std::thread> threads;
  std::vector<rtc::SharedSessionResult> results(8);
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] =
          cache.GetOrCompute(key, [&] { return rtc::RunSession(config); });
    });
  }
  for (auto& t : threads) t.join();

  // Exactly one compute; everyone else waited on the in-flight future.
  EXPECT_EQ(cache.stats().computes, 1u);
  EXPECT_EQ(cache.stats().memory_hits, results.size() - 1);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].get(), results[i].get());
  }
}

// A result handed out by the cache keeps its entry alive: it stays readable
// after the cache that computed it is gone.
TEST(ResultCacheTest, SharedResultOutlivesItsCache) {
  const auto config = SmallConfig();
  rtc::SharedSessionResult kept;
  {
    runner::ResultCache cache;
    kept = cache.GetOrCompute(runner::ComputeSessionKey(config),
                              [&] { return rtc::RunSession(config); });
  }
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept.use_count(), 1);
  ExpectBitIdentical(rtc::RunSession(config), *kept);
}

// Two cache instances (standing in for two processes) hammer one directory
// with overlapping key sets. Atomic temp+rename writes mean every read sees
// either a whole valid blob or nothing.
TEST(ResultCacheTest, ConcurrentWritersToOneDirectory) {
  const std::string dir = FreshDir("writers");
  runner::ResultCache cache_a({dir});
  runner::ResultCache cache_b({dir});

  const uint64_t seeds[] = {11, 12, 13, 14};
  auto work = [&](runner::ResultCache& cache,
                  std::vector<rtc::SharedSessionResult>* out) {
    for (uint64_t seed : seeds) {
      const auto config = SmallConfig(seed);
      out->push_back(cache.GetOrCompute(runner::ComputeSessionKey(config),
                                        [&] { return rtc::RunSession(config); }));
    }
  };
  std::vector<rtc::SharedSessionResult> results_a;
  std::vector<rtc::SharedSessionResult> results_b;
  std::thread ta([&] { work(cache_a, &results_a); });
  std::thread tb([&] { work(cache_b, &results_b); });
  ta.join();
  tb.join();

  ASSERT_EQ(results_a.size(), std::size(seeds));
  ASSERT_EQ(results_b.size(), std::size(seeds));
  for (size_t i = 0; i < std::size(seeds); ++i) {
    ExpectBitIdentical(results_a[i], results_b[i]);
  }
  // No blob was ever rejected: concurrent stores are atomic, not corrupting.
  EXPECT_EQ(cache_a.stats().corrupt, 0u);
  EXPECT_EQ(cache_b.stats().corrupt, 0u);
  // Every key has exactly one blob (plus no leftover temp files).
  size_t blobs = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".rrc") << entry.path();
    ++blobs;
  }
  EXPECT_EQ(blobs, std::size(seeds));
  fs::remove_all(dir);
}

TEST(ResultCacheTest, EvictionKeepsDirectoryUnderCap) {
  const std::string dir = FreshDir("evict");
  runner::ResultCache::Options options;
  options.dir = dir;
  options.max_disk_bytes = 1;  // every store must evict down to one blob
  runner::ResultCache cache(options);
  for (uint64_t seed = 21; seed < 25; ++seed) {
    const auto config = SmallConfig(seed);
    cache.GetOrCompute(runner::ComputeSessionKey(config),
                       [&] { return rtc::RunSession(config); });
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  size_t blobs = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++blobs;
  }
  EXPECT_LE(blobs, 1u);
  fs::remove_all(dir);
}

// The size count starts with a sweep at the first store, not at zero: a
// cache opened on a directory another instance filled must see those blobs.
TEST(ResultCacheTest, ReopenedCacheEnforcesCapAtFirstStore) {
  const std::string dir = FreshDir("reopen_cap");
  {
    runner::ResultCache cache({dir});
    for (uint64_t seed = 31; seed < 34; ++seed) {
      const auto config = SmallConfig(seed);
      cache.GetOrCompute(runner::ComputeSessionKey(config),
                         [&] { return rtc::RunSession(config); });
    }
  }
  const uint64_t filled = BlobBytes(dir);

  // One more blob fits a cap of `filled` only if the count ignores the
  // blobs already there.
  runner::ResultCache::Options options;
  options.dir = dir;
  options.max_disk_bytes = filled;
  runner::ResultCache cache(options);
  const auto config = SmallConfig(34);
  cache.GetOrCompute(runner::ComputeSessionKey(config),
                     [&] { return rtc::RunSession(config); });
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(BlobBytes(dir), filled);
  fs::remove_all(dir);
}

TEST(ResultCacheTest, WarmReadOnlyPassTouchesNoBlob) {
  const std::string dir = FreshDir("warm_readonly");
  std::vector<rtc::SessionConfig> configs;
  for (uint64_t seed = 41; seed < 44; ++seed) configs.push_back(SmallConfig(seed));
  {
    runner::ResultCache cache({dir});
    for (const auto& config : configs) {
      cache.GetOrCompute(runner::ComputeSessionKey(config),
                         [&] { return rtc::RunSession(config); });
    }
  }
  // Backdate every blob so a rewrite or touch would show at any mtime
  // granularity.
  const auto old = fs::file_time_type::clock::now() - std::chrono::hours(24);
  std::map<fs::path, fs::file_time_type> mtimes;
  for (const auto& entry : fs::directory_iterator(dir)) {
    fs::last_write_time(entry.path(), old);
    mtimes[entry.path()] = fs::last_write_time(entry.path());
  }
  ASSERT_EQ(mtimes.size(), configs.size());

  runner::ResultCache::Options options;
  options.dir = dir;
  options.max_disk_bytes = BlobBytes(dir) * 2;
  runner::ResultCache cache(options);
  for (const auto& config : configs) {
    cache.GetOrCompute(runner::ComputeSessionKey(config),
                       [&]() -> rtc::SessionResult {
                         ADD_FAILURE() << "disk hit expected; compute ran";
                         return rtc::RunSession(config);
                       });
  }
  EXPECT_EQ(cache.stats().disk_hits, configs.size());
  EXPECT_EQ(cache.stats().stores, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  std::map<fs::path, fs::file_time_type> after;
  for (const auto& entry : fs::directory_iterator(dir)) {
    after[entry.path()] = fs::last_write_time(entry.path());
  }
  EXPECT_EQ(after, mtimes);
  fs::remove_all(dir);
}

TEST(ResultCacheTest, ParseMaxDiskMbRejectsWhatWouldWrap) {
  using runner::ResultCache;
  const uint64_t fallback = ResultCache::Options{}.max_disk_bytes;
  EXPECT_EQ(ResultCache::ParseMaxDiskMb(""), fallback);
  EXPECT_EQ(ResultCache::ParseMaxDiskMb("1"), 1ull << 20);
  EXPECT_EQ(ResultCache::ParseMaxDiskMb("512"), 512ull << 20);
  // 2^44 - 1 MiB is the largest count whose byte count fits in 64 bits.
  EXPECT_EQ(ResultCache::ParseMaxDiskMb("17592186044415"),
            ((1ull << 44) - 1) << 20);
  // 2^44 MiB is exactly 2^64 bytes: it used to wrap to a cap of 0.
  for (const char* bad :
       {"17592186044416", "18446744073709551615", "99999999999999999999999",
        "-1", "+1", " 1", "1 ", "1x", "0x10", "0", "abc"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(ResultCache::ParseMaxDiskMb(bad), fallback);
  }
}

TEST(ResultCacheTest, EnvHelpersDefaultWhenUnset) {
  // Only exercise the no-env path (tests must not mutate the environment of
  // the whole binary): unset means "no dir" and the default size cap.
  if (::getenv("RAVE_CACHE_DIR") == nullptr) {
    EXPECT_FALSE(runner::ResultCache::DirFromEnv().has_value());
  }
  if (::getenv("RAVE_CACHE_MAX_MB") == nullptr) {
    EXPECT_EQ(runner::ResultCache::MaxDiskBytesFromEnv(),
              runner::ResultCache::Options{}.max_disk_bytes);
  }
}

}  // namespace
}  // namespace rave
