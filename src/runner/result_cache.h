// Content-addressed session-result cache.
//
// Two tiers:
//  - In-process: a map from SessionKey to the finished result, with
//    in-flight deduplication — when several workers ask for the same key
//    concurrently, exactly one computes and the rest block on its future.
//  - On-disk (optional): versioned binary blobs under `Options::dir`, one
//    file per key (`<hex>.rrc`), written via temp-file + atomic rename so
//    concurrent writers (threads or separate processes sharing a cache
//    directory) never expose partial files.
//
// The disk tier fails safe on damage: a truncated, corrupted,
// version-mismatched, or fingerprint-mismatched blob, or anything at a blob
// path that is not a regular file no larger than the size cap, is a miss —
// the session is recomputed and the blob overwritten. Damage cannot crash a
// run: the header checks, the payload checksum and the full decode catch it.
//
// Staleness is another matter. The key covers every SessionConfig field and
// kSimFingerprint, not the compiled code, so the disk tier serves current
// results only if every change to simulation semantics bumps
// kSimFingerprint. A code change that moves results without a bump (say, a
// different constant inside a controller) is served the old results from a
// warm directory, and no check here can tell. The byte-comparing ctest gates
// therefore run with RAVE_CACHE_DIR unset.
//
// Result ownership: a finished result is immutable. GetOrCompute hands out
// a shared pointer to the cache's own entry (an aliasing pointer, no extra
// allocation), so every caller that asks for a key reads the same object,
// nothing is deep-copied per request, and a result stays valid after the
// cache that produced it is destroyed.
//
// Lookups happen once per session, strictly off the per-event hot path.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rtc/session.h"
#include "runner/session_key.h"

namespace rave::runner {

/// On-disk blob layout version. BUMP whenever EncodeResult's payload layout
/// (or the header around it) changes, so older blobs are rejected as
/// stale and recomputed instead of misparsed.
/// 2: payload gained the obs::RegistrySnapshot tail after events_executed.
/// 3: registry distribution metrics became QuantileSketches — MetricSnapshot
///    carries a conditional sketch payload (kind == kSketch).
/// 4: the fixed-bucket histogram kind was retired — MetricSnapshot no longer
///    encodes bounds, bucket counts, sum, min or max; kind byte 2 is rejected.
inline constexpr uint32_t kBlobVersion = 4;

class ResultCache {
 public:
  struct Options {
    /// On-disk store directory; empty = in-memory tier only.
    std::string dir;
    /// Disk-tier size cap; oldest blobs (by mtime) are evicted past it.
    /// Best-effort: each instance tracks the directory's size from its own
    /// stores and lists the directory only at its first store and when its
    /// count passes the cap, so other processes' stores show up at the next
    /// such sweep. A blob larger than the cap is never loaded.
    uint64_t max_disk_bytes = 512ull * 1024 * 1024;
  };

  struct Stats {
    uint64_t memory_hits = 0;
    uint64_t disk_hits = 0;
    /// Sessions actually simulated (misses).
    uint64_t computes = 0;
    /// Blobs written to disk.
    uint64_t stores = 0;
    /// Disk entries rejected as damaged (bad magic/checksum/decode, key
    /// echo mismatch, truncated, not a regular file, unreadable, or larger
    /// than max_disk_bytes).
    uint64_t corrupt = 0;
    /// Intact disk entries written under another kBlobVersion or
    /// kSimFingerprint (expected after a version bump); recomputed.
    uint64_t stale = 0;
    /// Blobs removed by the size-cap sweep.
    uint64_t evictions = 0;
    /// Simulation time skipped thanks to hits (from the blobs' recorded
    /// compute durations).
    uint64_t saved_compute_us = 0;
  };

  ResultCache() : ResultCache(Options()) {}
  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the cached result for `key`, or runs `compute` (exactly once
  /// per key, even under concurrent callers) and caches what it returns.
  /// Every call for one key returns the same shared, immutable object.
  rtc::SharedSessionResult GetOrCompute(
      const SessionKey& key,
      const std::function<rtc::SessionResult()>& compute);

  Stats stats() const;

  const Options& options() const { return options_; }

  /// Reads RAVE_CACHE_DIR; nullopt when unset or empty.
  static std::optional<std::string> DirFromEnv();
  /// Reads RAVE_CACHE_MAX_MB through ParseMaxDiskMb.
  static uint64_t MaxDiskBytesFromEnv();
  /// Parses a RAVE_CACHE_MAX_MB value: a positive decimal MiB count whose
  /// byte count fits in 64 bits. Empty gives the Options{} default; a sign,
  /// whitespace, trailing garbage, zero or an overflowing value logs a
  /// warning naming RAVE_CACHE_MAX_MB and gives the default too.
  static uint64_t ParseMaxDiskMb(std::string_view mb);

  // --- blob codec, exposed for tests ---

  /// Payload encoding of a SessionResult (field-by-field, little-endian).
  static std::vector<uint8_t> EncodeResult(const rtc::SessionResult& result);
  /// Inverse of EncodeResult; false on any truncation/garbage.
  static bool DecodeResult(std::span<const uint8_t> payload,
                           rtc::SessionResult* out);

 private:
  struct Entry {
    rtc::SessionResult result;
    uint64_t compute_us = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// The entry's result, sharing the entry's ownership.
  static rtc::SharedSessionResult ShareResult(EntryPtr entry);

  /// Disk-tier blob path for a key.
  std::string BlobPath(const SessionKey& key) const;
  /// Loads a blob with one sized read and decodes it in place after full
  /// validation; nullptr on miss or corruption.
  EntryPtr LoadBlob(const SessionKey& key);
  /// Writes a blob atomically (temp + rename) and adds its bytes to
  /// disk_bytes_; sweeps when the count is unseeded or over the cap.
  void StoreBlob(const SessionKey& key, const Entry& entry);
  /// Lists the directory, deletes oldest blobs until it fits the size cap,
  /// and sets disk_bytes_ to what remains.
  void EvictOverCap();

  Options options_;

  mutable std::mutex mutex_;
  std::unordered_map<SessionKey, std::shared_future<EntryPtr>> inflight_;
  Stats stats_;
  /// Bytes of blobs in the directory as of the last sweep plus this
  /// instance's stores since; nullopt until the first store's sweep, so a
  /// read-only pass never lists the directory.
  std::optional<uint64_t> disk_bytes_;
};

}  // namespace rave::runner
