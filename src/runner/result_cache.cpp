#include "runner/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>

#include "util/byteio.h"
#include "util/logging.h"

namespace rave::runner {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'R', 'A', 'V', 'C'};
// kBlobVersion lives in result_cache.h (tools print it via --version).
constexpr char kBlobSuffix[] = ".rrc";

void PutTime(ByteWriter& w, Timestamp t) { w.I64(t.us()); }
void PutDelta(ByteWriter& w, TimeDelta d) { w.I64(d.us()); }

Timestamp GetTime(ByteReader& r) { return Timestamp::Micros(r.I64()); }
TimeDelta GetDelta(ByteReader& r) { return TimeDelta::Micros(r.I64()); }

uint64_t NowSteadyUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Owns a POSIX file descriptor; closes it on scope exit.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

/// Reads exactly `size` bytes; false on a read error or an early end.
bool ReadFully(int fd, uint8_t* out, size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, out, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

ResultCache::ResultCache(Options options) : options_(std::move(options)) {
  if (!options_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    // An unusable directory degrades to the in-memory tier; loads and
    // stores below treat filesystem errors as misses.
  }
}

std::optional<std::string> ResultCache::DirFromEnv() {
  const char* dir = std::getenv("RAVE_CACHE_DIR");
  if (dir == nullptr || dir[0] == '\0') return std::nullopt;
  return std::string(dir);
}

uint64_t ResultCache::MaxDiskBytesFromEnv() {
  const char* mb = std::getenv("RAVE_CACHE_MAX_MB");
  return ParseMaxDiskMb(mb == nullptr ? "" : mb);
}

uint64_t ResultCache::ParseMaxDiskMb(std::string_view mb) {
  const uint64_t fallback = Options{}.max_disk_bytes;
  if (mb.empty()) return fallback;
  constexpr uint64_t kMaxMb = std::numeric_limits<uint64_t>::max() >> 20;
  // from_chars takes no sign and no whitespace for an unsigned value.
  uint64_t parsed = 0;
  const char* end = mb.data() + mb.size();
  const auto [stop, ec] = std::from_chars(mb.data(), end, parsed);
  if (ec != std::errc() || stop != end || parsed == 0 || parsed > kMaxMb) {
    RAVE_LOG(kWarning) << "RAVE_CACHE_MAX_MB=\"" << mb
                       << "\" is not a positive MiB count below 2^44; using "
                       << (fallback >> 20) << " MiB";
    return fallback;
  }
  return parsed << 20;
}

rtc::SharedSessionResult ResultCache::ShareResult(EntryPtr entry) {
  const rtc::SessionResult* result = &entry->result;
  return rtc::SharedSessionResult(std::move(entry), result);
}

rtc::SharedSessionResult ResultCache::GetOrCompute(
    const SessionKey& key,
    const std::function<rtc::SessionResult()>& compute) {
  std::shared_future<EntryPtr> future;
  std::promise<EntryPtr> promise;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      inflight_.emplace(key, future);
      owner = true;
    }
  }

  if (!owner) {
    EntryPtr entry = future.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.memory_hits;
      stats_.saved_compute_us += entry->compute_us;
    }
    return ShareResult(std::move(entry));
  }

  // This caller computes (or loads) the entry; everyone else waits on the
  // shared future. The promise must be fulfilled on every path, including
  // a throwing compute, or waiters would hang.
  try {
    if (EntryPtr from_disk = LoadBlob(key)) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disk_hits;
        stats_.saved_compute_us += from_disk->compute_us;
      }
      promise.set_value(from_disk);
      return ShareResult(std::move(from_disk));
    }

    const uint64_t start_us = NowSteadyUs();
    auto entry = std::make_shared<Entry>();
    entry->result = compute();
    entry->compute_us = NowSteadyUs() - start_us;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.computes;
    }
    StoreBlob(key, *entry);
    promise.set_value(entry);
    return ShareResult(std::move(entry));
  } catch (...) {
    // Unpin the key so a later call can retry, then propagate to this
    // caller and every waiter.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::string ResultCache::BlobPath(const SessionKey& key) const {
  return options_.dir + "/" + key.ToHex() + kBlobSuffix;
}

ResultCache::EntryPtr ResultCache::LoadBlob(const SessionKey& key) {
  if (options_.dir.empty()) return nullptr;
  // O_NONBLOCK keeps a FIFO at the blob path from blocking the open; it
  // changes nothing for regular files.
  const FileDescriptor fd(
      ::open(BlobPath(key).c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  if (fd.get() < 0) return nullptr;  // plain miss, not corruption

  const auto reject = [this]() -> EntryPtr {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    return nullptr;
  };

  // Size the buffer from the open file, not the path, so an atomic rename
  // in between cannot make size and contents disagree. A directory, device
  // or FIFO, or a blob over the cap, is rejected before anything is
  // allocated.
  struct stat st = {};
  if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode) ||
      st.st_size < 0 ||
      static_cast<uint64_t>(st.st_size) > options_.max_disk_bytes) {
    return reject();
  }
  const size_t size = static_cast<size_t>(st.st_size);
  const auto blob = std::make_unique_for_overwrite<uint8_t[]>(size);
  if (!ReadFully(fd.get(), blob.get(), size)) return reject();

  ByteReader r(blob.get(), size);
  char magic[4] = {};
  for (char& c : magic) c = static_cast<char>(r.U8());
  if (!r.ok() || std::memcmp(magic, kMagic, 4) != 0) return reject();
  // A blob from another blob layout or simulator semantics is intact but
  // stale: counted apart from damage, then recomputed and overwritten.
  const uint32_t version = r.U32();
  const uint64_t fingerprint = r.U64();
  if (!r.ok()) return reject();
  if (version != kBlobVersion || fingerprint != kSimFingerprint) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stale;
    return nullptr;
  }
  // The key is already the filename; the echo catches renamed files.
  if (r.U64() != key.hi || r.U64() != key.lo) return reject();
  const uint64_t compute_us = r.U64();
  const uint64_t payload_size = r.U64();
  const uint64_t sum_hi = r.U64();
  const uint64_t sum_lo = r.U64();
  if (!r.ok() || payload_size != size - r.pos()) return reject();

  const std::span<const uint8_t> payload(blob.get() + r.pos(),
                                         static_cast<size_t>(payload_size));
  const SessionKey sum =
      HashBytes(payload.data(), payload.size(), kBlobVersion);
  if (sum.hi != sum_hi || sum.lo != sum_lo) return reject();

  auto entry = std::make_shared<Entry>();
  entry->compute_us = compute_us;
  if (!DecodeResult(payload, &entry->result)) return reject();
  return entry;
}

void ResultCache::StoreBlob(const SessionKey& key, const Entry& entry) {
  if (options_.dir.empty()) return;

  const std::vector<uint8_t> payload = EncodeResult(entry.result);
  const SessionKey sum =
      HashBytes(payload.data(), payload.size(), kBlobVersion);

  ByteWriter w;
  w.Reserve(64 + payload.size());
  for (char c : kMagic) w.U8(static_cast<uint8_t>(c));
  w.U32(kBlobVersion);
  w.U64(kSimFingerprint);
  w.U64(key.hi);
  w.U64(key.lo);
  w.U64(entry.compute_us);
  w.U64(payload.size());
  w.U64(sum.hi);
  w.U64(sum.lo);

  // Unique temp name per process+thread so concurrent writers of the same
  // key never collide; the rename is atomic, so readers see old or new,
  // never a partial file.
  const std::string final_path = BlobPath(key);
  const std::string tmp_path =
      final_path + ".tmp." +
      std::to_string(static_cast<uint64_t>(
          std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
          reinterpret_cast<uintptr_t>(&entry)));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable cache dir: silently skip the store
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp_path, ec);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return;
  }
  bool sweep = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    // The first store seeds the count with a sweep; later stores add their
    // bytes (an overwrite counts twice until the next sweep corrects it) and
    // sweep only once the count passes the cap.
    if (disk_bytes_) {
      *disk_bytes_ += w.bytes().size() + payload.size();
      sweep = *disk_bytes_ > options_.max_disk_bytes;
    }
  }
  if (sweep) EvictOverCap();
}

void ResultCache::EvictOverCap() {
  std::error_code ec;
  struct BlobFile {
    fs::path path;
    uint64_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<BlobFile> files;
  uint64_t total = 0;
  for (const fs::directory_entry& e :
       fs::directory_iterator(options_.dir, ec)) {
    if (ec) return;
    if (e.path().extension() != kBlobSuffix) continue;
    std::error_code stat_ec;
    const uint64_t size = e.file_size(stat_ec);
    if (stat_ec) continue;
    const fs::file_time_type mtime = e.last_write_time(stat_ec);
    if (stat_ec) continue;
    files.push_back({e.path(), size, mtime});
    total += size;
  }
  // A directory that cannot be listed leaves the count as it was; the next
  // store that needs a sweep tries again.
  if (ec) return;

  uint64_t evicted = 0;
  if (total > options_.max_disk_bytes) {
    std::sort(files.begin(), files.end(),
              [](const BlobFile& a, const BlobFile& b) {
                return a.mtime < b.mtime;
              });
    for (const BlobFile& f : files) {
      if (total <= options_.max_disk_bytes) break;
      std::error_code rm_ec;
      // Another process may have evicted it first; only count our removals.
      if (fs::remove(f.path, rm_ec) && !rm_ec) {
        total -= f.size;
        ++evicted;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions += evicted;
  disk_bytes_ = total;
}

// --- SessionResult blob codec -----------------------------------------------
//
// Field-by-field, fixed order, little-endian; doubles as IEEE-754 bit
// patterns (round-trips are bit-exact, so cached results are byte-identical
// to freshly computed ones when rendered to CSV/JSON).

std::vector<uint8_t> ResultCache::EncodeResult(
    const rtc::SessionResult& res) {
  ByteWriter w;
  w.Reserve(128 + res.frames.size() * 96 + res.timeseries.size() * 88);

  w.Str(res.scheme_name);

  const metrics::SessionSummary& s = res.summary;
  w.I64(s.frames_captured);
  w.I64(s.frames_delivered);
  w.I64(s.frames_skipped);
  w.I64(s.frames_dropped_sender);
  w.I64(s.frames_lost_network);
  w.F64(s.latency_mean_ms);
  w.F64(s.latency_p50_ms);
  w.F64(s.latency_p95_ms);
  w.F64(s.latency_p99_ms);
  w.F64(s.latency_max_ms);
  w.F64(s.render_latency_mean_ms);
  w.F64(s.render_latency_p95_ms);
  w.F64(s.late_render_ratio);
  w.F64(s.ssim_mean);
  w.F64(s.psnr_mean_db);
  w.F64(s.qp_mean);
  w.F64(s.encoded_ssim_mean);
  w.F64(s.displayed_ssim_mean);
  w.F64(s.undelivered_ratio);
  w.F64(s.encoded_bitrate_kbps);
  w.I64(s.total_reencodes);

  w.U64(res.frames.size());
  for (const metrics::FrameRecord& f : res.frames) {
    w.I64(f.frame_id);
    PutTime(w, f.capture_time);
    w.U8(static_cast<uint8_t>(f.fate));
    w.U8(static_cast<uint8_t>(f.type));
    w.F64(f.qp);
    w.I64(f.size.bits());
    w.F64(f.ssim);
    w.F64(f.psnr);
    w.U32(static_cast<uint32_t>(f.reencodes));
    w.F64(f.temporal_complexity);
    w.Bool(f.complete_time.has_value());
    if (f.complete_time) PutTime(w, *f.complete_time);
    w.Bool(f.render_time.has_value());
    if (f.render_time) PutTime(w, *f.render_time);
    w.Bool(f.late_render);
  }

  w.U64(res.timeseries.size());
  for (const metrics::TimeseriesPoint& p : res.timeseries) {
    PutTime(w, p.at);
    w.F64(p.capacity_kbps);
    w.F64(p.bwe_target_kbps);
    w.F64(p.encoder_target_kbps);
    w.F64(p.acked_kbps);
    w.F64(p.pacer_queue_ms);
    w.F64(p.link_queue_ms);
    w.F64(p.loss_rate);
    w.F64(p.last_qp);
    w.F64(p.last_latency_ms);
  }

  const net::LinkStats& l = res.link_stats;
  w.I64(l.packets_delivered);
  w.I64(l.packets_dropped);
  w.I64(l.packets_lost_random);
  w.I64(l.packets_duplicated);
  w.I64(l.packets_reordered);
  w.I64(l.outages);
  w.I64(l.bytes_delivered.bits());
  w.I64(l.bytes_dropped.bits());

  const core::CircuitBreaker::Stats& b = res.breaker_stats;
  w.I64(b.opens);
  w.I64(b.pauses);
  w.I64(b.recoveries);
  PutDelta(w, b.time_open);
  PutDelta(w, b.time_paused);

  w.U64(res.events_executed);
  res.metrics.Encode(w);
  return w.Take();
}

bool ResultCache::DecodeResult(std::span<const uint8_t> payload,
                               rtc::SessionResult* out) {
  ByteReader r(payload);
  rtc::SessionResult res;

  res.scheme_name = r.Str();

  metrics::SessionSummary& s = res.summary;
  s.frames_captured = r.I64();
  s.frames_delivered = r.I64();
  s.frames_skipped = r.I64();
  s.frames_dropped_sender = r.I64();
  s.frames_lost_network = r.I64();
  s.latency_mean_ms = r.F64();
  s.latency_p50_ms = r.F64();
  s.latency_p95_ms = r.F64();
  s.latency_p99_ms = r.F64();
  s.latency_max_ms = r.F64();
  s.render_latency_mean_ms = r.F64();
  s.render_latency_p95_ms = r.F64();
  s.late_render_ratio = r.F64();
  s.ssim_mean = r.F64();
  s.psnr_mean_db = r.F64();
  s.qp_mean = r.F64();
  s.encoded_ssim_mean = r.F64();
  s.displayed_ssim_mean = r.F64();
  s.undelivered_ratio = r.F64();
  s.encoded_bitrate_kbps = r.F64();
  s.total_reencodes = r.I64();

  const uint64_t n_frames = r.U64();
  if (!r.ok() || n_frames > payload.size()) return false;  // size sanity
  res.frames.reserve(static_cast<size_t>(n_frames));
  for (uint64_t i = 0; i < n_frames && r.ok(); ++i) {
    metrics::FrameRecord f;
    f.frame_id = r.I64();
    f.capture_time = GetTime(r);
    f.fate = static_cast<metrics::FrameFate>(r.U8());
    f.type = static_cast<codec::FrameType>(r.U8());
    f.qp = r.F64();
    f.size = DataSize::Bits(r.I64());
    f.ssim = r.F64();
    f.psnr = r.F64();
    f.reencodes = static_cast<int>(r.U32());
    f.temporal_complexity = r.F64();
    if (r.Bool()) f.complete_time = GetTime(r);
    if (r.Bool()) f.render_time = GetTime(r);
    f.late_render = r.Bool();
    res.frames.push_back(f);
  }

  const uint64_t n_points = r.U64();
  if (!r.ok() || n_points > payload.size()) return false;
  res.timeseries.reserve(static_cast<size_t>(n_points));
  for (uint64_t i = 0; i < n_points && r.ok(); ++i) {
    metrics::TimeseriesPoint p;
    p.at = GetTime(r);
    p.capacity_kbps = r.F64();
    p.bwe_target_kbps = r.F64();
    p.encoder_target_kbps = r.F64();
    p.acked_kbps = r.F64();
    p.pacer_queue_ms = r.F64();
    p.link_queue_ms = r.F64();
    p.loss_rate = r.F64();
    p.last_qp = r.F64();
    p.last_latency_ms = r.F64();
    res.timeseries.push_back(p);
  }

  net::LinkStats& l = res.link_stats;
  l.packets_delivered = r.I64();
  l.packets_dropped = r.I64();
  l.packets_lost_random = r.I64();
  l.packets_duplicated = r.I64();
  l.packets_reordered = r.I64();
  l.outages = r.I64();
  l.bytes_delivered = DataSize::Bits(r.I64());
  l.bytes_dropped = DataSize::Bits(r.I64());

  core::CircuitBreaker::Stats& b = res.breaker_stats;
  b.opens = r.I64();
  b.pauses = r.I64();
  b.recoveries = r.I64();
  b.time_open = GetDelta(r);
  b.time_paused = GetDelta(r);

  res.events_executed = r.U64();
  res.metrics = obs::RegistrySnapshot::Decode(r);

  if (!r.ok() || !r.AtEnd()) return false;
  *out = std::move(res);
  return true;
}

}  // namespace rave::runner
