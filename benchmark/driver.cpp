// Benchmark driver for the RAVE simulator. Runs one workload in this
// process, on one thread, and prints its metrics.
//
//   suite-cold      every fig/tab harness in bench::AllBenches(), against a
//                   fresh memory-only ResultCache per pass
//   suite-warm      the same harnesses served from a disk tier that set-up
//                   fills; every pass opens a fresh ResultCache on it
//   high-rate       24 x 30 s 1080p60 sessions on a 40 Mbps link that drops
//   lossy-low-rate  60 x 30 s 360p15 sessions with loss, faults and FEC
//
// An untraced run (--trace=0) reports the end-to-end metrics. A traced run
// (--trace=1) enables obs::StageTimer, records benchmark-side spans around
// each call into the simulator, and reports the per-layer metrics; it writes
// the spans as a Chrome trace. Timings are normalized to the reference host
// by the calibration loop in stats.h; raw values are printed beside them.
//
// Every metric prints as one `workload name value unit` line. The last line
// of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit status is 1 when any operation failed.
//
// usage: rave_benchmark --workload=NAME [--seed=N] [--seconds=S]
//            [--trace=0|1] [--smoke] [--work-dir=DIR] [--out-dir=DIR]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "fault/fault_plan.h"
#include "obs/metrics_registry.h"
#include "obs/stage_timer.h"
#include "registry.h"
#include "rtc/session.h"
#include "runner/result_cache.h"
#include "stats.h"
#include "util/alloc_probe.h"
#include "util/flags.h"

namespace rave::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Simulated length of every matrix session.
constexpr int kMatrixSessionSeconds = 30;

/// Frames captured in the last moments of a session may still be in flight
/// when it ends: 1.5 s at 60 fps.
constexpr int64_t kMaxFramesInFlight = 90;

/// Set-up repetitions of an untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

/// Samples the traced run needs for rtc.*.p90 (ten beyond the cut).
constexpr size_t kMinTailSamples = 100;

/// Benchmark-side spans of a traced run: recorded around calls into the
/// simulator's layers, kept in memory, written as a Chrome trace at exit.
class SpanLog {
 public:
  void Enable() {
    on_ = true;
    spans_.reserve(1 << 16);
  }

  /// Records a span; returns its id, or -1 when recording is off.
  int Add(const char* name, int parent, int64_t index, Clock::time_point start,
          Clock::time_point end) {
    if (!on_) return -1;
    spans_.push_back({name, parent, index, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span now; Close() sets its end.
  int Open(const char* name, int parent, int64_t index) {
    const Clock::time_point now = Clock::now();
    return Add(name, parent, index, now, now);
  }
  void Close(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Clock::now();
  }

  bool Write(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << std::fixed << std::setprecision(3);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = Seconds(origin, s.start) * 1e6;
      const double dur = Seconds(s.start, s.end) * 1e6;
      out << "{\"name\": \"" << s.name
          << "\", \"cat\": \"benchmark\", \"ph\": \"X\", \"pid\": 1, "
             "\"tid\": 1, \"ts\": "
          << ts << ", \"dur\": " << dur << ", \"args\": {\"id\": " << i
          << ", \"parent\": " << s.parent << ", \"index\": " << s.index
          << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int parent;
    int64_t index;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool on_ = false;
  std::vector<Span> spans_;
};

/// What a traced pass records besides its Pass.
struct Tracing {
  SpanLog spans;
  int passes = 0;
  std::vector<double> construct_s;
  std::vector<double> run_s;
};

/// One pass over a workload's input. An op is one session of a matrix or
/// one harness call of a suite.
struct Pass {
  double wall_s = 0.0;
  /// The calibration sample taken just before the pass (timed passes).
  double calibration_s = 0.0;
  std::vector<double> op_s;
  /// Output digest of each op, in op order.
  std::vector<uint64_t> digests;
  /// Sessions delivered, whether simulated or served from a cache.
  uint64_t sessions = 0;
  uint64_t alloc_bytes = 0;
  int failed = 0;
  runner::ResultCache::Stats cache;
};

void Fail(Pass& pass, const std::string& op, const std::string& why) {
  constexpr int kMaxReported = 20;
  static int reported = 0;
  ++pass.failed;
  if (reported++ < kMaxReported) {
    std::cerr << "benchmark: op " << op << " failed: " << why << '\n';
  }
}

/// Per-session counts of one pass, from each SessionResult and its metrics
/// registry. Suites see only the registries (bench::SuiteMetrics()).
struct LayerCounts {
  obs::RegistrySnapshot registry;
  uint64_t sessions = 0;
  int64_t packets = 0;
  int64_t random_losses = 0;
  int64_t bytes_delivered = 0;

  void Add(const rtc::SessionResult& r) {
    registry.Merge(r.metrics);
    ++sessions;
    packets += r.link_stats.packets_delivered + r.link_stats.packets_dropped +
               r.link_stats.packets_lost_random;
    random_losses += r.link_stats.packets_lost_random;
    bytes_delivered += r.link_stats.bytes_delivered.bytes();
  }
  double Counter(const char* name) const {
    const obs::MetricSnapshot* m = registry.Find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->counter);
  }
  double PerSession(double total) const {
    return sessions == 0 ? 0.0 : total / static_cast<double>(sessions);
  }
};

// --- session matrices ------------------------------------------------------

constexpr rtc::Scheme kMatrixSchemes[] = {
    rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive, rtc::Scheme::kSalsify};

rtc::SessionConfig MatrixConfig(rtc::Scheme scheme, video::Resolution res,
                                double fps, DataRate base, DataRate low,
                                uint64_t seed) {
  rtc::SessionConfig config;
  config.scheme = scheme;
  config.duration = TimeDelta::Seconds(kMatrixSessionSeconds);
  config.seed = seed;
  config.source.resolution = res;
  config.source.fps = fps;
  config.link.trace =
      net::CapacityTrace::StepDrop(base, low, Timestamp::Seconds(10));
  // Warmed up near the link rate, like the harnesses' DefaultConfig.
  config.initial_rate = base * 0.84;
  return config;
}

/// Per-packet layers dominate: about 25 packets per frame, long trains.
std::vector<rtc::SessionConfig> HighRateMatrix(uint64_t seed) {
  const DataRate base = DataRate::KilobitsPerSec(40'000);
  const int64_t low_kbps[] = {12'000, 20'000, 28'000};
  std::vector<rtc::SessionConfig> configs;
  for (uint64_t i = 0; i < 24; ++i) {
    rtc::SessionConfig config = MatrixConfig(
        kMatrixSchemes[i % 3], {1920, 1080}, 60.0, base,
        DataRate::KilobitsPerSec(low_kbps[(i / 3) % 3]), seed * 1000 + i);
    config.link.queue_capacity = DataSize::Bytes(1'280'000);
    configs.push_back(std::move(config));
  }
  return configs;
}

/// Per-frame layers and the loss-recovery paths dominate: about 2.65
/// packets per frame, so trains are one packet long.
std::vector<rtc::SessionConfig> LossyLowRateMatrix(uint64_t seed) {
  const DataRate base = DataRate::KilobitsPerSec(600);
  const int64_t low_kbps[] = {180, 300, 420};
  // fig10's four fault plans plus none, a few seconds after the drop.
  const Timestamp at = Timestamp::Seconds(15);
  std::vector<fault::FaultPlan> plans(5);
  plans[1].Outage(at, TimeDelta::Seconds(2));
  plans[2].FeedbackBlackhole(at, TimeDelta::Seconds(3));
  plans[3].DelaySpike(at, TimeDelta::Seconds(2), TimeDelta::Millis(150));
  plans[4]
      .DuplicationBurst(at, TimeDelta::Seconds(5), 0.2)
      .ReorderBurst(at, TimeDelta::Seconds(5), 0.2, TimeDelta::Millis(40));

  std::vector<rtc::SessionConfig> configs;
  for (uint64_t i = 0; i < 60; ++i) {
    // Each block of 15 covers every scheme x fault pair; the four blocks
    // switch Gilbert bursts and FEC on and off.
    const uint64_t block = i / 15;
    rtc::SessionConfig config = MatrixConfig(
        kMatrixSchemes[i % 3], {640, 360}, 15.0, base,
        DataRate::KilobitsPerSec(low_kbps[(i / 5) % 3]), seed * 1000 + i);
    config.link.loss.random_loss = 0.02;
    config.link.loss.gilbert_enabled = block % 2 == 1;
    config.link.loss.seed = config.seed ^ 0x5EEDULL;
    config.faults = plans[i % 5];
    config.enable_fec = block >= 2;
    configs.push_back(std::move(config));
  }
  return configs;
}

/// Frame accounting and causality of one finished session; empty when the
/// result is consistent.
std::string CheckSession(const rtc::SessionResult& r) {
  const metrics::SessionSummary& s = r.summary;
  const int64_t accounted = s.frames_delivered + s.frames_skipped +
                            s.frames_dropped_sender + s.frames_lost_network;
  if (accounted > s.frames_captured ||
      accounted < s.frames_captured - kMaxFramesInFlight) {
    return "frame accounting: " + std::to_string(accounted) +
           " frames accounted of " + std::to_string(s.frames_captured) +
           " captured";
  }
  for (const metrics::FrameRecord& f : r.frames) {
    if (f.complete_time && *f.complete_time < f.capture_time) {
      return "frame " + std::to_string(f.frame_id) +
             " completed before its capture";
    }
  }
  return {};
}

uint64_t SessionDigest(const rtc::SessionResult& r) {
  Digest d;
  d.Add(r.scheme_name.data(), r.scheme_name.size());
  d.AddValue(r.events_executed);
  d.AddValue(r.link_stats.packets_delivered);
  d.AddValue(r.link_stats.packets_dropped);
  d.AddValue(r.link_stats.packets_lost_random);
  d.AddValue(r.link_stats.bytes_delivered.bits());
  d.AddValue(r.summary.frames_captured);
  d.AddValue(r.summary.latency_mean_ms);
  d.AddValue(r.summary.latency_p95_ms);
  d.AddValue(r.summary.encoded_ssim_mean);
  for (const metrics::FrameRecord& f : r.frames) {
    d.AddValue(f.frame_id);
    d.AddValue(static_cast<int>(f.fate));
    d.AddValue(f.capture_time.us());
    d.AddValue(f.complete_time ? f.complete_time->us() : int64_t{-1});
    d.AddValue(f.size.bits());
    d.AddValue(f.qp);
  }
  return d.value();
}

/// Runs every session of `configs` in order through rtc::Session.
Pass RunMatrixPass(const std::vector<rtc::SessionConfig>& configs,
                   const std::vector<uint64_t>& reference, Tracing* tracing,
                   LayerCounts* counts) {
  Pass pass;
  SpanLog* spans = tracing != nullptr ? &tracing->spans : nullptr;
  const int pass_span =
      spans != nullptr ? spans->Open("pass", -1, tracing->passes++) : -1;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < configs.size(); ++i) {
    const int span = spans != nullptr
                         ? spans->Open("session", pass_span,
                                       static_cast<int64_t>(i))
                         : -1;
    rtc::SessionResult result;
    std::string error;
    const AllocScope alloc;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t1 = t0;
    Clock::time_point t2 = t0;
    try {
      rtc::Session session(configs[i]);
      t1 = Clock::now();
      result = session.Run();
      t2 = Clock::now();
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    }
    const Clock::time_point t3 = Clock::now();
    pass.alloc_bytes += alloc.bytes();
    pass.op_s.push_back(Seconds(t0, t3));
    if (spans != nullptr && error.empty()) {
      spans->Add("construct", span, static_cast<int64_t>(i), t0, t1);
      spans->Add("run", span, static_cast<int64_t>(i), t1, t2);
      tracing->construct_s.push_back(Seconds(t0, t1));
      tracing->run_s.push_back(Seconds(t1, t2));
    }
    if (spans != nullptr) spans->Close(span);

    if (error.empty()) {
      ++pass.sessions;
      error = CheckSession(result);
    }
    pass.digests.push_back(error.empty() ? SessionDigest(result) : 0);
    if (error.empty() && !reference.empty() &&
        pass.digests.back() != reference[i]) {
      error = "digest differs from the warm-up pass";
    }
    if (!error.empty()) Fail(pass, "session " + std::to_string(i), error);
    if (counts != nullptr && pass.digests.back() != 0) counts->Add(result);
  }
  pass.wall_s = Seconds(start, Clock::now());
  if (spans != nullptr) spans->Close(pass_span);
  return pass;
}

// --- harness suites --------------------------------------------------------

/// Calls every harness once against `cache`. The pass's wall is the loop
/// alone. `expect_warm` fails any harness that simulates a session.
Pass RunHarnesses(runner::ResultCache& cache,
                  const std::vector<uint64_t>& reference, bool expect_warm,
                  Tracing* tracing, const char* pass_name) {
  Pass pass;
  SpanLog* spans = tracing != nullptr ? &tracing->spans : nullptr;
  const int pass_span =
      spans != nullptr ? spans->Open(pass_name, -1, tracing->passes++) : -1;
  bench::SetSuiteCache(&cache);
  bench::ResetSuiteMetrics();
  bench::ResetBenchMetrics();
  const std::vector<bench::BenchEntry>& entries = bench::AllBenches();
  const Clock::time_point start = Clock::now();
  for (size_t h = 0; h < entries.size(); ++h) {
    const bench::BenchEntry& entry = entries[h];
    std::string arg0 = std::string("rave_benchmark/") + entry.name;
    std::string jobs = "--jobs=1";
    char* argv[] = {arg0.data(), jobs.data(), nullptr};
    const runner::ResultCache::Stats before = cache.stats();
    const int span = spans != nullptr
                         ? spans->Open(entry.name, pass_span,
                                       static_cast<int64_t>(h))
                         : -1;
    std::ostringstream captured;
    std::streambuf* real_cout = std::cout.rdbuf(captured.rdbuf());
    std::string error;
    const AllocScope alloc;
    const Clock::time_point t0 = Clock::now();
    try {
      const int exit_code = entry.entry(2, argv);
      if (exit_code != 0) error = "exit code " + std::to_string(exit_code);
    } catch (const std::exception& e) {
      error = std::string("threw: ") + e.what();
    } catch (...) {
      error = "threw a non-standard exception";
    }
    pass.op_s.push_back(Seconds(t0, Clock::now()));
    pass.alloc_bytes += alloc.bytes();
    std::cout.rdbuf(real_cout);
    if (spans != nullptr) spans->Close(span);

    const runner::ResultCache::Stats after = cache.stats();
    const uint64_t computes = after.computes - before.computes;
    pass.sessions += computes + (after.memory_hits - before.memory_hits) +
                     (after.disk_hits - before.disk_hits);
    const std::string text = captured.str();
    Digest digest;
    digest.Add(text.data(), text.size());
    pass.digests.push_back(digest.value());
    if (error.empty() && !reference.empty() &&
        digest.value() != reference[h]) {
      error = "stdout digest differs from the reference pass";
    }
    if (error.empty() && expect_warm && computes > 0) {
      error = std::to_string(computes) + " sessions simulated on a warm cache";
    }
    if (error.empty() && after.corrupt > before.corrupt) {
      error = std::to_string(after.corrupt - before.corrupt) +
              " corrupt cache blobs";
    }
    if (!error.empty()) Fail(pass, entry.name, error);
  }
  pass.wall_s = Seconds(start, Clock::now());
  bench::SetSuiteCache(nullptr);
  pass.cache = cache.stats();
  if (spans != nullptr) spans->Close(pass_span);
  return pass;
}

/// A suite pass on a freshly opened ResultCache (memory-only when `dir` is
/// empty). Its wall covers the cache's whole lifetime.
Pass RunSuitePass(const std::string& dir,
                  const std::vector<uint64_t>& reference, bool expect_warm,
                  Tracing* tracing, const char* pass_name = "pass") {
  const Clock::time_point start = Clock::now();
  Pass pass;
  {
    runner::ResultCache::Options options;
    options.dir = dir;
    runner::ResultCache cache(options);
    pass = RunHarnesses(cache, reference, expect_warm, tracing, pass_name);
  }
  pass.wall_s = Seconds(start, Clock::now());
  return pass;
}

/// Mean size of the blobs in a disk tier.
double MeanBlobBytes(const std::string& dir) {
  uint64_t bytes = 0;
  uint64_t blobs = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() != ".rrc") continue;
    bytes += e.file_size(ec);
    ++blobs;
  }
  return blobs == 0 ? 0.0 : static_cast<double>(bytes) / blobs;
}

// --- the workload ----------------------------------------------------------

const char* const kWorkloads[] = {"suite-cold", "suite-warm", "high-rate",
                                  "lossy-low-rate"};

/// The runner's probe passes (traced suite runs only).
struct Probes {
  Pass cold_memory;
  Pass warm_memory;
  Pass cold_disk;
  Pass warm_disk;
};

class Workload {
 public:
  Workload(std::string name, uint64_t seed, std::string work_dir)
      : name_(std::move(name)),
        seed_(seed),
        suite_(name_.rfind("suite-", 0) == 0),
        disk_tier_(name_ == "suite-warm"),
        work_dir_(std::move(work_dir)) {}

  bool suite() const { return suite_; }
  size_t ops_per_pass() const {
    return suite_ ? bench::AllBenches().size() : configs_.size();
  }

  /// Builds the inputs, opens and (suite-warm) fills the disk tier, and
  /// runs the discarded warm-up pass. The first set-up fixes the reference
  /// digests; later ones are checked against them.
  void SetUp() {
    if (!suite_) {
      configs_ = name_ == "high-rate" ? HighRateMatrix(seed_)
                                      : LossyLowRateMatrix(seed_);
      Record(RunMatrixPass(configs_, reference_, nullptr,
                           counts_.sessions == 0 ? &counts_ : nullptr));
      return;
    }
    if (disk_tier_) {
      std::filesystem::remove_all(TierDir());
      std::filesystem::create_directories(TierDir());
      // The fill is a cold pass: its outputs are the cold reference every
      // warm pass must reproduce.
      Record(RunSuitePass(TierDir(), reference_, false, nullptr));
    }
    const Pass warmup = Record(RunSuitePass(disk_tier_ ? TierDir() : "",
                                            reference_, disk_tier_, nullptr));
    if (counts_.sessions == 0) {
      counts_.registry = bench::SuiteMetrics();
      counts_.sessions = warmup.sessions;
    }
  }

  /// One timed pass over the workload's input.
  Pass RunPass(Tracing* tracing) {
    return Record(suite_ ? RunSuitePass(disk_tier_ ? TierDir() : "",
                                        reference_, disk_tier_, tracing)
                         : RunMatrixPass(configs_, reference_, tracing,
                                         nullptr));
  }

  /// The runner's four probe passes: cold and warm, memory-only and on a
  /// fresh disk tier. Their differences split suite wall into simulation,
  /// cache reads, cache writes and harness work.
  Probes RunProbes(Tracing* tracing, std::vector<double>& calibration) {
    Probes p;
    const std::string dir = work_dir_ + "/probe-tier";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    runner::ResultCache::Options disk;
    disk.dir = dir;
    {
      runner::ResultCache cache(disk);
      calibration.push_back(CalibrationSeconds());
      p.cold_disk = Record(
          RunHarnesses(cache, reference_, false, tracing, "probe.cold_disk"));
    }
    blob_bytes_mean_ = MeanBlobBytes(dir);
    {
      runner::ResultCache cache(disk);
      calibration.push_back(CalibrationSeconds());
      p.warm_disk = Record(
          RunHarnesses(cache, reference_, true, tracing, "probe.warm_disk"));
    }
    runner::ResultCache memory;
    calibration.push_back(CalibrationSeconds());
    p.cold_memory = Record(
        RunHarnesses(memory, reference_, false, tracing, "probe.cold_memory"));
    calibration.push_back(CalibrationSeconds());
    p.warm_memory = Record(
        RunHarnesses(memory, reference_, true, tracing, "probe.warm_memory"));
    return p;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const LayerCounts& counts() const { return counts_; }
  double blob_bytes_mean() const { return blob_bytes_mean_; }
  /// Digest over every op's output: the workload's output fingerprint.
  uint64_t OutputDigest() const {
    Digest d;
    for (uint64_t v : reference_) d.AddValue(v);
    return d.value();
  }

 private:
  std::string TierDir() const { return work_dir_ + "/tier"; }

  /// Counts a pass's ops; the first clean pass fixes the reference digests.
  Pass Record(Pass pass) {
    attempted_ += static_cast<int>(pass.op_s.size());
    failed_ += pass.failed;
    if (reference_.empty() && pass.failed == 0) reference_ = pass.digests;
    return pass;
  }

  const std::string name_;
  const uint64_t seed_;
  const bool suite_;
  const bool disk_tier_;
  const std::string work_dir_;
  std::vector<rtc::SessionConfig> configs_;
  std::vector<uint64_t> reference_;
  LayerCounts counts_;
  double blob_bytes_mean_ = 0.0;
  int attempted_ = 0;
  int failed_ = 0;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

std::string Number(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  std::ostringstream os;
  os << std::setprecision(12) << *v;
  return os.str();
}

std::vector<double> Walls(const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s);
  return walls;
}

/// Pass walls in units of the calibration sample taken just before each, so
/// host drift between two blocks of passes cancels in their ratio.
std::vector<double> CalibratedWalls(const std::vector<Pass>& passes) {
  std::vector<double> walls;
  for (const Pass& p : passes) walls.push_back(p.wall_s / p.calibration_s);
  return walls;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Runs passes until `budget_s` has passed and at least `min_passes` ran,
/// each preceded by a calibration sample.
std::vector<Pass> RunPasses(Workload& w, double budget_s, size_t min_passes,
                            Tracing* tracing,
                            std::vector<double>& calibration) {
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < min_passes ||
         Seconds(start, Clock::now()) < budget_s) {
    calibration.push_back(CalibrationSeconds());
    passes.push_back(w.RunPass(tracing));
    passes.back().calibration_s = calibration.back();
  }
  return passes;
}

/// End-to-end metrics with tracing off.
std::vector<Metric> MeasureEndToEnd(Workload& w, double seconds, bool smoke,
                                    std::vector<Metric>& detail) {
  std::vector<double> calibration;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (smoke ? 1 : kSetupReps); ++rep) {
    calibration.push_back(CalibrationSeconds());
    const Clock::time_point start = Clock::now();
    w.SetUp();
    setup_s.push_back(Seconds(start, Clock::now()));
  }
  const std::vector<Pass> passes =
      RunPasses(w, seconds, smoke ? 1 : 3, nullptr, calibration);

  // op_ms_p50 is the median over ops of each op's median over passes.
  // Pooling the samples instead lets neighbouring ops (harnesses of similar
  // cost) swap ranks from run to run, which moves a pooled median by the gap
  // between them.
  std::vector<double> op_ms;
  std::vector<double> op_medians_ms;
  for (size_t i = 0; i < w.ops_per_pass(); ++i) {
    std::vector<double> samples;
    for (const Pass& p : passes) {
      if (i < p.op_s.size()) samples.push_back(p.op_s[i] * 1e3);
    }
    op_medians_ms.push_back(Median(samples));
    op_ms.insert(op_ms.end(), samples.begin(), samples.end());
  }
  const double raw_wall = Median(Walls(passes));
  const double wall = Normalize(raw_wall, calibration);
  const double sessions = static_cast<double>(passes.front().sessions);
  const auto norm = [&](std::optional<double> v) -> std::optional<double> {
    if (!v) return std::nullopt;
    return Normalize(*v, calibration);
  };

  std::vector<Metric> e2e = {
      {"setup_s", Normalize(Median(setup_s), calibration), "s"},
      {"wall_s", wall, "s"},
      {"sessions_per_s", sessions / wall, "1/s"},
      {"op_ms_p50", Normalize(Median(op_medians_ms), calibration), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  detail = {
      {"setup_s.raw", Median(setup_s), "s"},
      {"wall_s.raw", raw_wall, "s"},
      {"op_ms_p50.raw", Median(op_medians_ms), "ms"},
      {"op_ms_p90", norm(Percentile(op_ms, 0.90)), "ms"},
      {"op_ms_p99", norm(Percentile(op_ms, 0.99)), "ms"},
      {"op_ms.samples", static_cast<double>(op_ms.size()), "count"},
      {"passes", static_cast<double>(passes.size()), "count"},
      {"sessions_per_pass", sessions, "count"},
      {"calibration_s", Median(calibration), "s"},
  };
  if (!w.suite()) {
    detail.push_back(
        {"sim_s_per_s", sessions * kMatrixSessionSeconds / wall, "s/s"});
  }
  return e2e;
}

/// Per-layer metrics from a traced run.
std::vector<Metric> MeasurePerLayer(Workload& w, double seconds, bool smoke,
                                    Tracing& tracing,
                                    std::vector<Metric>& detail) {
  std::vector<double> calibration;
  calibration.push_back(CalibrationSeconds());
  w.SetUp();
  const size_t min_passes = smoke ? 1 : 2;
  const std::vector<Pass> untraced =
      RunPasses(w, seconds / 2, min_passes, nullptr, calibration);

  obs::RuntimeStats::Instance().Reset();
  obs::StageTimer::Reset();
  obs::StageTimer::Enable(true);
  tracing.spans.Enable();
  const size_t min_traced =
      w.suite() ? min_passes
                : std::max(min_passes, (kMinTailSamples + w.ops_per_pass() - 1) /
                                           w.ops_per_pass());
  const std::vector<Pass> traced =
      RunPasses(w, seconds / 2, min_traced, &tracing, calibration);
  obs::StageTimer::Enable(false);
  const obs::RegistrySnapshot runtime = obs::RuntimeStats::Instance().Snapshot();

  const auto counter = [&](const char* name) {
    const obs::MetricSnapshot* m = runtime.Find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->counter);
  };
  const auto gauge = [&](const char* name) {
    const obs::MetricSnapshot* m = runtime.Find(name);
    return m == nullptr ? 0.0 : m->gauge;
  };
  const obs::MetricSnapshot* session_ms = runtime.Find("wall.session_ms");
  // Event-loop wall of every session the traced passes simulated.
  const double loop_s = session_ms != nullptr ? session_ms->sketch.sum() / 1e3
                                              : 0.0;
  const double simulated = counter("wall.sessions");
  const double events = counter("wall.events");
  const double dispatched = counter("wall.events_dispatched");
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  std::vector<Metric> m;
  m.push_back({"obs.stage_timer_overhead",
               per(Median(CalibratedWalls(traced)),
                   Median(CalibratedWalls(untraced))) -
                   1.0,
               "ratio"});
  const std::pair<const char*, obs::StageTimer::Stage> stages[] = {
      {"codec.control_frac", obs::StageTimer::kControl},
      {"codec.rd_frac", obs::StageTimer::kRd},
      {"cc.trendline_frac", obs::StageTimer::kTrendline},
      {"transport.pacer_frac", obs::StageTimer::kPacer},
      {"net.link_frac", obs::StageTimer::kLink},
      {"transport.feedback_nack_frac", obs::StageTimer::kFeedbackNack},
      {"transport.assembler_frac", obs::StageTimer::kAssembler},
  };
  double attributed = 0.0;
  for (const auto& [name, stage] : stages) {
    const double frac = per(obs::StageTimer::Seconds(stage), loop_s);
    attributed += frac;
    m.push_back({name, frac, "frac"});
  }
  m.push_back({"sim.other_frac", loop_s > 0.0 ? 1.0 - attributed : 0.0, "frac"});
  m.push_back(
      {"sim.events_per_session", per(events, simulated), "count/session"});
  m.push_back({"sim.dispatches_per_session", per(dispatched, simulated),
               "count/session"});
  m.push_back({"sim.train_amortization", per(events, dispatched), "ratio"});
  m.push_back({"sim.ns_per_event",
               Normalize(per(loop_s, events) * 1e9, calibration), "ns"});

  const auto norm_median = [&](const std::vector<double>& s, double scale) {
    return s.empty() ? 0.0 : Normalize(Median(s) * scale, calibration);
  };
  const auto norm_p90 = [&](const std::vector<double>& s,
                            double scale) -> std::optional<double> {
    if (s.empty()) return 0.0;
    const std::optional<double> p = Percentile(s, 0.90);
    if (!p) return std::nullopt;
    return Normalize(*p * scale, calibration);
  };
  m.push_back({"rtc.construct_us.p50", norm_median(tracing.construct_s, 1e6),
               "us"});
  m.push_back(
      {"rtc.construct_us.p90", norm_p90(tracing.construct_s, 1e6), "us"});
  m.push_back({"rtc.run_ms.p50", norm_median(tracing.run_s, 1e3), "ms"});
  m.push_back({"rtc.run_ms.p90", norm_p90(tracing.run_s, 1e3), "ms"});

  uint64_t traced_sessions = 0;
  uint64_t traced_bytes = 0;
  for (const Pass& p : traced) {
    traced_sessions += p.sessions;
    traced_bytes += p.alloc_bytes;
  }
  m.push_back({"util.allocs_per_frame", gauge("alloc.per_frame"),
               "alloc/frame"});
  m.push_back({"util.alloc_bytes_per_session",
               per(static_cast<double>(traced_bytes),
                   static_cast<double>(traced_sessions)),
               "B/session"});

  const LayerCounts& c = w.counts();
  m.push_back({"transport.packets_per_frame",
               per(static_cast<double>(c.packets),
                   c.Counter("encoder.frames_encoded")),
               "pkt/frame"});
  m.push_back({"net.tail_drops", c.PerSession(c.Counter("net.tail_drops")),
               "count/session"});
  m.push_back({"net.random_losses",
               c.PerSession(static_cast<double>(c.random_losses)),
               "count/session"});
  m.push_back({"net.bytes_delivered",
               c.PerSession(static_cast<double>(c.bytes_delivered)),
               "B/session"});
  const std::pair<const char*, const char*> registry_counts[] = {
      {"codec.frames_encoded", "encoder.frames_encoded"},
      {"codec.frames_skipped", "encoder.frames_skipped"},
      {"codec.reencodes", "encoder.reencodes"},
      {"codec.keyframes", "encoder.keyframes"},
      {"cc.feedback_updates", "cc.feedback_updates"},
      {"cc.overuse_signals", "cc.overuse_signals"},
      {"fault.applied", "fault.applied"},
      {"core.breaker_opens", "breaker.opens"},
  };
  for (const auto& [name, source] : registry_counts) {
    m.push_back({name, c.PerSession(c.Counter(source)), "count/session"});
  }

  // The runner and harness layers run only in the suites; a matrix
  // workload reports 0 for them.
  Probes probes;
  if (w.suite()) probes = w.RunProbes(&tracing, calibration);
  const auto norm_s = [&](double raw) { return Normalize(raw, calibration); };
  m.push_back({"runner.sim_s",
               norm_s(probes.cold_memory.wall_s - probes.warm_memory.wall_s),
               "s"});
  m.push_back({"runner.cache.read_s",
               norm_s(probes.warm_disk.wall_s - probes.warm_memory.wall_s),
               "s"});
  m.push_back({"runner.cache.write_s",
               norm_s(probes.cold_disk.wall_s - probes.cold_memory.wall_s),
               "s"});
  m.push_back({"bench.harness_s", norm_s(probes.warm_memory.wall_s), "s"});

  const runner::ResultCache::Stats& cache = traced.back().cache;
  const double hits = static_cast<double>(cache.memory_hits + cache.disk_hits);
  m.push_back({"runner.cache.hit_rate",
               per(hits, hits + static_cast<double>(cache.computes)), "frac"});
  m.push_back({"runner.cache.computes", static_cast<double>(cache.computes),
               "count/pass"});
  m.push_back({"runner.cache.disk_hits", static_cast<double>(cache.disk_hits),
               "count/pass"});
  m.push_back({"runner.cache.stores",
               static_cast<double>(probes.cold_disk.cache.stores),
               "count/pass"});
  m.push_back({"runner.cache.corrupt", static_cast<double>(cache.corrupt),
               "count/pass"});
  m.push_back({"runner.cache.blob_bytes_mean", w.blob_bytes_mean(), "B"});

  const std::vector<bench::BenchEntry>& entries = bench::AllBenches();
  for (size_t h = 0; h < entries.size(); ++h) {
    const std::string prefix = std::string("bench.") + entries[h].name;
    const auto op_ms = [&](const Pass& p) {
      return h < p.op_s.size() ? norm_s(p.op_s[h] * 1e3) : 0.0;
    };
    m.push_back({prefix + ".cold_ms", op_ms(probes.cold_memory), "ms"});
    m.push_back({prefix + ".warm_ms", op_ms(probes.warm_disk), "ms"});
  }

  detail = {
      {"untraced_passes", static_cast<double>(untraced.size()), "count"},
      {"traced_passes", static_cast<double>(traced.size()), "count"},
      {"rtc.samples", static_cast<double>(tracing.run_s.size()), "count"},
      {"sim.sessions", simulated, "count"},
      {"calibration_s", Median(calibration), "s"},
  };
  return m;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << '{';
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << Number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << '}';
  return os.str();
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = "build/benchmark/work";
  std::string out_dir = "build/benchmark/results";
  try {
    const Flags flags(argc - 1, argv + 1);
    for (const std::string& key : flags.UnknownKeys(
             {"workload", "seed", "seconds", "trace", "smoke", "work-dir",
              "out-dir"})) {
      throw std::invalid_argument("unknown flag --" + key);
    }
    workload = flags.GetString("workload", "");
    seed = static_cast<uint64_t>(flags.GetInt("seed", 1, 0, 1'000'000'000));
    seconds = flags.GetDouble("seconds", 10.0);
    trace = flags.GetInt("trace", 0, 0, 1) == 1;
    smoke = flags.GetBool("smoke", false);
    work_dir = flags.GetString("work-dir", work_dir);
    out_dir = flags.GetString("out-dir", out_dir);
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), workload) ==
        std::end(kWorkloads)) {
      throw std::invalid_argument("--workload must be one of suite-cold, "
                                  "suite-warm, high-rate, lossy-low-rate");
    }
    if (!(seconds > 0.0 && seconds <= 600.0)) {
      throw std::invalid_argument("--seconds must be in (0, 600]");
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what()
              << "\nusage: " << argv[0]
              << " --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]"
                 " [--smoke] [--work-dir=DIR] [--out-dir=DIR]\n";
    return 2;
  }

  // Harnesses write side files (fig11's traces) to the working directory,
  // so every run works in its own directory.
  const std::filesystem::path out = std::filesystem::absolute(out_dir);
  const std::filesystem::path work =
      std::filesystem::absolute(work_dir) / (workload + (trace ? ".traced" : ""));
  const std::filesystem::path launch_dir = std::filesystem::current_path();
  std::filesystem::create_directories(out);
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  std::filesystem::current_path(work);

  const Clock::time_point origin = Clock::now();
  Workload w(workload, seed, work.string());
  Tracing tracing;
  std::vector<Metric> detail;
  const std::vector<Metric> metrics =
      trace ? MeasurePerLayer(w, seconds, smoke, tracing, detail)
            : MeasureEndToEnd(w, seconds, smoke, detail);
  std::filesystem::current_path(launch_dir);
  std::filesystem::remove_all(work);
  const std::string stem = (out / workload).string() + (trace ? ".traced" : "");
  if (trace && !tracing.spans.Write(stem + ".trace.json", origin)) {
    std::cerr << "error: cannot write " << stem << ".trace.json\n";
    return 1;
  }

  std::ostringstream digest;
  digest << std::hex << std::setw(16) << std::setfill('0') << w.OutputDigest();
  const double error_rate =
      static_cast<double>(w.failed()) / std::max(1, w.attempted());
  detail.push_back({"error_rate", error_rate, "ratio"});
  std::vector<Metric> lines = metrics;
  lines.insert(lines.end(), detail.begin(), detail.end());
  for (const Metric& m : lines) {
    std::cout << workload << ' ' << m.name << ' ' << Number(m.value) << ' '
              << m.unit << '\n';
  }
  std::cout << workload << " digest " << digest.str() << " -\n";

  std::ostringstream json;
  json << "{\"correct\": " << (w.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << w.attempted()
       << ", \"failed\": " << w.failed()
       << ", \"metrics\": " << MetricsJson(metrics) << '}';
  std::ofstream results(stem + ".json", std::ios::binary | std::ios::trunc);
  results << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
          << ", \"trace\": " << (trace ? 1 : 0) << ", \"digest\": \""
          << digest.str() << "\", \"result\": " << json.str()
          << ", \"detail\": " << MetricsJson(detail) << "}\n";
  std::cout << json.str() << std::endl;
  return w.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rave::benchmark

int main(int argc, char** argv) { return rave::benchmark::Main(argc, argv); }
