// Single-process suite orchestrator: runs every figure/table harness
// in-process against one shared session-result cache.
//
// Each bench's stdout is captured and tee'd to `BENCH_<name>.out` (so runs
// can be diffed byte-for-byte against standalone binaries and against
// cold/warm cache passes), and `BENCH_suite.json` records per-bench wall
// clock, sessions simulated vs served from cache, and the aggregate
// speedup. Because all benches share one process, a session that several
// harnesses request (same trace/content/seed/scheme) is simulated exactly
// once per suite run even without a disk cache — and with `--cache-dir`
// (or RAVE_CACHE_DIR) a warm rerun skips simulation entirely.
//
// BENCH_suite.json carries three metric sections:
//   "metrics"  — the deterministic merge of every session's metric registry
//                (counters, gauges, sketch percentiles); identical
//                between cold and warm passes and across job counts.
//   "sketches" — one line per merged quantile sketch: exact count/sum/
//                min/max, the standard percentile ladder, and the encoded
//                sketch blob as hex. Byte-identical across --jobs, cache
//                temperature, and merge order (the sketch's core
//                contract); determinism gates compare this section directly.
//   "runtime"  — host-side wall-clock / allocation roll-ups from
//                obs::RuntimeStats plus cache hit rates; excluded from
//                determinism comparisons by construction.
//
// At default durations the BENCH_<name>.out captures and the "metrics" and
// "sketches" sections are pinned to committed goldens (tests/golden/, gated
// by the suite_golden ctest). `--progress` emits a stderr-only heartbeat
// while the suite runs.
//
// Usage:
//   run_suite [--jobs=N] [--duration=SECONDS] [--cache-dir=DIR]
//             [--out-dir=DIR] [--only=fig1_timeline,tab5_schemes,...]
//             [--progress] [--log-level=LEVEL] [--list] [--version]
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/metrics_registry.h"
#include "obs/sketch.h"
#include "registry.h"
#include "runner/result_cache.h"
#include "runner/version.h"
#include "util/byteio.h"
#include "util/flags.h"
#include "util/logging.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct BenchReport {
  std::string name;
  int exit_code = 0;
  double wall_ms = 0.0;
  uint64_t sessions_computed = 0;
  uint64_t cache_hits = 0;
  double saved_ms = 0.0;
};

/// JSON number formatting: fixed with enough precision, no locale traps.
std::string Num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// max_digits10 formatting for the determinism-gated "sketches" section:
/// equal strings mean equal double bits.
std::string NumExact(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// One JSON line per metric, mirroring the MetricSnapshot schema.
/// Distributions come with interpolated p50/p95/p99, so the suite report is
/// directly plottable without re-deriving percentiles from buckets.
void WriteMetricsJson(std::ostream& json, const char* indent,
                      const rave::obs::RegistrySnapshot& snapshot) {
  using rave::obs::MetricKind;
  for (size_t i = 0; i < snapshot.metrics.size(); ++i) {
    const rave::obs::MetricSnapshot& m = snapshot.metrics[i];
    json << indent << "{\"name\": \"" << m.name << "\", ";
    switch (m.kind) {
      case MetricKind::kCounter:
        json << "\"kind\": \"counter\", \"value\": " << m.counter;
        break;
      case MetricKind::kGauge:
        json << "\"kind\": \"gauge\", \"value\": " << Num(m.gauge);
        break;
      case MetricKind::kSketch:
        json << "\"kind\": \"sketch\", \"count\": " << m.sketch.count()
             << ", \"sum\": " << Num(m.sketch.sum())
             << ", \"min\": " << Num(m.sketch.min())
             << ", \"max\": " << Num(m.sketch.max())
             << ", \"p50\": " << Num(m.Percentile(0.50))
             << ", \"p95\": " << Num(m.Percentile(0.95))
             << ", \"p99\": " << Num(m.Percentile(0.99));
        break;
    }
    json << "}" << (i + 1 < snapshot.metrics.size() ? "," : "") << '\n';
  }
}

/// The determinism-gated "sketches" section: one single-line JSON object per
/// merged quantile sketch, values formatted bit-exactly, plus the encoded
/// sketch as hex. Gates byte-compare these lines across --jobs and
/// cache-temperature variants — the hex blob makes any internal divergence
/// (not just percentile drift) visible.
void WriteSketchesJson(std::ostream& json, const char* indent,
                       const rave::obs::RegistrySnapshot& snapshot) {
  using rave::obs::MetricKind;
  std::vector<const rave::obs::MetricSnapshot*> sketches;
  for (const rave::obs::MetricSnapshot& m : snapshot.metrics) {
    if (m.kind == MetricKind::kSketch) sketches.push_back(&m);
  }
  for (size_t i = 0; i < sketches.size(); ++i) {
    const rave::obs::MetricSnapshot& m = *sketches[i];
    rave::ByteWriter w;
    m.sketch.Encode(w);
    const std::vector<uint8_t>& bytes = w.bytes();
    json << indent << "{\"name\": \"" << m.name
         << "\", \"count\": " << m.sketch.count()
         << ", \"sum\": " << NumExact(m.sketch.sum())
         << ", \"min\": " << NumExact(m.sketch.min())
         << ", \"max\": " << NumExact(m.sketch.max())
         << ", \"p50\": " << NumExact(m.sketch.Quantile(0.50))
         << ", \"p90\": " << NumExact(m.sketch.Quantile(0.90))
         << ", \"p95\": " << NumExact(m.sketch.Quantile(0.95))
         << ", \"p99\": " << NumExact(m.sketch.Quantile(0.99))
         << ", \"p999\": " << NumExact(m.sketch.Quantile(0.999))
         << ", \"bytes\": " << bytes.size() << ", \"blob\": \"";
    static const char kHex[] = "0123456789abcdef";
    for (uint8_t b : bytes) json << kHex[b >> 4] << kHex[b & 0xf];
    json << "\"}" << (i + 1 < sketches.size() ? "," : "") << '\n';
  }
}

/// `run_suite --list`: the bench registry with descriptions and outputs.
void PrintBenchList(std::ostream& os) {
  os << "available benches (run a subset with --only=name,name,...):\n";
  for (const rave::bench::BenchEntry& e : rave::bench::AllBenches()) {
    os << "  " << e.name << "\n      " << e.description
       << "\n      outputs: BENCH_" << e.name << ".out";
    if (e.outputs != nullptr && std::string(e.outputs) != "-") {
      os << ' ' << e.outputs;
    }
    os << '\n';
  }
}

/// Stderr-only heartbeat for long suite runs (--progress): which bench is
/// in flight, sessions simulated/cached so far, hit rate, sessions/sec.
/// Never touches stdout, so tee'd bench captures stay byte-identical.
class ProgressReporter {
 public:
  ProgressReporter(bool enabled, const rave::runner::ResultCache& cache,
                   size_t total_benches)
      : enabled_(enabled), cache_(cache), total_benches_(total_benches) {
    if (!enabled_) return;
    start_ = Clock::now();
    thread_ = std::thread([this] { Loop(); });
  }

  ~ProgressReporter() {
    if (!enabled_) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void BeginBench(const std::string& name, size_t index) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = name;
    index_ = index;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::seconds(2),
                         [this] { return done_; })) {
      const std::string current = current_;
      const size_t index = index_;
      lock.unlock();
      const rave::runner::ResultCache::Stats s = cache_.stats();
      const uint64_t hits = s.memory_hits + s.disk_hits;
      const uint64_t lookups = s.computes + hits;
      const double elapsed_s =
          std::chrono::duration<double>(Clock::now() - start_).count();
      std::ostringstream os;
      os << "[progress] bench " << index << "/" << total_benches_;
      if (!current.empty()) os << " " << current;
      os << ": " << s.computes << " simulated, " << hits << " cached";
      if (lookups > 0) {
        os << " (hit " << std::fixed << std::setprecision(0)
           << 100.0 * static_cast<double>(hits) /
                  static_cast<double>(lookups)
           << "%)";
      }
      if (elapsed_s > 0.0) {
        os << ", " << std::fixed << std::setprecision(1)
           << static_cast<double>(s.computes) / elapsed_s << " sessions/s";
      }
      os << '\n';
      std::cerr << os.str();
      lock.lock();
    }
  }

  const bool enabled_;
  const rave::runner::ResultCache& cache_;
  const size_t total_benches_;
  Clock::time_point start_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::string current_;
  size_t index_ = 0;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using rave::Flags;
  namespace bench = rave::bench;
  namespace runner = rave::runner;

  int jobs = 0;
  double duration_s = 0.0;
  bool progress = false;
  std::string cache_dir;
  std::string out_dir = ".";
  std::string benches_csv;
  try {
    const Flags flags(argc - 1, argv + 1);
    for (const std::string& key : flags.UnknownKeys(
             {"jobs", "duration", "cache-dir", "out-dir", "only",
              "log-level", "list", "version", "progress"})) {
      std::cerr << "error: unknown flag --" << key << "\nusage: " << argv[0]
                << " [--jobs=N] [--duration=SECONDS]"
                   " [--cache-dir=DIR] [--out-dir=DIR] [--only=name,name,...]"
                   " [--progress] [--log-level=LEVEL] [--list] [--version]\n";
      return 2;
    }
    if (flags.GetBool("version", false)) {
      std::cout << runner::VersionString();
      return 0;
    }
    if (flags.GetBool("list", false)) {
      PrintBenchList(std::cout);
      return 0;
    }
    jobs = static_cast<int>(flags.GetInt("jobs", 0, 0, 1 << 16));
    duration_s = flags.GetDouble("duration", 0.0);
    progress = flags.GetBool("progress", false);
    cache_dir = flags.GetString("cache-dir", "");
    out_dir = flags.GetString("out-dir", ".");
    benches_csv = flags.GetString("only", "");
    const std::string log_level = flags.GetString("log-level", "");
    if (!log_level.empty() && !rave::SetLogLevelFromString(log_level)) {
      std::cerr << "error: bad --log-level '" << log_level
                << "' (want debug|info|warning|error)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  if (cache_dir.empty()) {
    if (auto env = runner::ResultCache::DirFromEnv()) cache_dir = *env;
  }

  // Select benches (all, or the --only subset in the given order).
  std::vector<bench::BenchEntry> selected;
  if (benches_csv.empty()) {
    selected = bench::AllBenches();
  } else {
    std::istringstream iss(benches_csv);
    std::string name;
    while (std::getline(iss, name, ',')) {
      bool found = false;
      for (const bench::BenchEntry& e : bench::AllBenches()) {
        if (name == e.name) {
          selected.push_back(e);
          found = true;
          break;
        }
      }
      if (!found) {
        std::cerr << "error: unknown bench \"" << name << "\"\n";
        PrintBenchList(std::cerr);
        return 2;
      }
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  // Benches write their own artifacts (CSVs, fig11 trace captures) relative
  // to the working directory; move into --out-dir so everything lands next
  // to the BENCH_*.out captures and concurrent suites with distinct out-dirs
  // never collide on a filename. The cache dir must be resolved first or it
  // would silently re-anchor under out_dir.
  if (!cache_dir.empty()) {
    cache_dir = std::filesystem::absolute(cache_dir, ec).string();
  }
  std::filesystem::current_path(out_dir, ec);
  if (ec) {
    std::cerr << "error: cannot enter --out-dir " << out_dir << ": "
              << ec.message() << '\n';
    return 2;
  }
  out_dir = ".";

  // One cache for the whole suite. Even without a disk dir the in-memory
  // tier dedups sessions shared between benches within this run.
  runner::ResultCache::Options cache_options;
  cache_options.dir = cache_dir;
  cache_options.max_disk_bytes = runner::ResultCache::MaxDiskBytesFromEnv();
  runner::ResultCache cache(cache_options);
  bench::SetSuiteCache(&cache);
  bench::ResetSuiteMetrics();
  rave::obs::RuntimeStats::Instance().Reset();

  // Argv handed to every bench entry point: only flags ParseBenchOptions
  // knows, so no bench can bail out with exit(2).
  std::vector<std::string> bench_args;
  bench_args.push_back("run_suite");
  bench_args.push_back("--jobs=" + std::to_string(jobs));
  if (duration_s > 0.0) {
    std::ostringstream d;
    d << "--duration=" << duration_s;
    bench_args.push_back(d.str());
  }

  std::vector<BenchReport> reports;
  reports.reserve(selected.size());
  const Clock::time_point suite_start = Clock::now();
  int suite_exit = 0;

  ProgressReporter progress_reporter(progress, cache, selected.size());

  for (size_t bench_index = 0; bench_index < selected.size(); ++bench_index) {
    const bench::BenchEntry& entry = selected[bench_index];
    BenchReport report;
    report.name = entry.name;
    progress_reporter.BeginBench(entry.name, bench_index + 1);

    std::vector<std::string> args = bench_args;
    args[0] = std::string("run_suite/") + entry.name;
    std::vector<char*> argv_ptrs;
    argv_ptrs.reserve(args.size());
    for (std::string& a : args) argv_ptrs.push_back(a.data());

    const runner::ResultCache::Stats before = cache.stats();

    // Capture the bench's stdout; benches print their figures/tables there.
    std::ostringstream captured;
    std::streambuf* real_cout = std::cout.rdbuf(captured.rdbuf());
    const Clock::time_point start = Clock::now();
    try {
      report.exit_code =
          entry.entry(static_cast<int>(argv_ptrs.size()), argv_ptrs.data());
    } catch (const std::exception& e) {
      std::cout.rdbuf(real_cout);
      std::cerr << "error: bench " << entry.name << " threw: " << e.what()
                << '\n';
      report.exit_code = 1;
    }
    report.wall_ms = MsSince(start);
    std::cout.rdbuf(real_cout);

    const runner::ResultCache::Stats after = cache.stats();
    report.sessions_computed = after.computes - before.computes;
    report.cache_hits = (after.memory_hits + after.disk_hits) -
                        (before.memory_hits + before.disk_hits);
    report.saved_ms =
        static_cast<double>(after.saved_compute_us - before.saved_compute_us) /
        1000.0;
    if (report.exit_code != 0) suite_exit = 1;

    // Tee: the bench's normal output still reaches the console, and a
    // byte-identical copy lands next to the suite report for diffing.
    const std::string text = captured.str();
    std::cout << text;
    std::ofstream out(out_dir + "/BENCH_" + entry.name + ".out",
                      std::ios::binary | std::ios::trunc);
    if (out) out.write(text.data(), static_cast<std::streamsize>(text.size()));

    std::cerr << "[suite] " << entry.name << ": " << Num(report.wall_ms)
              << " ms, " << report.sessions_computed << " simulated, "
              << report.cache_hits << " cached";
    if (report.saved_ms > 0.0) {
      std::cerr << " (saved ~" << Num(report.saved_ms) << " ms)";
    }
    std::cerr << (report.exit_code == 0 ? "" : " [FAILED]") << '\n';
    reports.push_back(report);
  }

  const double suite_wall_ms = MsSince(suite_start);
  const runner::ResultCache::Stats total = cache.stats();
  const double total_saved_ms =
      static_cast<double>(total.saved_compute_us) / 1000.0;
  // Wall clock this suite would have needed with every hit simulated
  // instead, over the wall clock it actually took.
  const double est_speedup =
      suite_wall_ms > 0.0 ? (suite_wall_ms + total_saved_ms) / suite_wall_ms
                          : 1.0;

  std::ofstream json(out_dir + "/BENCH_suite.json",
                     std::ios::binary | std::ios::trunc);
  json << "{\n  \"jobs\": " << jobs << ",\n  \"duration_s\": " << Num(duration_s)
       << ",\n  \"cache_dir\": \"" << cache_dir << "\",\n  \"benches\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const BenchReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"exit_code\": " << r.exit_code
         << ", \"wall_ms\": " << Num(r.wall_ms)
         << ", \"sessions_computed\": " << r.sessions_computed
         << ", \"cache_hits\": " << r.cache_hits
         << ", \"saved_ms\": " << Num(r.saved_ms) << "}"
         << (i + 1 < reports.size() ? "," : "") << '\n';
  }
  json << "  ],\n  \"total\": {\"wall_ms\": " << Num(suite_wall_ms)
       << ", \"sessions_computed\": " << total.computes
       << ", \"memory_hits\": " << total.memory_hits
       << ", \"disk_hits\": " << total.disk_hits
       << ", \"stores\": " << total.stores
       << ", \"corrupt\": " << total.corrupt
       << ", \"stale\": " << total.stale
       << ", \"evictions\": " << total.evictions
       << ", \"saved_ms\": " << Num(total_saved_ms)
       << ", \"estimated_speedup\": " << Num(est_speedup) << "},\n";

  // Deterministic merge of every session's metric registry: identical for
  // cold vs warm cache passes and any --jobs value (sessions served from
  // cache carry the same snapshot the original run produced).
  json << "  \"metrics\": [\n";
  WriteMetricsJson(json, "    ", bench::SuiteMetrics());
  json << "  ],\n";

  // The merged quantile sketches, bit-exact values plus the encoded blob as
  // hex. Determinism gates byte-compare these lines across jobs/cache
  // variants; any divergence in the merge shows up here first.
  json << "  \"sketches\": [\n";
  WriteSketchesJson(json, "    ", bench::SuiteMetrics());
  json << "  ],\n";

  // Host-side roll-up (wall clock, allocations, cache hit rate). These
  // values change run to run; determinism gates filter this section out.
  const uint64_t lookups = total.computes + total.memory_hits + total.disk_hits;
  const double hit_rate =
      lookups > 0
          ? static_cast<double>(total.memory_hits + total.disk_hits) /
                static_cast<double>(lookups)
          : 0.0;
  json << "  \"runtime\": {\n    \"cache_hit_rate\": " << Num(hit_rate)
       << ",\n    \"stats\": [\n";
  WriteMetricsJson(json, "      ",
                   rave::obs::RuntimeStats::Instance().Snapshot());
  json << "    ]\n  }\n}\n";

  std::cerr << "[suite] total: " << Num(suite_wall_ms) << " ms, "
            << total.computes << " simulated, "
            << total.memory_hits + total.disk_hits << " cache hits, est. "
            << Num(est_speedup) << "x vs uncached\n";

  bench::SetSuiteCache(nullptr);
  return suite_exit;
}
