// Shared helpers for the experiment harnesses: canonical session
// configurations (so every bench runs the same well-documented setup), the
// drop-trace suite, parallel matrix execution, command-line handling and
// small formatting utilities.
#pragma once

#include <string>
#include <vector>

#include "fault/wireless_profiles.h"
#include "net/capacity_trace.h"
#include "obs/metrics_registry.h"
#include "rtc/session.h"
#include "util/interned.h"
#include "util/time.h"
#include "util/units.h"
#include "video/content_model.h"

namespace rave::runner {
class ResultCache;
}  // namespace rave::runner

namespace rave::bench {

/// Canonical link rate before any drop.
inline constexpr int64_t kBaseRateKbps = 2500;

/// Command-line options shared by every bench binary.
struct BenchOptions {
  /// Worker threads for the session matrix; 0 means hardware concurrency.
  int jobs = 0;
  /// Session duration override in seconds, <= 0 means "use the bench's
  /// default". Smoke runs pass a short value (the canonical drop is at
  /// t = 10 s, so overrides below ~12 s lose the post-drop phase).
  double duration_s = 0.0;
  /// Session-result cache directory (--cache-dir / RAVE_CACHE_DIR); empty
  /// means no cache — today's exact behaviour.
  std::string cache_dir;
  /// Wireless-profile filter (--wireless=NAME): benches with a wireless
  /// tier restrict their matrix to this profile. Empty = all profiles.
  std::string wireless;

  /// The bench's default duration unless overridden on the command line.
  TimeDelta DurationOr(TimeDelta fallback) const;
};

/// Parses `--jobs=N` / `--duration=S` / `--cache-dir=DIR` /
/// `--log-level=LEVEL` / `--wireless=PROFILE`. Exits (status 2) on unknown
/// flags so typos fail loudly. Every bench binary calls this first. When a
/// cache directory is configured (flag, or the RAVE_CACHE_DIR environment
/// variable) and no suite cache is already installed, this creates a
/// process-wide ResultCache that RunMatrix then consults.
BenchOptions ParseBenchOptions(int argc, char** argv);

/// The process-wide session-result cache (nullptr = caching disabled).
/// `run_suite` installs one shared cache before invoking each bench entry
/// point; standalone binaries get one from ParseBenchOptions when asked.
runner::ResultCache* SuiteCache();
/// Installs `cache` as the process-wide cache (nullptr to uninstall). The
/// caller keeps ownership.
void SetSuiteCache(runner::ResultCache* cache);

/// Runs every config (in parallel when jobs != 1) and returns results in
/// submission order — byte-identical output to a serial run regardless of
/// the job count or cache state. Consults SuiteCache() when installed (the
/// results then share the cache's entries), and merges each result's
/// metrics snapshot into SuiteMetrics().
std::vector<rtc::SharedSessionResult> RunMatrix(
    const std::vector<rtc::SessionConfig>& configs, int jobs);

/// Process-wide merge of the per-session metric registries of every session
/// RunMatrix has executed (or served from cache) so far. Deterministic:
/// only sim-derived values reach SessionResult::metrics, and RunMatrix
/// merges in submission order, so a cold and a warm suite run aggregate to
/// the same snapshot. run_suite writes this as BENCH_suite.json "metrics".
const obs::RegistrySnapshot& SuiteMetrics();
void ResetSuiteMetrics();

/// Does nothing. Its last caller is `RunHarnesses` in benchmark/driver.cpp,
/// which calls it before each suite pass; delete it together with that
/// call.
void ResetBenchMetrics();

/// The session's merged per-frame latency sketch (`frame.latency_ms` in
/// result.metrics) — the O(sketch)-memory source for every cross-session
/// latency percentile. nullptr only for results predating the sketch.
const obs::QuantileSketch* LatencySketch(const rtc::SessionResult& result);

/// Builds the default session configuration used across experiments:
/// 720p30, 2.5 Mbps initial estimate, 50 ms RTT (25 ms each way), 50 ms
/// feedback interval, deep (~3 s at 1 Mbps) bottleneck buffer. The trace
/// handle is shared into the config (no per-config deep copy); plain
/// CapacityTrace arguments still convert implicitly.
rtc::SessionConfig DefaultConfig(rtc::Scheme scheme,
                                 Interned<net::CapacityTrace> trace,
                                 video::ContentClass content,
                                 TimeDelta duration, uint64_t seed);

/// A single-step drop to (1 - severity) * base at t = 10 s.
net::CapacityTrace DropTrace(double severity);

/// The drop-trace suite used by CDF experiments: three severities x
/// {single-drop, drop+recover, staircase-down} = 9 traces + 3 random walks.
/// Traces come pre-interned: every config built from one entry shares the
/// same step vector.
std::vector<std::pair<std::string, Interned<net::CapacityTrace>>> TraceSuite(
    TimeDelta duration);

/// The wireless tier for matrix builders: every registered profile built at
/// `duration` (or just the one named by `filter` when non-empty — unknown
/// names throw, listing the registry).
std::vector<fault::WirelessProfile> WirelessSuite(TimeDelta duration,
                                                  const std::string& filter =
                                                      "");

/// Installs a wireless profile into a session config: capacity trace
/// (interned), base loss model, fault plan (profile events merged with any
/// the config already carries), and the profile name for the session key.
void ApplyWirelessProfile(rtc::SessionConfig& config,
                          const fault::WirelessProfile& profile);

/// Mean latency reduction of `treatment` vs `baseline` in percent.
double ReductionPercent(double baseline, double treatment);

}  // namespace rave::bench
