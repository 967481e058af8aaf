#include "common.h"

#include <cstdlib>
#include <iostream>
#include <memory>

#include "runner/parallel_runner.h"
#include "runner/result_cache.h"
#include "util/flags.h"
#include "util/logging.h"

namespace rave::bench {

namespace {

/// Process-wide cache pointer (see SuiteCache). Owned either by run_suite
/// (which calls SetSuiteCache with its own cache) or by `owned_cache` below
/// when a standalone bench enables caching via flag/environment.
runner::ResultCache* g_suite_cache = nullptr;
std::unique_ptr<runner::ResultCache> owned_cache;

/// Suite-wide metric aggregate (see SuiteMetrics). RunMatrix merges on the
/// calling thread only, so no locking is needed.
obs::RegistrySnapshot g_suite_metrics;

}  // namespace

runner::ResultCache* SuiteCache() { return g_suite_cache; }

void SetSuiteCache(runner::ResultCache* cache) { g_suite_cache = cache; }

TimeDelta BenchOptions::DurationOr(TimeDelta fallback) const {
  return duration_s > 0.0 ? TimeDelta::SecondsF(duration_s) : fallback;
}

BenchOptions ParseBenchOptions(int argc, char** argv) {
  try {
    const Flags flags(argc - 1, argv + 1);
    for (const std::string& key : flags.UnknownKeys(
             {"jobs", "duration", "cache-dir", "log-level", "wireless"})) {
      std::cerr << "error: unknown flag --" << key
                << "\nusage: " << argv[0]
                << " [--jobs=N] [--duration=SECONDS] [--cache-dir=DIR]"
                   " [--log-level=debug|info|warning|error]"
                   " [--wireless=PROFILE]\n";
      std::exit(2);
    }
    BenchOptions options;
    options.jobs = static_cast<int>(flags.GetInt("jobs", 0, 0, 1 << 16));
    options.duration_s = flags.GetDouble("duration", 0.0);
    options.cache_dir = flags.GetString("cache-dir", "");
    const std::string log_level = flags.GetString("log-level", "");
    if (!log_level.empty() && !SetLogLevelFromString(log_level)) {
      std::cerr << "error: bad --log-level '" << log_level
                << "' (want debug|info|warning|error)\n";
      std::exit(2);
    }
    options.wireless = flags.GetString("wireless", "");
    if (options.cache_dir.empty()) {
      if (auto env = runner::ResultCache::DirFromEnv()) {
        options.cache_dir = *env;
      }
    }
    // A suite-installed cache wins; otherwise a standalone bench that asked
    // for caching gets its own process-wide instance. No directory, no
    // cache — the default path is exactly the uncached behaviour.
    if (!options.cache_dir.empty() && SuiteCache() == nullptr) {
      runner::ResultCache::Options cache_options;
      cache_options.dir = options.cache_dir;
      cache_options.max_disk_bytes = runner::ResultCache::MaxDiskBytesFromEnv();
      owned_cache = std::make_unique<runner::ResultCache>(cache_options);
      SetSuiteCache(owned_cache.get());
    }
    return options;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    std::exit(2);
  }
}

std::vector<rtc::SharedSessionResult> RunMatrix(
    const std::vector<rtc::SessionConfig>& configs, int jobs) {
  std::vector<rtc::SharedSessionResult> results =
      runner::RunSessions(configs, jobs, SuiteCache());
  // Results arrive in submission order whatever the job count, so the
  // suite-wide merge is deterministic too.
  for (const rtc::SharedSessionResult& result : results) {
    g_suite_metrics.Merge(result->metrics);
  }
  return results;
}

const obs::RegistrySnapshot& SuiteMetrics() { return g_suite_metrics; }

void ResetSuiteMetrics() { g_suite_metrics = obs::RegistrySnapshot{}; }

void ResetBenchMetrics() {}

const obs::QuantileSketch* LatencySketch(const rtc::SessionResult& result) {
  const obs::MetricSnapshot* m = result.metrics.Find("frame.latency_ms");
  if (m == nullptr || m->kind != obs::MetricKind::kSketch) return nullptr;
  return &m->sketch;
}

rtc::SessionConfig DefaultConfig(rtc::Scheme scheme,
                                 Interned<net::CapacityTrace> trace,
                                 video::ContentClass content,
                                 TimeDelta duration, uint64_t seed) {
  rtc::SessionConfig config;
  config.scheme = scheme;
  config.duration = duration;
  config.seed = seed;
  config.source.content = content;
  config.link.trace = std::move(trace);
  // The paper's scenario is a saturated steady-state call hit by a drop, so
  // sessions start with the estimator warmed up near the link rate instead
  // of spending the pre-drop phase in GCC's slow ramp.
  config.initial_rate = DataRate::KilobitsPerSec(2100);
  return config;
}

net::CapacityTrace DropTrace(double severity) {
  const auto base = DataRate::KilobitsPerSec(kBaseRateKbps);
  const auto low = DataRate::KilobitsPerSecF(kBaseRateKbps * (1.0 - severity));
  return net::CapacityTrace::StepDrop(base, low, Timestamp::Seconds(10));
}

std::vector<std::pair<std::string, Interned<net::CapacityTrace>>> TraceSuite(
    TimeDelta duration) {
  const auto base = DataRate::KilobitsPerSec(kBaseRateKbps);
  std::vector<std::pair<std::string, Interned<net::CapacityTrace>>> suite;
  suite.reserve(12);

  for (double severity : {0.3, 0.5, 0.7}) {
    suite.emplace_back("drop" + std::to_string(static_cast<int>(severity * 100)),
                       DropTrace(severity));
    const auto low =
        DataRate::KilobitsPerSecF(kBaseRateKbps * (1.0 - severity));
    suite.emplace_back(
        "recover" + std::to_string(static_cast<int>(severity * 100)),
        net::CapacityTrace::StepDropAndRecover(base, low,
                                               Timestamp::Seconds(10),
                                               Timestamp::Seconds(25)));
  }

  // Staircase down: repeated partial drops.
  suite.emplace_back(
      "staircase",
      net::CapacityTrace::MultiStep({{Timestamp::Zero(), base},
                                     {Timestamp::Seconds(10),
                                      DataRate::KilobitsPerSec(1800)},
                                     {Timestamp::Seconds(20),
                                      DataRate::KilobitsPerSec(1200)},
                                     {Timestamp::Seconds(30),
                                      DataRate::KilobitsPerSec(700)}}));

  // LTE-like random walks.
  for (uint64_t seed : {11ULL, 23ULL}) {
    suite.emplace_back(
        "randomwalk" + std::to_string(seed),
        net::CapacityTrace::RandomWalk(
            DataRate::KilobitsPerSec(1800), 0.18, TimeDelta::Millis(500),
            duration, seed, DataRate::KilobitsPerSec(400),
            DataRate::KilobitsPerSec(4000)));
  }
  return suite;
}

std::vector<fault::WirelessProfile> WirelessSuite(TimeDelta duration,
                                                  const std::string& filter) {
  std::vector<fault::WirelessProfile> suite;
  if (!filter.empty()) {
    suite.push_back(fault::MakeWirelessProfile(filter, duration));
    return suite;
  }
  for (const std::string& name : fault::WirelessProfileNames()) {
    suite.push_back(fault::MakeWirelessProfile(name, duration));
  }
  return suite;
}

void ApplyWirelessProfile(rtc::SessionConfig& config,
                          const fault::WirelessProfile& profile) {
  config.link.trace = Interned<net::CapacityTrace>(profile.trace);
  config.link.loss = profile.loss;
  if (!profile.faults.empty()) {
    // Merge profile events with any the config already carries (chaos
    // combos stack a blackhole/outage on top of a wireless scenario);
    // FaultPlan re-validates the union.
    std::vector<fault::FaultEvent> events = config.faults->events();
    const std::vector<fault::FaultEvent>& extra = profile.faults.events();
    events.insert(events.end(), extra.begin(), extra.end());
    config.faults = fault::FaultPlan(std::move(events));
  }
  config.wireless_profile = profile.name;
}

double ReductionPercent(double baseline, double treatment) {
  if (baseline <= 0.0) return 0.0;
  return (1.0 - treatment / baseline) * 100.0;
}

}  // namespace rave::bench
