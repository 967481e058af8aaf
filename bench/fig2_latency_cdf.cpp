// Figure 2: CDF of per-frame end-to-end latency over the drop-trace suite
// (single drops, drop+recover, staircase, LTE-like random walks) x all
// content classes, for the baseline and the adaptive encoder.
//
// Prints the latency at fixed CDF percentiles for each scheme — the series a
// CDF plot would be drawn from — plus per-trace means.
#include <iostream>
#include <map>

#include "common.h"
#include "obs/sketch.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig2LatencyCdfMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const auto suite = bench::TraceSuite(duration);
  const auto wireless = bench::WirelessSuite(duration, options.wireless);

  std::vector<rtc::SessionConfig> configs;
  configs.reserve((suite.size() * std::size(video::kAllContentClasses) +
                   wireless.size()) *
                  2);
  for (const auto& [name, trace] : suite) {
    for (video::ContentClass content : video::kAllContentClasses) {
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        configs.push_back(
            bench::DefaultConfig(scheme, trace, content, duration, 7));
      }
    }
  }
  // Wireless tier: every profile rides the same matrix (talking-head
  // content keeps the added cell count proportionate).
  for (const fault::WirelessProfile& profile : wireless) {
    for (rtc::Scheme scheme :
         {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
      rtc::SessionConfig config = bench::DefaultConfig(
          scheme, net::CapacityTrace::Constant(
                      DataRate::KilobitsPerSec(bench::kBaseRateKbps)),
          video::ContentClass::kTalkingHead, duration, 7);
      bench::ApplyWirelessProfile(config, profile);
      configs.push_back(std::move(config));
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  // Per-scheme aggregation is a sketch merge: O(sketch) memory however many
  // sessions/frames the sweep covers, and the same percentiles (within the
  // sketch's documented 2.2% relative error) as the old exact vectors.
  std::map<rtc::Scheme, obs::QuantileSketch> latencies;
  Table per_trace({"trace", "content", "abr-mean(ms)", "adaptive-mean(ms)",
                   "reduction(%)"});

  size_t next = 0;
  for (const auto& [name, trace] : suite) {
    for (video::ContentClass content : video::kAllContentClasses) {
      double mean[2] = {0, 0};
      int i = 0;
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        const rtc::SessionResult& result = *results[next++];
        if (const obs::QuantileSketch* s = bench::LatencySketch(result)) {
          latencies[scheme].Merge(*s);
        }
        mean[i++] = result.summary.latency_mean_ms;
      }
      per_trace.AddRow()
          .Cell(name)
          .Cell(ToString(content))
          .Cell(mean[0], 1)
          .Cell(mean[1], 1)
          .Cell(bench::ReductionPercent(mean[0], mean[1]), 1);
    }
  }
  for (const fault::WirelessProfile& profile : wireless) {
    double mean[2] = {0, 0};
    int i = 0;
    for (rtc::Scheme scheme :
         {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
      const rtc::SessionResult& result = *results[next++];
      if (const obs::QuantileSketch* s = bench::LatencySketch(result)) {
        latencies[scheme].Merge(*s);
      }
      mean[i++] = result.summary.latency_mean_ms;
    }
    per_trace.AddRow()
        .Cell("wl:" + profile.name)
        .Cell(ToString(video::ContentClass::kTalkingHead))
        .Cell(mean[0], 1)
        .Cell(mean[1], 1)
        .Cell(bench::ReductionPercent(mean[0], mean[1]), 1);
  }

  std::cout << "Fig 2: per-frame latency CDF over the drop-trace suite"
               " + wireless tier\n\n";
  Table cdf({"percentile", "x264-abr(ms)", "rave-adaptive(ms)"});
  for (double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999}) {
    cdf.AddRow()
        .Cell(q, 3)
        .Cell(latencies[rtc::Scheme::kX264Abr].Quantile(q), 1)
        .Cell(latencies[rtc::Scheme::kAdaptive].Quantile(q), 1);
  }
  cdf.Print(std::cout);

  std::cout << "\nPer-trace means:\n";
  per_trace.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig2LatencyCdfMain(argc, argv);
}
#endif
