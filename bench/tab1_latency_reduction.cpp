// Table 1 (headline): capture-to-display latency of the baseline vs the
// adaptive encoder across drop severities and content classes, averaged over
// seeds. The paper's abstract reports latency reductions of 28.66%-78.87%;
// this harness regenerates the corresponding sweep.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Tab1LatencyReductionMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(4 * std::size(video::kAllContentClasses) * 3 * 2);
  for (double severity : {0.2, 0.3, 0.5, 0.7}) {
    const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(severity);
    for (video::ContentClass content : video::kAllContentClasses) {
      for (uint64_t seed : seeds) {
        for (rtc::Scheme scheme :
             {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
          configs.push_back(bench::DefaultConfig(scheme, drop_trace, content,
                                                 duration, seed));
        }
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  Table table({"severity", "content", "abr-mean(ms)", "adp-mean(ms)",
               "mean-red(%)", "abr-p95(ms)", "adp-p95(ms)", "p95-red(%)"});

  size_t next = 0;
  double min_red = 1e9;
  double max_red = -1e9;
  for (double severity : {0.2, 0.3, 0.5, 0.7}) {
    double sev_mean_red = 0.0;
    int cells = 0;
    for (video::ContentClass content : video::kAllContentClasses) {
      double mean[2] = {0, 0};
      double p95[2] = {0, 0};
      for ([[maybe_unused]] uint64_t seed : seeds) {
        for (int i = 0; i < 2; ++i) {
          const rtc::SessionResult& result = *results[next++];
          mean[i] += result.summary.latency_mean_ms / std::size(seeds);
          p95[i] += result.summary.latency_p95_ms / std::size(seeds);
        }
      }
      const double red = bench::ReductionPercent(mean[0], mean[1]);
      min_red = std::min(min_red, red);
      max_red = std::max(max_red, red);
      sev_mean_red += red;
      ++cells;
      table.AddRow()
          .Cell(severity, 2)
          .Cell(ToString(content))
          .Cell(mean[0], 1)
          .Cell(mean[1], 1)
          .Cell(red, 1)
          .Cell(p95[0], 1)
          .Cell(p95[1], 1)
          .Cell(bench::ReductionPercent(p95[0], p95[1]), 1);
    }
    std::cout << "severity " << severity << ": mean reduction across content "
              << sev_mean_red / cells << "%\n";
  }

  std::cout << "\nTab 1: latency, x264-abr baseline vs rave-adaptive "
               "(2.5 Mbps link, drop at t=10s, 40 s sessions, 3 seeds)\n\n";
  table.Print(std::cout);
  std::cout << "\nmeasured mean-latency reduction band: [" << min_red << "%, "
            << max_red << "%]  (paper: 28.66% to 78.87%)\n";
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Tab1LatencyReductionMain(argc, argv);
}
#endif
