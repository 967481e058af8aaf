// Figure 8 (extension): bandwidth drops caused by COMPETING TRAFFIC rather
// than link-rate changes. An on/off CBR flow shares the bottleneck; every
// "on" transition is effectively a sudden capacity drop for the video flow.
// Sweeps the cross-traffic intensity.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig8CrossTrafficMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(60));
  const uint64_t seeds[] = {1, 2, 3};

  const Interned<net::CapacityTrace> steady_trace =
      net::CapacityTrace::Constant(DataRate::KilobitsPerSec(2500));
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(4 * 3 * 2);
  for (int64_t cross_kbps : {0, 500, 1000, 1500}) {
    for (uint64_t seed : seeds) {
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        auto config = bench::DefaultConfig(
            scheme, steady_trace, video::ContentClass::kTalkingHead, duration,
            seed);
        if (cross_kbps > 0) {
          net::CrossTraffic::Config ct;
          ct.rate = DataRate::KilobitsPerSec(cross_kbps);
          ct.mean_on = TimeDelta::Seconds(8);
          ct.mean_off = TimeDelta::Seconds(8);
          ct.seed = seed ^ 0xC0FFEE;
          config.cross_traffic = ct;
        }
        configs.push_back(std::move(config));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 8: on/off cross traffic sharing a 2.5 Mbps bottleneck "
               "(8 s mean on/off periods, 60 s, 3 seeds)\n\n";
  Table table({"cross(kbps)", "abr-mean(ms)", "adp-mean(ms)", "mean-red(%)",
               "abr-p95(ms)", "adp-p95(ms)", "abr-ssim", "adp-ssim"});

  size_t next = 0;
  for (int64_t cross_kbps : {0, 500, 1000, 1500}) {
    double mean[2] = {0, 0};
    double p95[2] = {0, 0};
    double ssim[2] = {0, 0};
    for ([[maybe_unused]] uint64_t seed : seeds) {
      for (int i = 0; i < 2; ++i) {
        const rtc::SessionResult& result = *results[next++];
        mean[i] += result.summary.latency_mean_ms / std::size(seeds);
        p95[i] += result.summary.latency_p95_ms / std::size(seeds);
        ssim[i] += result.summary.displayed_ssim_mean / std::size(seeds);
      }
    }
    table.AddRow()
        .Cell(cross_kbps)
        .Cell(mean[0], 1)
        .Cell(mean[1], 1)
        .Cell(bench::ReductionPercent(mean[0], mean[1]), 1)
        .Cell(p95[0], 1)
        .Cell(p95[1], 1)
        .Cell(ssim[0], 4)
        .Cell(ssim[1], 4);
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig8CrossTrafficMain(argc, argv);
}
#endif
