// Table 6 (extension): loss-recovery strategy comparison on a lossy link —
// RTX only, FEC only, RTX+FEC, neither — for the adaptive scheme. FEC
// repairs in ~0 RTT at a bitrate cost; RTX costs a round trip but only
// spends bits on actual losses.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Tab6FecMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  struct Variant {
    std::string name;
    bool rtx;
    bool fec;
  };
  const std::vector<Variant> variants = {
      {"none", false, false}, {"rtx", true, false},
      {"fec", false, true},   {"rtx+fec", true, true}};

  const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(0.5);
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(variants.size() * 3);
  for (const Variant& v : variants) {
    for (uint64_t seed : seeds) {
      auto config = bench::DefaultConfig(
          rtc::Scheme::kAdaptive, drop_trace,
          video::ContentClass::kTalkingHead, duration, seed);
      config.link.loss.random_loss = 0.02;
      config.link.loss.seed = seed ^ 0xFEC;
      config.enable_rtx = v.rtx;
      config.enable_fec = v.fec;
      configs.push_back(std::move(config));
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Tab 6: loss recovery on a 2% i.i.d.-loss link "
               "(50% drop at t=10s, talking-head, 3 seeds)\n\n";
  Table table({"recovery", "lat-mean(ms)", "lat-p95(ms)", "disp-ssim",
               "lost-frames", "bitrate(kbps)"});

  size_t next = 0;
  for (const Variant& v : variants) {
    double mean = 0, p95 = 0, disp = 0, lost = 0, rate = 0;
    for ([[maybe_unused]] uint64_t seed : seeds) {
      const rtc::SessionResult& result = *results[next++];
      mean += result.summary.latency_mean_ms / std::size(seeds);
      p95 += result.summary.latency_p95_ms / std::size(seeds);
      disp += result.summary.displayed_ssim_mean / std::size(seeds);
      lost += static_cast<double>(result.summary.frames_lost_network) /
              std::size(seeds);
      rate += result.summary.encoded_bitrate_kbps / std::size(seeds);
    }
    table.AddRow()
        .Cell(v.name)
        .Cell(mean, 1)
        .Cell(p95, 1)
        .Cell(disp, 4)
        .Cell(lost, 1)
        .Cell(rate, 0);
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Tab6FecMain(argc, argv);
}
#endif
