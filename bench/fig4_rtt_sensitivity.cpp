// Figure 4: sensitivity of the latency reduction to the feedback RTT.
// Encoder-side adaptation can only act on information that has reached the
// sender; this sweep shows the win persists (and how it shrinks) as the
// control loop slows from 20 ms to 200 ms RTT.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig4RttSensitivityMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(0.5);
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(4 * 3 * 2);
  for (int64_t rtt_ms : {20, 50, 100, 200}) {
    for (uint64_t seed : seeds) {
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        auto config = bench::DefaultConfig(scheme, drop_trace,
                                           video::ContentClass::kTalkingHead,
                                           duration, seed);
        config.link.propagation = TimeDelta::Millis(rtt_ms / 2);
        config.feedback_delay = TimeDelta::Millis(rtt_ms / 2);
        configs.push_back(std::move(config));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 4: latency vs feedback RTT (50% drop at t=10s, "
               "talking-head)\n\n";
  Table table({"rtt(ms)", "abr-mean(ms)", "adp-mean(ms)", "mean-red(%)",
               "abr-p95(ms)", "adp-p95(ms)", "p95-red(%)"});

  size_t next = 0;
  for (int64_t rtt_ms : {20, 50, 100, 200}) {
    double mean[2] = {0, 0};
    double p95[2] = {0, 0};
    for ([[maybe_unused]] uint64_t seed : seeds) {
      for (int i = 0; i < 2; ++i) {
        const rtc::SessionResult& result = *results[next++];
        mean[i] += result.summary.latency_mean_ms / std::size(seeds);
        p95[i] += result.summary.latency_p95_ms / std::size(seeds);
      }
    }
    table.AddRow()
        .Cell(rtt_ms)
        .Cell(mean[0], 1)
        .Cell(mean[1], 1)
        .Cell(bench::ReductionPercent(mean[0], mean[1]), 1)
        .Cell(p95[0], 1)
        .Cell(p95[1], 1)
        .Cell(bench::ReductionPercent(p95[0], p95[1]), 1);
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig4RttSensitivityMain(argc, argv);
}
#endif
