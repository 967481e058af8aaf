// Figure 5: sensitivity to the bottleneck buffer depth. Deep buffers turn
// the baseline's overshoot into seconds of queueing delay; shallow buffers
// turn it into loss (and PLI recovery). The adaptive encoder is nearly
// invariant to the buffer because it avoids building the queue at all.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig5QueueDepthMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(0.6);
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(5 * 3 * 2);
  for (int64_t kb : {30, 60, 120, 250, 500}) {
    for (uint64_t seed : seeds) {
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        auto config = bench::DefaultConfig(scheme, drop_trace,
                                           video::ContentClass::kTalkingHead,
                                           duration, seed);
        config.link.queue_capacity = DataSize::Bytes(kb * 1000);
        configs.push_back(std::move(config));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 5: latency/loss vs bottleneck queue depth "
               "(60% drop at t=10s, talking-head)\n"
               "queue depth shown as drain time at the post-drop rate "
               "(1 Mbps)\n\n";
  Table table({"queue(KB)", "queue(ms@1Mbps)", "abr-p95(ms)", "adp-p95(ms)",
               "p95-red(%)", "abr-lost", "adp-lost"});

  size_t next = 0;
  for (int64_t kb : {30, 60, 120, 250, 500}) {
    double p95[2] = {0, 0};
    double lost[2] = {0, 0};
    for ([[maybe_unused]] uint64_t seed : seeds) {
      for (int i = 0; i < 2; ++i) {
        const rtc::SessionResult& result = *results[next++];
        p95[i] += result.summary.latency_p95_ms / std::size(seeds);
        lost[i] += static_cast<double>(result.summary.frames_lost_network) /
                   std::size(seeds);
      }
    }
    table.AddRow()
        .Cell(kb)
        .Cell(static_cast<double>(kb * 8000) / 1e3, 0)
        .Cell(p95[0], 1)
        .Cell(p95[1], 1)
        .Cell(bench::ReductionPercent(p95[0], p95[1]), 1)
        .Cell(lost[0], 1)
        .Cell(lost[1], 1);
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig5QueueDepthMain(argc, argv);
}
#endif
