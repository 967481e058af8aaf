// Figure 7 (extension): resilience to non-congestive loss. Wireless links
// lose packets without congestion; the loss-recovery stack (NACK/RTX + PLI)
// and the loss-based GCC controller react. Sweeps i.i.d. loss and a
// Gilbert bursty pattern at a 50% capacity drop.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig7LossResilienceMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  std::cout << "Fig 7: non-congestive loss sweep (50% drop at t=10s, "
               "talking-head, 3 seeds)\n\n";
  Table table({"loss-model", "abr-mean(ms)", "adp-mean(ms)", "mean-red(%)",
               "abr-disp-ssim", "adp-disp-ssim", "abr-lost", "adp-lost"});

  struct Row {
    std::string name;
    net::LossModel loss;
  };
  std::vector<Row> rows;
  for (double p : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    Row row;
    row.name = "iid-" + std::to_string(p).substr(0, 5);
    row.loss.random_loss = p;
    rows.push_back(row);
  }
  {
    Row burst;
    burst.name = "gilbert-burst";
    burst.loss.gilbert_enabled = true;
    burst.loss.gilbert = {.p_good_to_bad = 0.002, .p_bad_to_good = 0.08};
    burst.loss.gilbert_bad_loss = 0.5;
    rows.push_back(burst);
  }

  const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(0.5);
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(rows.size() * 3 * 2);
  for (const Row& row : rows) {
    for (uint64_t seed : seeds) {
      for (rtc::Scheme scheme :
           {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
        auto config = bench::DefaultConfig(scheme, drop_trace,
                                           video::ContentClass::kTalkingHead,
                                           duration, seed);
        config.link.loss = row.loss;
        config.link.loss.seed = seed ^ 0xBEEF;
        configs.push_back(std::move(config));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  size_t next = 0;
  for (const Row& row : rows) {
    double mean[2] = {0, 0};
    double disp[2] = {0, 0};
    double lost[2] = {0, 0};
    for ([[maybe_unused]] uint64_t seed : seeds) {
      for (int i = 0; i < 2; ++i) {
        const rtc::SessionResult& result = *results[next++];
        mean[i] += result.summary.latency_mean_ms / std::size(seeds);
        disp[i] += result.summary.displayed_ssim_mean / std::size(seeds);
        lost[i] += static_cast<double>(result.summary.frames_lost_network) /
                   std::size(seeds);
      }
    }
    table.AddRow()
        .Cell(row.name)
        .Cell(mean[0], 1)
        .Cell(mean[1], 1)
        .Cell(bench::ReductionPercent(mean[0], mean[1]), 1)
        .Cell(disp[0], 4)
        .Cell(disp[1], 4)
        .Cell(lost[0], 1)
        .Cell(lost[1], 1);
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig7LossResilienceMain(argc, argv);
}
#endif
