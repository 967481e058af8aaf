// Figure 1 (motivation): per-frame end-to-end latency and control-plane
// timeline across a single bandwidth drop, baseline vs adaptive.
//
// Prints one row per 250 ms: link capacity, GCC target, encoder operating
// target, pacer + link queue delays and the latest frame latency, for each
// scheme. The baseline's latency balloons for seconds after the drop while
// its encoder converges; the adaptive encoder tracks within frames.
#include <iostream>
#include <map>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig1TimelineMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const Interned<net::CapacityTrace> trace = bench::DropTrace(0.6);  // 2.5 -> 1.0 Mbps at t=10s
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(25));

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(2);
  for (rtc::Scheme scheme :
       {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
    configs.push_back(bench::DefaultConfig(scheme, trace,
                                           video::ContentClass::kTalkingHead,
                                           duration, /*seed=*/42));
  }
  const auto run = bench::RunMatrix(configs, options.jobs);

  // Indexed by scheme name; the results themselves stay where RunMatrix
  // (and the suite cache) hold them.
  std::map<std::string, const rtc::SessionResult*> results;
  for (const auto& result : run) {
    results.emplace(result->scheme_name, result.get());
  }

  std::cout << "Fig 1: timeline across a 2.5->1.0 Mbps drop at t=10s "
               "(talking-head 720p30)\n\n";
  for (const auto& [name, result] : results) {
    std::cout << "--- scheme: " << name << " ---\n";
    Table table({"t(s)", "capacity(kbps)", "bwe(kbps)", "enc-target(kbps)",
                 "pacerQ(ms)", "linkQ(ms)", "loss", "qp", "frame-lat(ms)"});
    for (const metrics::TimeseriesPoint& p : result->timeseries) {
      if (p.at.us() % 250'000 != 0) continue;  // decimate to 2 Hz
      table.AddRow()
          .Cell(p.at.seconds(), 2)
          .Cell(p.capacity_kbps, 0)
          .Cell(p.bwe_target_kbps, 0)
          .Cell(p.encoder_target_kbps, 0)
          .Cell(p.pacer_queue_ms, 1)
          .Cell(p.link_queue_ms, 1)
          .Cell(p.loss_rate, 3)
          .Cell(p.last_qp, 1)
          .Cell(p.last_latency_ms, 1);
    }
    table.Print(std::cout);
    const auto& s = result->summary;
    std::cout << "summary: mean=" << s.latency_mean_ms
              << "ms p95=" << s.latency_p95_ms << "ms ssim=" << s.ssim_mean
              << " bitrate=" << s.encoded_bitrate_kbps << "kbps\n\n";
  }
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig1TimelineMain(argc, argv);
}
#endif
