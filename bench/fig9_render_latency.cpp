// Figure 9 (extension): capture-to-RENDER latency — what the user actually
// experiences once the receiver's adaptive playout buffer sits on top of the
// network. Stable network delay earns a small buffer; the baseline's swings
// force a large one, so the paper's effect is amplified end to end.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

namespace {
constexpr rave::rtc::Scheme kSchemes[] = {
    rave::rtc::Scheme::kX264Abr, rave::rtc::Scheme::kX264Cbr,
    rave::rtc::Scheme::kAdaptive, rave::rtc::Scheme::kSalsify};
}  // namespace

int bench::Fig9RenderLatencyMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const uint64_t seeds[] = {1, 2, 3};

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(3 * std::size(kSchemes) * 3);
  for (double severity : {0.3, 0.5, 0.7}) {
    const Interned<net::CapacityTrace> drop_trace = bench::DropTrace(severity);
    for (rtc::Scheme scheme : kSchemes) {
      for (uint64_t seed : seeds) {
        configs.push_back(bench::DefaultConfig(
            scheme, drop_trace, video::ContentClass::kTalkingHead, duration,
            seed));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 9: render latency (network + adaptive playout) across "
               "drop severities (talking-head, 3 seeds)\n\n";
  Table table({"severity", "scheme", "net-mean(ms)", "render-mean(ms)",
               "render-p95(ms)", "late(%)"});

  size_t next = 0;
  for (double severity : {0.3, 0.5, 0.7}) {
    for (rtc::Scheme scheme : kSchemes) {
      double net = 0, render = 0, render_p95 = 0, late = 0;
      for ([[maybe_unused]] uint64_t seed : seeds) {
        const rtc::SessionResult& result = *results[next++];
        net += result.summary.latency_mean_ms / std::size(seeds);
        render += result.summary.render_latency_mean_ms / std::size(seeds);
        render_p95 += result.summary.render_latency_p95_ms / std::size(seeds);
        late += result.summary.late_render_ratio * 100.0 / std::size(seeds);
      }
      table.AddRow()
          .Cell(severity, 1)
          .Cell(ToString(scheme))
          .Cell(net, 1)
          .Cell(render, 1)
          .Cell(render_p95, 1)
          .Cell(late, 2);
    }
  }
  table.Print(std::cout);
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig9RenderLatencyMain(argc, argv);
}
#endif
