// Table 5 (extension): full scheme comparison — both x264 baselines, the
// paper's adaptive controller, its oracle bound, and a Salsify-style
// memoryless comparator — across the whole trace suite. Positions the
// paper's contribution against the related work named in its abstract.
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/stats.h"
#include "util/table.h"

using namespace rave;

int bench::Tab5SchemesMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const auto suite = bench::TraceSuite(duration);

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(std::size(rtc::kAllSchemes) * suite.size() *
                  std::size(video::kAllContentClasses));
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    for (const auto& [name, trace] : suite) {
      for (video::ContentClass content : video::kAllContentClasses) {
        configs.push_back(
            bench::DefaultConfig(scheme, trace, content, duration, 7));
      }
    }
  }
  for (rtc::SessionConfig& config : configs) config.keep_frame_detail = false;
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Tab 5: scheme comparison over the full trace suite ("
            << suite.size() << " traces x 4 content classes)\n\n";
  Table table({"scheme", "lat-mean(ms)", "lat-p50(ms)", "lat-p95(ms)",
               "enc-ssim", "disp-ssim", "bitrate(kbps)", "skipped/run",
               "lost/run"});

  size_t next = 0;
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    RunningStats mean, p50, p95, enc, disp, rate, skipped, lost;
    for ([[maybe_unused]] const auto& [name, trace] : suite) {
      for ([[maybe_unused]] video::ContentClass content :
           video::kAllContentClasses) {
        const rtc::SessionResult& result = *results[next++];
        mean.Add(result.summary.latency_mean_ms);
        p50.Add(result.summary.latency_p50_ms);
        p95.Add(result.summary.latency_p95_ms);
        enc.Add(result.summary.encoded_ssim_mean);
        disp.Add(result.summary.displayed_ssim_mean);
        rate.Add(result.summary.encoded_bitrate_kbps);
        skipped.Add(static_cast<double>(result.summary.frames_skipped));
        lost.Add(static_cast<double>(result.summary.frames_lost_network));
      }
    }
    table.AddRow()
        .Cell(ToString(scheme))
        .Cell(mean.mean(), 1)
        .Cell(p50.mean(), 1)
        .Cell(p95.mean(), 1)
        .Cell(enc.mean(), 4)
        .Cell(disp.mean(), 4)
        .Cell(rate.mean(), 0)
        .Cell(skipped.mean(), 1)
        .Cell(lost.mean(), 1);
  }
  table.Print(std::cout);
  std::cout << "\nsalsify matches the adaptive scheme's latency class but "
               "pays for its\nmemorylessness in quality (QP tracks estimator "
               "noise 1:1) and skips.\n";
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Tab5SchemesMain(argc, argv);
}
#endif
