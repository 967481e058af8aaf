// Table 2 (headline): video quality of the baseline vs the adaptive encoder
// over the same sweep as Table 1. The paper reports a slight quality
// *improvement* of 0.8%-3% alongside the latency win; this harness reports
// both the encoder-side SSIM (what an x264 run logs — the paper-comparable
// number) and the display-side SSIM (freeze/outage aware).
#include <iostream>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Tab2QualityMain(int argc, char** argv) {
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

  Table table({"severity", "content", "abr-ssim", "adp-ssim", "enc-gain(%)",
               "abr-disp", "adp-disp", "disp-gain(%)", "abr-psnr(dB)",
               "adp-psnr(dB)"});

  size_t next = 0;
  double min_gain = 1e9;
  double max_gain = -1e9;
  for (double severity : {0.2, 0.3, 0.5, 0.7}) {
    for (video::ContentClass content : video::kAllContentClasses) {
      double enc[2] = {0, 0};
      double disp[2] = {0, 0};
      double psnr[2] = {0, 0};
      for ([[maybe_unused]] uint64_t seed : seeds) {
        for (int i = 0; i < 2; ++i) {
          const rtc::SessionResult& result = *results[next++];
          enc[i] += result.summary.encoded_ssim_mean / std::size(seeds);
          disp[i] += result.summary.displayed_ssim_mean / std::size(seeds);
          psnr[i] += result.summary.psnr_mean_db / std::size(seeds);
        }
      }
      const double gain = (enc[1] / enc[0] - 1.0) * 100.0;
      min_gain = std::min(min_gain, gain);
      max_gain = std::max(max_gain, gain);
      table.AddRow()
          .Cell(severity, 2)
          .Cell(ToString(content))
          .Cell(enc[0], 4)
          .Cell(enc[1], 4)
          .Cell(gain, 2)
          .Cell(disp[0], 4)
          .Cell(disp[1], 4)
          .Cell((disp[1] / disp[0] - 1.0) * 100.0, 2)
          .Cell(psnr[0], 2)
          .Cell(psnr[1], 2);
    }
  }

  std::cout << "Tab 2: quality, x264-abr baseline vs rave-adaptive "
               "(same sweep as Tab 1)\n\n";
  table.Print(std::cout);
  std::cout << "\nmeasured encoder-side SSIM gain band: [" << min_gain
            << "%, " << max_gain << "%]  (paper: +0.8% to +3%)\n";
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Tab2QualityMain(argc, argv);
}
#endif
