// Figure 6: behaviour after the link RECOVERS. Fast adaptation must not
// oscillate when capacity returns: the adaptive controller ramps quality
// back with hysteresis instead of overshooting. Prints QP and latency
// timelines around the recovery point plus ramp statistics.
#include <iostream>
#include <map>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

int bench::Fig6RecoveryMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const Interned<net::CapacityTrace> trace = net::CapacityTrace::StepDropAndRecover(
      DataRate::KilobitsPerSec(2500), DataRate::KilobitsPerSec(800),
      Timestamp::Seconds(10), Timestamp::Seconds(20));

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(2);
  for (rtc::Scheme scheme :
       {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive}) {
    configs.push_back(bench::DefaultConfig(
        scheme, trace, video::ContentClass::kTalkingHead, duration, 13));
  }
  const auto run = bench::RunMatrix(configs, options.jobs);

  // Indexed by scheme name; the results themselves stay where RunMatrix
  // (and the suite cache) hold them.
  std::map<std::string, const rtc::SessionResult*> results;
  for (const auto& result : run) {
    results.emplace(result->scheme_name, result.get());
  }

  std::cout << "Fig 6: recovery behaviour (2.5 -> 0.8 Mbps at 10s, back to "
               "2.5 Mbps at 20s)\n\n";
  Table table({"t(s)", "capacity(kbps)", "abr-qp", "abr-lat(ms)", "adp-qp",
               "adp-lat(ms)"});
  const auto& abr = results.at("x264-abr")->timeseries;
  const auto& adp = results.at("rave-adaptive")->timeseries;
  for (size_t i = 0; i < std::min(abr.size(), adp.size()); ++i) {
    if (abr[i].at.us() % 500'000 != 0) continue;
    table.AddRow()
        .Cell(abr[i].at.seconds(), 1)
        .Cell(abr[i].capacity_kbps, 0)
        .Cell(abr[i].last_qp, 1)
        .Cell(abr[i].last_latency_ms, 1)
        .Cell(adp[i].last_qp, 1)
        .Cell(adp[i].last_latency_ms, 1);
  }
  table.Print(std::cout);

  // Ramp statistics: time from recovery until SSIM is back within 1% of the
  // pre-drop level, and worst latency in the ramp window.
  std::cout << "\nrecovery ramp (20s..30s):\n";
  for (const auto& [name, result] : results) {
    double pre_ssim = 0.0;
    int pre_n = 0;
    double worst_lat = 0.0;
    Timestamp back_at = Timestamp::PlusInfinity();
    for (const auto& f : result->frames) {
      if (f.capture_time < Timestamp::Seconds(10)) {
        if (f.fate == metrics::FrameFate::kDelivered) {
          pre_ssim += f.ssim;
          ++pre_n;
        }
      }
    }
    pre_ssim /= std::max(pre_n, 1);
    for (const auto& f : result->frames) {
      if (f.capture_time < Timestamp::Seconds(20)) continue;
      if (auto l = f.latency()) worst_lat = std::max(worst_lat, l->ms_float());
      if (back_at.IsFinite()) continue;
      if (f.fate == metrics::FrameFate::kDelivered &&
          f.ssim >= 0.99 * pre_ssim) {
        back_at = f.capture_time;
      }
    }
    std::cout << "  " << name << ": quality back to pre-drop level "
              << (back_at.IsFinite()
                      ? std::to_string(back_at.seconds() - 20.0) + " s after recovery"
                      : std::string("never"))
              << ", worst post-recovery latency " << worst_lat << " ms\n";
  }
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig6RecoveryMain(argc, argv);
}
#endif
