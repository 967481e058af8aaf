// Figure 3: encoder output bitrate vs link capacity over time for every
// scheme across a drop-and-recover trace. Shows *why* the latency gap
// exists: the baseline's output converges to a new target over seconds
// while the adaptive encoder follows within frames.
#include <iostream>
#include <map>

#include "common.h"
#include "registry.h"
#include "util/table.h"

using namespace rave;

namespace {

// Encoded bits per 500 ms window, as kbps.
std::vector<double> WindowedBitrate(const rtc::SessionResult& result,
                                    TimeDelta duration) {
  const int windows = static_cast<int>(duration.seconds() * 2.0);
  std::vector<double> kbps(static_cast<size_t>(windows), 0.0);
  for (const auto& f : result.frames) {
    const int w = static_cast<int>(f.capture_time.seconds() * 2.0);
    if (w >= 0 && w < windows) {
      kbps[static_cast<size_t>(w)] += static_cast<double>(f.size.bits()) / 500.0;
    }
  }
  return kbps;
}

}  // namespace

int bench::Fig3BitrateTrackingMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(35));
  const Interned<net::CapacityTrace> trace = net::CapacityTrace::StepDropAndRecover(
      DataRate::KilobitsPerSec(2500), DataRate::KilobitsPerSec(1000),
      Timestamp::Seconds(10), Timestamp::Seconds(22));

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(std::size(rtc::kAllSchemes));
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    configs.push_back(
        bench::DefaultConfig(scheme, trace, video::ContentClass::kTalkingHead,
                             duration, /*seed=*/11));
  }
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::map<rtc::Scheme, std::vector<double>> series;
  size_t next = 0;
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    series[scheme] = WindowedBitrate(*results[next++], duration);
  }

  std::cout << "Fig 3: encoder output bitrate (kbps per 500 ms window) vs "
               "capacity\n2.5 Mbps -> 1.0 Mbps at t=10s, recovery at t=22s\n\n";
  Table table({"t(s)", "capacity", "x264-abr", "x264-cbr", "rave-adaptive",
               "rave-oracle"});
  for (size_t w = 0; w < series[rtc::Scheme::kX264Abr].size(); ++w) {
    const Timestamp t = Timestamp::Millis(static_cast<int64_t>(w) * 500);
    table.AddRow()
        .Cell(t.seconds(), 1)
        .Cell(trace->RateAt(t).kbps(), 0)
        .Cell(series[rtc::Scheme::kX264Abr][w], 0)
        .Cell(series[rtc::Scheme::kX264Cbr][w], 0)
        .Cell(series[rtc::Scheme::kAdaptive][w], 0)
        .Cell(series[rtc::Scheme::kAdaptiveOracle][w], 0);
  }
  table.Print(std::cout);

  // Overshoot summary: bits sent above capacity during the 3 s after the
  // drop (the queue the schemes build).
  std::cout << "\novershoot in (10s, 13s]: encoded bits above capacity\n";
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    double over_kbits = 0.0;
    for (size_t w = 20; w < 26 && w < series[scheme].size(); ++w) {
      over_kbits += std::max(0.0, series[scheme][w] - 1000.0) * 0.5;
    }
    std::cout << "  " << ToString(scheme) << ": " << over_kbits << " kbits\n";
  }
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig3BitrateTrackingMain(argc, argv);
}
#endif
