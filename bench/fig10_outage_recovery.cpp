// Figure 10: recovery from hard faults (full outage, feedback blackhole,
// RTT spike, duplication+reordering burst) on an otherwise steady link.
// For every scheme x fault: time from fault-clear until the encoder target
// is back to 90% of its pre-fault level (clamped to the link rate), the
// post-fault delivered quality, and the circuit-breaker engagement counts.
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "registry.h"
#include "fault/fault_plan.h"
#include "fault/wireless_profiles.h"
#include "util/table.h"

using namespace rave;

namespace {

struct Scenario {
  std::string name;
  fault::FaultPlan plan;
  /// When set, the scenario is a wireless profile: its trace/loss/faults
  /// replace the steady link (plan mirrors the profile's fault events).
  std::optional<fault::WirelessProfile> wireless;
};

std::vector<Scenario> Scenarios(TimeDelta duration,
                                const std::string& wireless_filter) {
  std::vector<Scenario> scenarios(4);
  scenarios[0].name = "outage 2s";
  scenarios[0].plan.Outage(Timestamp::Seconds(10), TimeDelta::Seconds(2));
  scenarios[1].name = "feedback blackhole 3s";
  scenarios[1].plan.FeedbackBlackhole(Timestamp::Seconds(10),
                                      TimeDelta::Seconds(3));
  scenarios[2].name = "rtt spike +150ms 2s";
  scenarios[2].plan.DelaySpike(Timestamp::Seconds(10), TimeDelta::Seconds(2),
                               TimeDelta::Millis(150));
  scenarios[3].name = "dup+reorder 5s";
  scenarios[3]
      .plan.DuplicationBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5),
                             0.2)
      .ReorderBurst(Timestamp::Seconds(10), TimeDelta::Seconds(5), 0.2,
                    TimeDelta::Millis(40));
  for (fault::WirelessProfile& profile :
       bench::WirelessSuite(duration, wireless_filter)) {
    Scenario scenario;
    scenario.name = "wl:" + profile.name;
    scenario.plan = profile.faults;
    scenario.wireless = std::move(profile);
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

}  // namespace

int bench::Fig10OutageRecoveryMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  // Post-starvation estimator rebuild is additive (no probing), so the
  // slowest scheme needs ~45 s after the fault clears; see the chaos tests.
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(60));
  const auto scenarios = Scenarios(duration, options.wireless);

  const Interned<net::CapacityTrace> steady_trace = net::CapacityTrace::Constant(
      DataRate::KilobitsPerSec(bench::kBaseRateKbps));
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(std::size(rtc::kAllSchemes) * scenarios.size());
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    for (const Scenario& scenario : scenarios) {
      rtc::SessionConfig config = bench::DefaultConfig(
          scheme, steady_trace, video::ContentClass::kTalkingHead, duration,
          17);
      if (scenario.wireless) {
        bench::ApplyWirelessProfile(config, *scenario.wireless);
      } else {
        config.faults = scenario.plan;
      }
      configs.push_back(std::move(config));
    }
  }
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 10: fault recovery on a steady " << bench::kBaseRateKbps
            << " kbps link (faults start at t=10s; wl:* rows run the named "
               "wireless profile instead)\n\n";
  Table table({"scheme", "fault", "pre(kbps)", "recover(s)", "post-ssim",
               "opens", "pauses", "recoveries"});
  size_t i = 0;
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    (void)scheme;
    for (const Scenario& scenario : scenarios) {
      const rtc::SessionResult& result = *results[i++];
      const Timestamp clear = scenario.plan.LastClearTime();

      // Pre-fault reference: mean encoder target over the 2 s before the
      // fault, clamped to the link rate (an estimator may overshoot it).
      double pre_sum = 0.0;
      int pre_n = 0;
      for (const auto& p : result.timeseries) {
        if (p.at >= Timestamp::Seconds(8) && p.at < Timestamp::Seconds(10)) {
          pre_sum += p.encoder_target_kbps;
          ++pre_n;
        }
      }
      // Wireless scenarios replace the steady link, so the clamp follows
      // their trace's mean rate (identical to kBaseRateKbps otherwise).
      const double link_mean_kbps =
          scenario.wireless
              ? scenario.wireless->trace.AverageRate(duration).kbps()
              : static_cast<double>(bench::kBaseRateKbps);
      const double pre_target =
          std::min(pre_n > 0 ? pre_sum / pre_n : 0.0, link_mean_kbps);

      // First timeseries point after fault-clear back at >= 90% of that.
      Timestamp recovered_at = Timestamp::PlusInfinity();
      if (pre_target > 0.0) {
        for (const auto& p : result.timeseries) {
          if (p.at < clear) continue;
          if (p.encoder_target_kbps >= 0.9 * pre_target) {
            recovered_at = p.at;
            break;
          }
        }
      }

      // Delivered quality after the fault cleared.
      double post_ssim = 0.0;
      int post_n = 0;
      for (const auto& f : result.frames) {
        if (f.capture_time < clear) continue;
        if (f.fate == metrics::FrameFate::kDelivered) {
          post_ssim += f.ssim;
          ++post_n;
        }
      }

      Table& row = table.AddRow();
      row.Cell(result.scheme_name).Cell(scenario.name).Cell(pre_target, 0);
      // Pure fading/interference profiles have no fault windows — there is
      // no clear time to recover from. Short smoke runs end before the
      // fault clears: report n/a rather than pretending the session never
      // recovered.
      if (scenario.plan.empty()) {
        row.Cell("n/a");
      } else if (clear >= Timestamp::Zero() + duration) {
        row.Cell("n/a");
      } else if (recovered_at.IsFinite()) {
        row.Cell((recovered_at - clear).seconds(), 1);
      } else {
        row.Cell("never");
      }
      if (post_n > 0) {
        row.Cell(post_ssim / post_n, 4);
      } else {
        row.Cell("n/a");
      }
      row.Cell(static_cast<int64_t>(result.breaker_stats.opens))
          .Cell(static_cast<int64_t>(result.breaker_stats.pauses))
          .Cell(static_cast<int64_t>(result.breaker_stats.recoveries));
    }
  }
  table.Print(std::cout);
  std::cout << "\nrecover(s): time from fault-clear until the encoder "
               "target is back to 90% of its pre-fault level.\n";
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig10OutageRecoveryMain(argc, argv);
}
#endif
