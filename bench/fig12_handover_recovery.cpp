// Figure 12: handover / renegotiation recovery across the wireless tier.
//
// Every scheme runs every named wireless profile. For each handover or
// renegotiation event the harness measures how long the encoder target
// takes to MATCH the renegotiated link — land inside [0.8, 1.2] x the
// event's rate — with the next event (or session end) as the deadline.
// Matching is the two-sided test: after a downshift the encoder must shed
// its overshoot, after an upshift it must ramp into the new headroom; a
// scheme that ignores the radio fails both. Also reported: delivered
// quality after the first event, the overall p95 frame latency, and
// circuit-breaker engagement (a clean handover gap is shorter than the
// breaker's starvation threshold, so `opens` should stay 0 unless a
// profile genuinely starves the session).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "registry.h"
#include "fault/fault_plan.h"
#include "fault/wireless_profiles.h"
#include "obs/sketch.h"
#include "util/table.h"

using namespace rave;

namespace {

bool IsLinkChange(const fault::FaultEvent& e) {
  return e.kind == fault::FaultKind::kHandover ||
         e.kind == fault::FaultKind::kRenegotiate;
}

}  // namespace

int bench::Fig12HandoverRecoveryMain(int argc, char** argv) {
  const bench::BenchOptions options = bench::ParseBenchOptions(argc, argv);
  const TimeDelta duration = options.DurationOr(TimeDelta::Seconds(40));
  const auto wireless = bench::WirelessSuite(duration, options.wireless);

  std::vector<rtc::SessionConfig> configs;
  configs.reserve(std::size(rtc::kAllSchemes) * wireless.size());
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    for (const fault::WirelessProfile& profile : wireless) {
      rtc::SessionConfig config = bench::DefaultConfig(
          scheme, net::CapacityTrace::Constant(
                      DataRate::KilobitsPerSec(bench::kBaseRateKbps)),
          video::ContentClass::kTalkingHead, duration, 23);
      bench::ApplyWirelessProfile(config, profile);
      configs.push_back(std::move(config));
    }
  }
  const auto results = bench::RunMatrix(configs, options.jobs);

  std::cout << "Fig 12: handover/renegotiation recovery across the wireless "
               "tier (session "
            << duration.seconds() << "s)\n\n";
  Table table({"scheme", "profile", "events", "matched", "match-mean(s)",
               "post-ssim", "p95(ms)", "opens", "pauses"});
  size_t index = 0;
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    (void)scheme;
    for (const fault::WirelessProfile& profile : wireless) {
      const rtc::SessionResult& result = *results[index++];

      // Link-change events inside the session, in start order (plans are
      // built in order; handover/reneg kinds never interleave in the
      // registered profiles).
      std::vector<const fault::FaultEvent*> changes;
      for (const fault::FaultEvent& e : profile.faults.events()) {
        if (IsLinkChange(e) && e.start < Timestamp::Zero() + duration) {
          changes.push_back(&e);
        }
      }

      int measured = 0;
      int recovered = 0;
      double recover_sum_s = 0.0;
      for (size_t k = 0; k < changes.size(); ++k) {
        const fault::FaultEvent& e = *changes[k];
        // Handover: measure from the end of the radio-silence gap.
        // Renegotiation: the new rate applies at the window start.
        const Timestamp from = e.kind == fault::FaultKind::kHandover
                                   ? e.start + e.duration
                                   : e.start;
        const Timestamp deadline =
            std::min(k + 1 < changes.size() ? changes[k + 1]->start
                                            : Timestamp::PlusInfinity(),
                     Timestamp::Zero() + duration);
        if (from >= deadline) continue;

        const double lo = 0.8 * static_cast<double>(e.rate.kbps());
        const double hi = 1.2 * static_cast<double>(e.rate.kbps());
        ++measured;
        for (const auto& p : result.timeseries) {
          if (p.at < from) continue;
          if (p.at >= deadline) break;
          if (p.encoder_target_kbps >= lo && p.encoder_target_kbps <= hi) {
            ++recovered;
            recover_sum_s += (p.at - from).seconds();
            break;
          }
        }
      }

      // Delivered quality after the first link change (whole session for
      // pure fading profiles).
      const Timestamp quality_from =
          changes.empty() ? Timestamp::Zero() : changes.front()->start;
      double post_ssim = 0.0;
      int post_n = 0;
      for (const auto& f : result.frames) {
        if (f.capture_time < quality_from) continue;
        if (f.fate == metrics::FrameFate::kDelivered) {
          post_ssim += f.ssim;
          ++post_n;
        }
      }

      const obs::QuantileSketch* latency = bench::LatencySketch(result);
      const double p95 = latency != nullptr ? latency->Quantile(0.95) : 0.0;

      Table& row = table.AddRow();
      row.Cell(result.scheme_name)
          .Cell(profile.name)
          .Cell(static_cast<int64_t>(measured));
      if (measured > 0) {
        row.Cell(std::to_string(recovered) + "/" + std::to_string(measured));
      } else {
        row.Cell("n/a");
      }
      if (recovered > 0) {
        row.Cell(recover_sum_s / recovered, 2);
      } else {
        row.Cell(measured > 0 ? "never" : "n/a");
      }
      if (post_n > 0) {
        row.Cell(post_ssim / post_n, 4);
      } else {
        row.Cell("n/a");
      }
      row.Cell(p95, 1)
          .Cell(static_cast<int64_t>(result.breaker_stats.opens))
          .Cell(static_cast<int64_t>(result.breaker_stats.pauses));
    }
  }
  table.Print(std::cout);
  std::cout << "\nmatch-mean(s): mean time from a handover gap ending (or a "
               "renegotiation applying) until the encoder target lands in "
               "[0.8, 1.2] x the renegotiated rate, with the next event as "
               "deadline.\n";
  return 0;
}

#ifndef RAVE_SUITE_BUILD
int main(int argc, char** argv) {
  return rave::bench::Fig12HandoverRecoveryMain(argc, argv);
}
#endif
