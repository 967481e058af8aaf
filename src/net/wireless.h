// Wireless-tier capacity generators layered on the piecewise-constant
// CapacityTrace: Gilbert-Elliott fading (two-state Markov channel),
// duty-cycle interference bursts, and an FPV-style radio whose modulation
// ladder the link renegotiates in discrete steps.
//
// All generators are deterministic functions of their config (seeds
// included), so traces can be interned and shared across matrix cells and
// every bench stays byte-identical at any --jobs count.
#pragma once

#include <cstdint>
#include <vector>

#include "net/capacity_trace.h"
#include "sim/random_process.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::net {

/// Gilbert-Elliott fading channel: capacity flips between a good-state and
/// a faded (bad-state) rate as a two-state Markov chain stepped every
/// `step` of sim time. Mean fade dwell is `step / p_bad_to_good`.
struct GilbertFadingConfig {
  DataRate good_rate = DataRate::KilobitsPerSec(2500);
  DataRate bad_rate = DataRate::KilobitsPerSec(600);
  GilbertProcess::Config chain{/*p_good_to_bad=*/0.04, /*p_bad_to_good=*/0.25};
  /// Sim-time interval between chain transitions.
  TimeDelta step = TimeDelta::Millis(100);
  uint64_t seed = 1;
};

/// Builds the fading capacity schedule over [0, duration]; consecutive
/// same-state steps are coalesced.
CapacityTrace GilbertFadingTrace(const GilbertFadingConfig& config,
                                 TimeDelta duration);

/// Periodic interference (microwave oven / co-channel duty cycle): the link
/// runs at `nominal` and collapses to `degraded` for the first
/// `duty * period` of every period. Fully deterministic.
CapacityTrace DutyCycleTrace(DataRate nominal, DataRate degraded,
                             TimeDelta period, double duty,
                             TimeDelta duration);

/// FPV-style radio: the link re-evaluates a noisy SNR estimate every
/// `decision_interval` and renegotiates its datarate onto the nearest rung
/// of a discrete modulation ladder. The encoder must chase these steps —
/// they are link renegotiations, not congestion.
struct FpvRadioConfig {
  /// Modulation ladder, ascending (e.g. MCS rates). Must be non-empty.
  std::vector<DataRate> ladder = {
      DataRate::KilobitsPerSec(900), DataRate::KilobitsPerSec(1800),
      DataRate::KilobitsPerSec(2700), DataRate::KilobitsPerSec(3600)};
  /// How often the radio re-evaluates the link.
  TimeDelta decision_interval = TimeDelta::Seconds(2);
  /// Mean-reverting SNR proxy in ladder-index units: the walk's value is
  /// clamped and floored onto [0, ladder.size()-1].
  Ar1Process::Config snr{/*mean=*/2.4, /*phi=*/0.80, /*sigma=*/0.9,
                         /*lo=*/0.0, /*hi=*/1e18};
  uint64_t seed = 7;
};

/// The renegotiation schedule: one entry per decision point whose ladder
/// rung differs from the previous one (plus the initial rung at t=0).
std::vector<CapacityTrace::Step> FpvModulationSchedule(
    const FpvRadioConfig& config, TimeDelta duration);

/// The same schedule as a capacity trace (for callers that want the radio
/// as a plain trace rather than renegotiation fault events).
CapacityTrace FpvRadioTrace(const FpvRadioConfig& config, TimeDelta duration);

}  // namespace rave::net
