// Sender-side feedback-starvation circuit breaker (RFC 8083 style).
//
// Transport-wide feedback is the sender's only view of the network; when it
// stops arriving entirely (feedback blackhole, full link outage) every
// estimator target is stale and continuing to transmit at it is exactly the
// behaviour RFC 8083 circuit breakers exist to prevent. The breaker watches
// the gap since the last feedback report:
//
//   kClosed ──(N missed report intervals)──▶ kOpen
//      ▲                                       │ exponential backoff of the
//      │                                       │ send cap toward a floor
//      │                                       ▼
//   kClosed ◀──(cap reaches the estimator  kPaused   (starved past the
//              target again)                  │       pause deadline: the
//      ▲                                      │       encoder stops entirely)
//      │                                      │
//   kRecovering ◀──(feedback resumes: keyframe request + ramp start)
//
// On resumption the sender must not resume at the stale pre-outage target —
// capacity may have changed while it was blind — so recovery starts at a
// fraction of the last healthy target and ramps the cap up exponentially,
// one step per feedback report, until it clears the estimator target.
//
// Pure control logic: no event loop, no I/O. The owner calls OnTick on a
// fixed cadence (the feedback interval) and OnFeedback whenever a report
// actually arrives, and applies Cap()/encoder_paused() to its pipeline.
#pragma once

#include <cstdint>
#include <string>

#include "util/time.h"
#include "util/units.h"

namespace rave::core {

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kPaused, kRecovering };

  struct Config {
    bool enabled = true;
    /// Expected feedback cadence; OnTick is called on this period.
    TimeDelta feedback_interval = TimeDelta::Millis(50);
    /// Reports missed before the breaker opens (RFC 8083 media timeout is
    /// measured in RTCP intervals; 8 x 50 ms = 400 ms of total silence).
    int open_after_missed = 8;
    /// Per-tick multiplicative backoff of the cap while open.
    double backoff_factor = 0.7;
    /// The cap never backs off below this floor.
    DataRate floor = DataRate::KilobitsPerSec(50);
    /// Starvation beyond this pauses the encoder entirely (last resort: stop
    /// offering load to a network that has been black for seconds).
    TimeDelta pause_after = TimeDelta::Seconds(3);
    /// Recovery ramp starts at this fraction of the last healthy target...
    double recovery_start_fraction = 0.25;
    /// ...and multiplies by this on every feedback report until it clears
    /// the estimator target (bounded ramp-up instead of resuming stale).
    double ramp_up_factor = 1.6;
  };

  struct Stats {
    int64_t opens = 0;
    int64_t pauses = 0;
    /// Completed recovery ramps (breaker closed again).
    int64_t recoveries = 0;
    /// Total time spent starved (open or paused).
    TimeDelta time_open = TimeDelta::Zero();
    TimeDelta time_paused = TimeDelta::Zero();

    bool operator==(const Stats&) const = default;
  };

  explicit CircuitBreaker(const Config& config);

  /// Watchdog tick on the feedback cadence: starvation detection, backoff
  /// while open, pause escalation.
  void OnTick(Timestamp now);

  /// A feedback report arrived; `estimator_target` is the estimator's
  /// post-update target. Drives recovery transitions and the ramp.
  void OnFeedback(Timestamp now, DataRate estimator_target);

  /// Cap the sender must apply to its media/pacing targets.
  /// PlusInfinity while closed (no constraint).
  DataRate Cap() const;

  /// True while the breaker has escalated to a full encoder pause.
  bool encoder_paused() const { return state_ == State::kPaused; }

  /// True exactly once after feedback resumes: the sender owes the receiver
  /// a keyframe (the reference chain is presumed broken after an outage).
  bool TakeKeyframeRequest();

  State state() const { return state_; }
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  void Trip(Timestamp now);

  Config config_;
  State state_ = State::kClosed;
  Stats stats_;
  Timestamp last_feedback_ = Timestamp::Zero();
  /// Last estimator target seen while healthy; the recovery ramp is bounded
  /// relative to this.
  DataRate last_healthy_target_ = DataRate::Zero();
  DataRate cap_ = DataRate::PlusInfinity();
  bool keyframe_pending_ = false;
};

std::string ToString(CircuitBreaker::State state);

}  // namespace rave::core
