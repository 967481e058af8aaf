#include "core/adaptive_rate_control.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"

namespace rave::core {

namespace {
AdaptiveConfig Normalize(AdaptiveConfig c) {
  c.budget.fps = c.fps;
  return c;
}
}  // namespace

AdaptiveRateControl::AdaptiveRateControl(const AdaptiveConfig& config)
    : config_(Normalize(config)),
      allocator_(config_.budget),
      drop_detector_(config_.drop),
      pred_key_(/*gamma=*/0.9),
      pred_delta_(/*gamma=*/1.2),
      smoothed_capacity_kbps_(config_.steady_capacity_alpha) {
  state_.capacity = config_.initial_target;
}

void AdaptiveRateControl::OnNetworkUpdate(const NetworkObservation& obs) {
  state_ = tracker_.OnObservation(obs);
  const bool detected = drop_detector_.OnState(state_, obs.overuse_decrease);
  drop_active_ = config_.enable_drain_mode ? detected : false;

  // Steady state rides a smoothed capacity so the congestion controller's
  // sawtooth does not translate into visible QP oscillation; a detected drop
  // snaps to the instantaneous estimate (and resets the filter so recovery
  // starts from the dropped level, not the stale pre-drop average). The
  // snap is the "fast QP" mechanism: without it, the controller follows the
  // filtered estimate like a conventional encoder.
  if (drop_active_ && config_.enable_fast_qp) {
    smoothed_capacity_kbps_.Reset();
    smoothed_capacity_kbps_.Add(state_.capacity.kbps());
  } else {
    smoothed_capacity_kbps_.Add(state_.capacity.kbps());
    const DataRate smoothed =
        DataRate::KilobitsPerSecF(smoothed_capacity_kbps_.value());
    // Never budget above ~10% over the instantaneous estimate.
    state_.capacity = std::min(smoothed, state_.capacity * 1.1);
    state_.queue_delay = state_.backlog / state_.capacity;
  }
}

void AdaptiveRateControl::SetTargetRate(DataRate target) {
  // Minimal path used when no rich observation is available (e.g. codec
  // exploration tools): treat the target as the capacity with no backlog.
  if (target.bps() <= 0) return;
  state_.capacity = target;
}

codec::FrameGuidance AdaptiveRateControl::PlanFrame(
    const video::RawFrame& frame, codec::FrameType type,
    [[maybe_unused]] Timestamp now) {  // read only by the trace macro
  FrameBudget budget =
      allocator_.Allocate(state_, drop_active_, type, consecutive_skips_);
  RAVE_TRACE_COUNTER(kFrameBudgetKbits, now,
                     static_cast<double>(budget.target.bits()) / 1000.0);

  codec::FrameGuidance guidance;
  if (budget.skip && config_.enable_skip) {
    guidance.skip = true;
    return guidance;
  }

  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double cplx_term = type == codec::FrameType::kKey
                               ? pixels * frame.spatial_complexity
                               : pixels * frame.temporal_complexity;
  codec::BitPredictor& pred =
      type == codec::FrameType::kKey ? pred_key_ : pred_delta_;

  double qscale = pred.QscaleForBits(cplx_term, budget.target);
  double qp = codec::QscaleToQp(qscale);

  if (last_qp_ > 0.0) {
    // Recovery hysteresis: quality comes back gradually.
    qp = std::max(qp, last_qp_ - config_.qp_down_step);
    if (!config_.enable_fast_qp || (!drop_active_ && type != codec::FrameType::kKey)) {
      // Without the fast path (or in calm steady state) QP also rises
      // slowly, like a conventional encoder.
      qp = std::min(qp, last_qp_ + config_.qp_up_step_steady);
    }
  }
  qp = std::clamp(qp, codec::kMinQp, codec::kMaxQp);

  guidance.qp = qp;
  if (config_.enable_frame_cap) {
    guidance.max_size = budget.cap;
  }
  return guidance;
}

void AdaptiveRateControl::OnFrameEncoded(const codec::FrameOutcome& outcome,
                                         Timestamp /*now*/) {
  if (outcome.skipped) {
    ++consecutive_skips_;
    return;
  }
  consecutive_skips_ = 0;
  codec::BitPredictor& pred = outcome.type == codec::FrameType::kKey
                                  ? pred_key_
                                  : pred_delta_;
  pred.Update(outcome.complexity_term, outcome.qscale, outcome.size,
              outcome.qscale_pow, outcome.gamma);
  last_qp_ = outcome.qp;

  // Locally account for the bits we just committed: they will sit in the
  // pacer until the next observation refreshes the true queue. This keeps
  // back-to-back frame decisions consistent even between feedbacks.
  state_.backlog += outcome.size;
  state_.queue_delay = state_.backlog / state_.capacity;
}

}  // namespace rave::core
