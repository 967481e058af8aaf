#include "core/salsify_rate_control.h"

#include <algorithm>

namespace rave::core {

SalsifyRateControl::SalsifyRateControl(const SalsifyConfig& config)
    : config_(config), pred_key_(/*gamma=*/0.9), pred_delta_(/*gamma=*/1.2) {
  state_.capacity = config_.initial_target;
}

void SalsifyRateControl::OnNetworkUpdate(const NetworkObservation& obs) {
  state_ = tracker_.OnObservation(obs);
}

void SalsifyRateControl::SetTargetRate(DataRate target) {
  if (target.bps() <= 0) return;
  state_.capacity = target;
}

codec::FrameGuidance SalsifyRateControl::PlanFrame(
    const video::RawFrame& frame, codec::FrameType type, Timestamp /*now*/) {
  codec::FrameGuidance guidance;

  // Salsify's pause: while the network has not caught up, send nothing.
  if (type != codec::FrameType::kKey &&
      state_.queue_delay > config_.pause_threshold &&
      consecutive_skips_ < config_.max_consecutive_skips) {
    guidance.skip = true;
    return guidance;
  }

  // Memoryless per-frame budget: exactly what fits in one frame interval
  // after the current backlog drains. No smoothing, no headroom policy.
  const double interval_s = 1.0 / config_.fps;
  double bits = static_cast<double>(state_.capacity.bps()) * interval_s -
                static_cast<double>(state_.backlog.bits());
  if (type == codec::FrameType::kKey) {
    bits = std::max(bits, 0.0) * config_.key_boost +
           static_cast<double>(config_.min_frame.bits());
  }
  bits = std::max(bits, static_cast<double>(config_.min_frame.bits()));
  const DataSize budget = DataSize::Bits(static_cast<int64_t>(bits));

  const double pixels = static_cast<double>(frame.resolution.pixels());
  const double cplx_term = type == codec::FrameType::kKey
                               ? pixels * frame.spatial_complexity
                               : pixels * frame.temporal_complexity;
  codec::BitPredictor& pred =
      type == codec::FrameType::kKey ? pred_key_ : pred_delta_;

  guidance.qp = std::clamp(
      codec::QscaleToQp(pred.QscaleForBits(cplx_term, budget)),
      codec::kMinQp, codec::kMaxQp);
  // The two-version pick behaves like a tight cap with one retry.
  guidance.max_size = budget * config_.cap_slack;
  return guidance;
}

void SalsifyRateControl::OnFrameEncoded(const codec::FrameOutcome& outcome,
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

  // Account for the bits just committed until the next observation.
  state_.backlog += outcome.size;
  state_.queue_delay = state_.backlog / state_.capacity;
}

}  // namespace rave::core
