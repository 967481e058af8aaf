// Per-frame lifecycle record joining sender-side encoding info with
// receiver-side completion — the raw material of every latency/quality
// result in the evaluation.
#pragma once

#include <cstdint>
#include <optional>

#include "codec/rd_model.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::metrics {

/// Terminal state of a frame.
enum class FrameFate : uint8_t {
  kDelivered,       ///< all packets arrived; frame displayed
  kSkippedEncoder,  ///< rate control skipped it before encoding
  kDroppedSender,   ///< sender safety valve dropped it (pacer overflow)
  kLostNetwork,     ///< at least one packet dropped by the bottleneck
  kInFlight,        ///< session ended before completion
};

/// One per captured frame, and every suite result holds thousands of them,
/// so the small fields share one 8-byte slot: 96 bytes per record.
struct FrameRecord {
  int64_t frame_id = 0;
  Timestamp capture_time = Timestamp::Zero();
  FrameFate fate = FrameFate::kInFlight;

  // Encoder-side fields are valid unless the frame was skipped or dropped
  // before encoding. The small ones share fate's 8-byte slot.
  codec::FrameType type = codec::FrameType::kDelta;
  /// Receiver-side: the frame missed its playout deadline (visible stutter).
  bool late_render = false;
  int reencodes = 0;
  double qp = 0.0;
  DataSize size = DataSize::Zero();
  double ssim = 0.0;
  double psnr = 0.0;
  /// Temporal complexity of the source content at this frame; drives the
  /// freeze penalty when the frame is not displayed.
  double temporal_complexity = 0.0;

  // Receiver-side.
  std::optional<Timestamp> complete_time;
  /// When the jitter buffer put the frame on screen.
  std::optional<Timestamp> render_time;

  /// Capture-to-completion (network) latency; nullopt unless delivered.
  std::optional<TimeDelta> latency() const {
    if (!complete_time) return std::nullopt;
    return *complete_time - capture_time;
  }

  /// Capture-to-render latency (includes the playout buffer).
  std::optional<TimeDelta> render_latency() const {
    if (!render_time) return std::nullopt;
    return *render_time - capture_time;
  }
};

}  // namespace rave::metrics
