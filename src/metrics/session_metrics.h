// Session-wide metrics collection: frame records, periodic timeseries
// samples, and the summary statistics every bench reports.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/frame_record.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::metrics {

/// One periodic sample of the control plane, for timeline figures.
struct TimeseriesPoint {
  Timestamp at = Timestamp::Zero();
  double capacity_kbps = 0.0;
  double bwe_target_kbps = 0.0;
  double encoder_target_kbps = 0.0;
  double acked_kbps = 0.0;
  double pacer_queue_ms = 0.0;
  double link_queue_ms = 0.0;
  double loss_rate = 0.0;
  double last_qp = 0.0;
  double last_latency_ms = 0.0;
};

/// Aggregated result of one session run.
struct SessionSummary {
  int64_t frames_captured = 0;
  int64_t frames_delivered = 0;
  int64_t frames_skipped = 0;       // encoder-level skips
  int64_t frames_dropped_sender = 0;
  int64_t frames_lost_network = 0;

  // Capture-to-completion (network) latency over delivered frames (ms).
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;

  // Capture-to-render latency (network + adaptive playout buffer) and the
  // fraction of delivered frames that missed their playout deadline.
  double render_latency_mean_ms = 0.0;
  double render_latency_p95_ms = 0.0;
  double late_render_ratio = 0.0;

  // Quality over delivered frames.
  double ssim_mean = 0.0;
  double psnr_mean_db = 0.0;
  double qp_mean = 0.0;

  /// Encoder-side quality: mean SSIM over all *encoded* frames, regardless
  /// of delivery — exactly the quality number an x264 run reports, and the
  /// one the paper's 0.8-3% improvement refers to.
  double encoded_ssim_mean = 0.0;

  /// System-level quality: mean *displayed* SSIM over all captured frames.
  /// An undelivered or undecodable frame displays the previous frame, whose
  /// SSIM against the current content decays with temporal complexity (a
  /// freeze on static content is benign, on motion it is not).
  double displayed_ssim_mean = 0.0;

  // Freeze: fraction of captured frames that never displayed.
  double undelivered_ratio = 0.0;

  double encoded_bitrate_kbps = 0.0;  // mean over the session
  int64_t total_reencodes = 0;

  bool operator==(const SessionSummary&) const = default;
};

/// Collector owned by the session.
class SessionMetrics {
 public:
  /// Pre-allocates the frame and timeseries vectors. The session calls this
  /// with duration x fps (and duration / timeseries interval), so steady-state
  /// recording never reallocates.
  void Reserve(size_t expected_frames, size_t expected_timeseries);

  /// Registers a captured frame (all frames pass through here first).
  void OnFrameCaptured(int64_t frame_id, Timestamp capture_time);
  /// Marks a frame dropped by the sender safety valve (never encoded).
  void OnFrameDroppedAtSender(int64_t frame_id);
  /// Records the encoder output (including skips).
  void OnFrameEncoded(const FrameRecord& encoded);
  /// Marks delivery (from the receiver's frame assembler).
  void OnFrameCompleted(int64_t frame_id, Timestamp complete_time);
  /// Records the jitter buffer's playout schedule for a delivered frame.
  void OnFrameRendered(int64_t frame_id, Timestamp render_time, bool late);
  /// Marks a frame lost in the network.
  void OnFrameLost(int64_t frame_id);

  void AddTimeseriesPoint(const TimeseriesPoint& point);

  /// Finalizes and summarizes. `duration` is the session length.
  SessionSummary Summarize(TimeDelta duration) const;

  const std::vector<FrameRecord>& frames() const { return frames_; }
  const std::vector<TimeseriesPoint>& timeseries() const {
    return timeseries_;
  }
  /// Moves the frame records / timeseries out at the end of a session; the
  /// collector holds none afterwards.
  std::vector<FrameRecord> TakeFrames() { return std::exchange(frames_, {}); }
  std::vector<TimeseriesPoint> TakeTimeseries() {
    return std::exchange(timeseries_, {});
  }

  /// Latency samples (ms) of delivered frames, for CDFs.
  std::vector<double> DeliveredLatenciesMs() const;

 private:
  FrameRecord* Find(int64_t frame_id);

  std::vector<FrameRecord> frames_;
  /// Frame ids arrive consecutively from the capture path, so the record for
  /// id x lives at frames_[x - base_frame_id_] — no hash map needed.
  int64_t base_frame_id_ = -1;
  std::vector<TimeseriesPoint> timeseries_;
};

}  // namespace rave::metrics
