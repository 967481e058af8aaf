// End-to-end RTC session: capture -> encoder -> packetizer -> pacer ->
// bottleneck link -> reassembly, with transport-wide feedback flowing back
// over a delay pipe into the bandwidth estimator and (for the adaptive
// scheme) the encoder controller. One Session = one run of one scheme over
// one capacity trace; every experiment in the evaluation is a set of
// Sessions.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cc/bwe.h"
#include "cc/gcc.h"
#include "codec/abr_rate_control.h"
#include "codec/cbr_rate_control.h"
#include "codec/encoder.h"
#include "core/adaptive_rate_control.h"
#include "core/circuit_breaker.h"
#include "core/degradation.h"
#include "core/salsify_rate_control.h"
#include "fault/fault_plan.h"
#include "fault/fault_scheduler.h"
#include "metrics/session_metrics.h"
#include "net/cross_traffic.h"
#include "obs/metrics_registry.h"
#include "net/link.h"
#include "rtc/scheme.h"
#include "sim/event_loop.h"
#include "transport/fec.h"
#include "transport/feedback.h"
#include "transport/frame_assembler.h"
#include "transport/packetizer.h"
#include "transport/pacer.h"
#include "transport/jitter_buffer.h"
#include "transport/rtx.h"
#include "util/interned.h"
#include "util/ring_deque.h"
#include "video/video_source.h"

namespace rave::rtc {

struct SessionConfig {
  Scheme scheme = Scheme::kAdaptive;
  TimeDelta duration = TimeDelta::Seconds(60);
  uint64_t seed = 1;

  video::VideoSourceConfig source;
  codec::EncoderConfig encoder;
  net::Link::Config link;

  /// One-way delay of the feedback path (reverse direction).
  TimeDelta feedback_delay = TimeDelta::Millis(25);
  /// Transport-wide feedback report interval.
  TimeDelta feedback_interval = TimeDelta::Millis(50);
  double feedback_loss = 0.0;

  DataRate initial_rate = DataRate::KilobitsPerSec(1500);
  /// Pacer drain rate = estimator target * pacing_factor.
  double pacing_factor = 1.25;
  /// Sender safety valve: frames are dropped before encoding once the pacer
  /// queue exceeds this (libwebrtc media-optimization behaviour). Applies to
  /// every scheme so the baseline cannot build unbounded sender queues.
  TimeDelta max_pacer_queue = TimeDelta::Seconds(2);

  /// Adaptive-scheme knobs (ablation switches live here).
  core::AdaptiveConfig adaptive;
  /// Salsify comparator knobs.
  core::SalsifyConfig salsify;
  /// Baseline knobs.
  codec::AbrConfig abr;
  codec::CbrConfig cbr;

  /// Enables the resolution-degradation extension (adaptive scheme only).
  bool enable_degradation = false;

  /// Enables NACK/RTX loss recovery (on by default, as in WebRTC).
  bool enable_rtx = true;

  /// Enables adaptive FEC (FlexFEC-style; redundancy follows loss rate).
  bool enable_fec = false;
  transport::ProtectionController::Config protection;

  /// Optional on/off cross traffic sharing the bottleneck.
  std::optional<net::CrossTraffic::Config> cross_traffic;

  /// Timed hard faults injected into the link/feedback path (empty = none).
  /// Interned: sweeps that reuse one plan across cells share it rather than
  /// copying the event list per config.
  Interned<fault::FaultPlan> faults = fault::FaultPlan();

  /// Feedback-starvation circuit breaker (RFC 8083 media-timeout style).
  /// Applies to every scheme, like the pacer valve; `feedback_interval` is
  /// filled in from the session config. Enabled by default — it only
  /// engages after ~8 consecutive missed report intervals, which benign
  /// (fault-free) scenarios never produce.
  core::CircuitBreaker::Config breaker;

  /// Name of the wireless/mobility profile this config was built from
  /// (empty = wired). Informational for reports, but part of the session
  /// cache key: two cells that differ only in profile name must not share
  /// cached results.
  std::string wireless_profile;

  TimeDelta timeseries_interval = TimeDelta::Millis(100);

  /// Whether the result carries the per-frame records and the timeseries.
  /// When false, Run() still derives the summary, the latency sketch and
  /// the registry snapshot from them, but returns `frames` and `timeseries`
  /// empty; the simulation itself is unchanged. For callers that read only
  /// summaries and sketches and keep many results alive (the suite
  /// harnesses' cached matrices). Part of the session key, so a
  /// summary-only result never serves a caller that wants detail.
  bool keep_frame_detail = true;
};

/// Everything a run produces.
struct SessionResult {
  std::string scheme_name;
  metrics::SessionSummary summary;
  /// Per-frame records and control-plane timeseries; both empty when the
  /// config's `keep_frame_detail` is false.
  std::vector<metrics::FrameRecord> frames;
  std::vector<metrics::TimeseriesPoint> timeseries;
  net::LinkStats link_stats;
  /// Circuit-breaker activity (opens/pauses/recoveries, starved time).
  core::CircuitBreaker::Stats breaker_stats;
  /// Simulation events executed by the session's loop (throughput metric).
  uint64_t events_executed = 0;
  /// Registry snapshot: counters/gauges/sketches registered by the
  /// subsystems plus session-level roll-ups (allocs/frame, wall timing).
  /// Metrics named `wall.*` are wall-clock-derived and excluded from
  /// determinism comparisons.
  obs::RegistrySnapshot metrics;
};

/// A finished result, shared read-only by the result cache and every caller
/// that asked for it: one copy per session, however many harnesses read it.
using SharedSessionResult = std::shared_ptr<const SessionResult>;

/// Builds and runs one session. Single use: construct, Run(), discard.
class Session {
 public:
  explicit Session(SessionConfig config);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs the full session and returns its results.
  SessionResult Run();

  /// Access for tests that step the session manually.
  EventLoop& loop() { return loop_; }
  const metrics::SessionMetrics& metrics() const { return metrics_; }

 private:
  void OnFrameTick();
  void OnPacerSend(net::Packet&& packet);
  void OnPacketArrival(const net::Packet& packet, Timestamp arrival);
  /// Mutable: the report's packet buffer is recycled into the feedback
  /// generator after the history join.
  void OnFeedbackAtSender(transport::FeedbackReport& report);
  void OnNackAtSender(const transport::NackBatch& batch);
  void OnFecRecovered(const net::Packet& packet, Timestamp arrival);
  void OnNackGiveUp(int64_t media_seq);
  void OnFrameComplete(const transport::CompleteFrame& frame);
  void OnFrameLost(int64_t frame_id);
  void OnTimeseriesTick();
  void OnWatchdogTick();
  core::NetworkObservation MakeObservation() const;
  /// Recent retransmission bitrate (charged against the media budget, like
  /// WebRTC's protection-bitrate accounting).
  DataRate RtxRate() const;
  /// Estimator target minus RTX overhead: what the encoder may spend.
  DataRate MediaTarget() const;

  SessionConfig config_;
  EventLoop loop_;
  /// Session-local metrics registry, installed as the thread's registry for
  /// the duration of Run() (see obs::MetricsScope).
  obs::MetricsRegistry registry_;
  video::VideoSource source_;
  metrics::SessionMetrics metrics_;
  transport::Packetizer packetizer_;
  transport::SentPacketHistory history_;

  std::unique_ptr<cc::BandwidthEstimator> bwe_;
  /// Non-owning view of bwe_ when it is a GccEstimator (for usage signals).
  cc::GccEstimator* gcc_ = nullptr;

  std::unique_ptr<codec::Encoder> encoder_;
  /// Non-owning view of the encoder's rate control when it consumes rich
  /// network observations (adaptive and salsify schemes).
  core::NetworkAwareRateControl* network_rc_ = nullptr;
  std::optional<core::DegradationController> degradation_;

  std::unique_ptr<transport::Pacer> pacer_;
  std::unique_ptr<net::Link> forward_link_;
  std::unique_ptr<net::DelayPipe> reverse_pipe_;
  std::unique_ptr<transport::FeedbackGenerator> feedback_gen_;
  std::unique_ptr<transport::FrameAssembler> assembler_;
  transport::JitterBuffer jitter_buffer_;
  transport::RtxCache rtx_cache_;
  std::unique_ptr<transport::FecEncoder> fec_encoder_;
  std::unique_ptr<transport::FecDecoder> fec_decoder_;
  transport::ProtectionController protection_;
  double fec_overhead_ = 0.0;
  std::unique_ptr<transport::NackGenerator> nack_gen_;
  std::unique_ptr<net::CrossTraffic> cross_traffic_;

  core::CircuitBreaker breaker_;
  std::unique_ptr<fault::FaultScheduler> fault_scheduler_;

  /// Transport-wide sequence space shared by first sends and RTX.
  int64_t next_transport_seq_ = 0;
  /// (send time, bits) of recent retransmissions for RtxRate().
  mutable RingDeque<std::pair<Timestamp, int64_t>> rtx_sent_;
  /// Sender-side media-seq -> frame-id map (simulation bookkeeping for the
  /// NACK give-up path), one entry per packetized frame.
  transport::FrameSeqTable frame_seqs_;
  /// Reused packetizer output; capacity persists across frames so the
  /// per-frame packetize -> enqueue path is allocation-free in steady state.
  std::vector<net::Packet> packet_scratch_;
  /// Reused history-join output for the per-report feedback path.
  std::vector<transport::PacketResult> feedback_results_;

  std::unique_ptr<RepeatingTask> frame_task_;
  std::unique_ptr<RepeatingTask> timeseries_task_;
  /// Feedback-starvation watchdog on the feedback cadence (circuit breaker).
  std::unique_ptr<RepeatingTask> watchdog_task_;

  // Latest values for observations/timeseries.
  bool overuse_decrease_seen_ = false;
  double last_qp_ = 0.0;
  double last_latency_ms_ = 0.0;
};

/// Convenience: build + run in one call.
SessionResult RunSession(const SessionConfig& config);

}  // namespace rave::rtc
