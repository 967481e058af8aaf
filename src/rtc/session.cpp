#include "rtc/session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "cc/oracle.h"
#include "codec/abr_rate_control.h"
#include "codec/cbr_rate_control.h"
#include "obs/stage_timer.h"
#include "obs/trace.h"
#include "util/alloc_probe.h"
#include "util/logging.h"

namespace rave::rtc {

namespace {

// Fills scheme-independent defaults derived from other config fields.
SessionConfig Normalize(SessionConfig c) {
  c.abr.fps = c.source.fps;
  c.abr.initial_target = c.initial_rate;
  c.cbr.fps = c.source.fps;
  c.cbr.initial_target = c.initial_rate;
  c.adaptive.fps = c.source.fps;
  c.adaptive.initial_target = c.initial_rate;
  c.salsify.fps = c.source.fps;
  c.salsify.initial_target = c.initial_rate;
  c.encoder.fps = c.source.fps;
  c.source.seed = c.seed;
  c.encoder.seed = c.seed ^ 0x9E3779B97F4A7C15ULL;
  c.breaker.feedback_interval = c.feedback_interval;
  return c;
}

}  // namespace

Session::Session(SessionConfig config)
    : config_(Normalize(std::move(config))),
      source_(config_.source),
      packetizer_(),
      protection_(config_.protection),
      breaker_(config_.breaker) {
  // A saturated session keeps a few hundred events pending (per-packet link
  // arrivals + timers); reserving up front keeps the heap allocation-free in
  // steady state.
  loop_.Reserve(1024);
  // Size the metric sinks and per-packet bookkeeping for the whole session
  // so steady-state recording never reallocates either.
  const double duration_s = config_.duration.seconds();
  const size_t expected_frames =
      static_cast<size_t>(duration_s * config_.source.fps) + 4;
  const size_t expected_points =
      static_cast<size_t>(duration_s /
                          config_.timeseries_interval.seconds()) +
      4;
  metrics_.Reserve(expected_frames, expected_points);
  frame_seqs_.Reserve(expected_frames);
  packet_scratch_.reserve(64);
  // --- bandwidth estimator ---
  if (config_.scheme == Scheme::kAdaptiveOracle) {
    bwe_ = std::make_unique<cc::OracleBwe>(loop_, config_.link.trace);
  } else {
    cc::GccEstimator::Config gcc_config;
    gcc_config.initial_rate = config_.initial_rate;
    auto gcc = std::make_unique<cc::GccEstimator>(gcc_config);
    gcc_ = gcc.get();
    bwe_ = std::move(gcc);
  }

  // --- encoder + rate control ---
  std::unique_ptr<codec::RateControl> rc;
  switch (config_.scheme) {
    case Scheme::kX264Abr:
      rc = std::make_unique<codec::AbrRateControl>(config_.abr);
      break;
    case Scheme::kX264Cbr:
      rc = std::make_unique<codec::CbrRateControl>(config_.cbr);
      break;
    case Scheme::kAdaptive:
    case Scheme::kAdaptiveOracle: {
      auto adaptive =
          std::make_unique<core::AdaptiveRateControl>(config_.adaptive);
      network_rc_ = adaptive.get();
      rc = std::move(adaptive);
      break;
    }
    case Scheme::kSalsify: {
      auto salsify =
          std::make_unique<core::SalsifyRateControl>(config_.salsify);
      network_rc_ = salsify.get();
      rc = std::move(salsify);
      break;
    }
  }
  encoder_ = std::make_unique<codec::Encoder>(config_.encoder, std::move(rc));

  if (config_.enable_degradation && network_rc_ != nullptr) {
    degradation_.emplace();
  }

  // --- transport & network ---
  pacer_ = std::make_unique<transport::Pacer>(
      loop_,
      transport::Pacer::Config{
          .initial_rate = config_.initial_rate * config_.pacing_factor},
      [this](net::Packet&& p) { OnPacerSend(std::move(p)); });

  forward_link_ = std::make_unique<net::Link>(
      loop_, config_.link, [this](const net::Packet& p, Timestamp arrival) {
        OnPacketArrival(p, arrival);
      });

  reverse_pipe_ = std::make_unique<net::DelayPipe>(
      loop_, config_.feedback_delay, config_.feedback_loss,
      TimeDelta::Zero(), config_.seed ^ 0xABCDEF);

  feedback_results_.reserve(64);
  feedback_gen_ = std::make_unique<transport::FeedbackGenerator>(
      loop_, config_.feedback_interval,
      [this](transport::FeedbackReport&& report) {
        reverse_pipe_->Send([this, report = std::move(report)]() mutable {
          OnFeedbackAtSender(report);
        });
      });

  assembler_ = std::make_unique<transport::FrameAssembler>(
      loop_, transport::FrameAssembler::Config{},
      [this](const transport::CompleteFrame& f) { OnFrameComplete(f); },
      [this](int64_t frame_id) { OnFrameLost(frame_id); });

  if (config_.enable_rtx) {
    nack_gen_ = std::make_unique<transport::NackGenerator>(
        loop_, transport::NackGenerator::Config{},
        [this](const transport::NackBatch& batch) {
          // The generator reuses its batch buffer, so the in-flight feedback
          // message needs its own copy.
          reverse_pipe_->Send([this, batch] { OnNackAtSender(batch); });
        },
        [this](int64_t media_seq) { OnNackGiveUp(media_seq); });
  }

  if (config_.enable_fec) {
    fec_encoder_ = std::make_unique<transport::FecEncoder>(
        transport::FecEncoder::Config{.group_size =
                                          config_.protection.group_size});
    fec_decoder_ = std::make_unique<transport::FecDecoder>(
        [this](const net::Packet& p, Timestamp arrival) {
          OnFecRecovered(p, arrival);
        });
  }

  if (config_.cross_traffic) {
    cross_traffic_ = std::make_unique<net::CrossTraffic>(
        loop_, *forward_link_, *config_.cross_traffic);
  }

  if (!config_.faults->empty()) {
    fault_scheduler_ = std::make_unique<fault::FaultScheduler>(
        loop_, *config_.faults, forward_link_.get(), reverse_pipe_.get());
  }

  // --- periodic drivers ---
  frame_task_ = std::make_unique<RepeatingTask>(loop_, source_.frame_interval(),
                                                [this] { OnFrameTick(); });
  timeseries_task_ = std::make_unique<RepeatingTask>(
      loop_, config_.timeseries_interval, [this] { OnTimeseriesTick(); });
  watchdog_task_ = std::make_unique<RepeatingTask>(
      loop_, config_.feedback_interval, [this] { OnWatchdogTick(); });
}

Session::~Session() = default;

DataRate Session::RtxRate() const {
  constexpr TimeDelta kWindow = TimeDelta::Millis(500);
  const Timestamp now = loop_.now();
  while (!rtx_sent_.empty() && now - rtx_sent_.front().first > kWindow) {
    rtx_sent_.pop_front();
  }
  int64_t bits = 0;
  for (size_t i = 0; i < rtx_sent_.size(); ++i) bits += rtx_sent_[i].second;
  return DataSize::Bits(bits) / kWindow;
}

DataRate Session::MediaTarget() const {
  DataRate target = std::min(bwe_->target(), breaker_.Cap());
  // FEC redundancy comes off the top (WebRTC's protection accounting)...
  if (fec_encoder_) {
    target = target * (1.0 - fec_overhead_);
  }
  // ...and so do retransmissions.
  const DataRate rtx = RtxRate();
  const DataRate floor = DataRate::KilobitsPerSec(50);
  return target > rtx + floor ? target - rtx : floor;
}

core::NetworkObservation Session::MakeObservation() const {
  core::NetworkObservation obs;
  obs.at = loop_.now();
  obs.target = MediaTarget();
  obs.acked_rate = bwe_->acked_rate();
  obs.rtt = bwe_->rtt();
  obs.loss_rate = bwe_->loss_rate();
  obs.usage = gcc_ ? gcc_->usage() : cc::BandwidthUsage::kNormal;
  obs.overuse_decrease = overuse_decrease_seen_;
  obs.pacer_queue = pacer_->queue_size();
  obs.in_flight = history_.in_flight();
  return obs;
}

void Session::OnFrameTick() {
  const Timestamp now = loop_.now();
  const video::RawFrame frame = source_.CaptureFrame(now);
  metrics_.OnFrameCaptured(frame.frame_id, now);

  // Circuit breaker escalated to a full pause: stop offering load until
  // feedback resumes (RFC 8083 media timeout).
  if (breaker_.encoder_paused()) {
    metrics_.OnFrameDroppedAtSender(frame.frame_id);
    assembler_->MarkNeverArriving(frame.frame_id);
    return;
  }

  // Sender safety valve (applies to every scheme).
  if (pacer_->ExpectedQueueTime() > config_.max_pacer_queue) {
    metrics_.OnFrameDroppedAtSender(frame.frame_id);
    assembler_->MarkNeverArriving(frame.frame_id);
    return;
  }

  if (network_rc_ != nullptr) {
    // Fresh pacer/in-flight reading right before the decision.
    network_rc_->OnNetworkUpdate(MakeObservation());
    overuse_decrease_seen_ = false;
  }

  const codec::EncodedFrame encoded = encoder_->EncodeFrame(frame, now);
  metrics::FrameRecord record;
  record.frame_id = encoded.frame_id;
  record.capture_time = encoded.capture_time;
  record.type = encoded.type;
  record.qp = encoded.qp;
  record.size = encoded.size;
  record.ssim = encoded.ssim;
  record.psnr = encoded.psnr;
  record.reencodes = encoded.reencodes;
  record.temporal_complexity = encoded.temporal_complexity;
  record.fate = encoded.skipped ? metrics::FrameFate::kSkippedEncoder
                                : metrics::FrameFate::kInFlight;
  metrics_.OnFrameEncoded(record);

  if (encoded.skipped) {
    // The frame id is consumed but no packet will ever carry it; telling
    // the assembler keeps its pending ring free of permanent holes.
    assembler_->MarkNeverArriving(encoded.frame_id);
    return;
  }
  last_qp_ = encoded.qp;

  if (degradation_ && degradation_->OnFrameQp(encoded.qp, loop_.now())) {
    source_.SetResolution(degradation_->resolution());
  }

  packetizer_.Packetize(encoded, packet_scratch_);
  if (!packet_scratch_.empty()) {
    frame_seqs_.Append(packet_scratch_.front().media_seq,
                       static_cast<int64_t>(packet_scratch_.size()),
                       encoded.frame_id);
  }
  pacer_->Enqueue(packet_scratch_);
}

void Session::OnPacerSend(net::Packet&& packet) {
  const obs::StageTimer::Scope timer(obs::StageTimer::kPacer);
  packet.seq = next_transport_seq_++;
  history_.OnPacketSent(packet);
  if (config_.enable_rtx && !packet.is_retransmission && !packet.is_fec) {
    rtx_cache_.Insert(packet, loop_.now());
  }
  if (packet.is_retransmission) {
    rtx_sent_.push_back({loop_.now(), packet.size.bits()});
  }

  // FEC: first transmissions of media close protection groups. The
  // resulting recovery packets are paced like any other packet (sending
  // them back-to-back would imprint a periodic delay gradient the trendline
  // estimator misreads as congestion); re-entering the pacer from its own
  // send callback is deferred by one event-loop turn.
  std::vector<net::Packet> recovery;
  if (fec_encoder_ && !packet.is_retransmission && !packet.is_fec &&
      packet.media_seq >= 0) {
    recovery = fec_encoder_->OnMediaPacket(packet);
  }
  forward_link_->Send(std::move(packet));
  if (!recovery.empty()) {
    loop_.Schedule(TimeDelta::Zero(),
                   [this, recovery = std::move(recovery)]() mutable {
                     pacer_->Enqueue(recovery);
                   });
  }
}

void Session::OnFecRecovered(const net::Packet& packet, Timestamp arrival) {
  if (nack_gen_) nack_gen_->OnPacketReceived(packet);
  assembler_->OnPacketReceived(packet, arrival);
}

void Session::OnPacketArrival(const net::Packet& packet, Timestamp arrival) {
  if (packet.is_fec) {
    const obs::StageTimer::Scope timer(obs::StageTimer::kFeedbackNack);
    // Recovery packet: acked for bandwidth estimation, then handed to the
    // FEC decoder with its group descriptors (sender-side bookkeeping; in a
    // real stack the descriptors ride in the FlexFEC header).
    feedback_gen_->OnPacketReceived(packet, arrival);
    if (fec_decoder_ && fec_encoder_) {
      if (const auto* group = fec_encoder_->GroupFor(packet.media_seq)) {
        fec_decoder_->OnRecoveryPacket(packet.media_seq, *group,
                                       fec_encoder_->recovery_packets(),
                                       arrival);
      }
    }
    return;
  }
  // Cross traffic terminates at a different receiver; it only matters for
  // the queueing it caused upstream.
  if (packet.media_seq < 0) return;
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kFeedbackNack);
    feedback_gen_->OnPacketReceived(packet, arrival);
    if (fec_decoder_) fec_decoder_->OnMediaPacket(packet, arrival);
    if (nack_gen_) nack_gen_->OnPacketReceived(packet);
  }
  const obs::StageTimer::Scope timer(obs::StageTimer::kAssembler);
  assembler_->OnPacketReceived(packet, arrival);
}

void Session::OnNackAtSender(const transport::NackBatch& batch) {
  // Retransmitting into an already-backlogged sender only deepens the
  // overload (the RTX would sit behind seconds of media and be useless on
  // arrival); WebRTC's pacer applies the same pressure valve.
  if (pacer_->ExpectedQueueTime() > TimeDelta::Millis(200)) return;
  for (int64_t media_seq : batch.media_seqs) {
    if (auto packet = rtx_cache_.Lookup(media_seq, loop_.now())) {
      pacer_->EnqueueFront(std::move(*packet));
    }
  }
}

void Session::OnNackGiveUp(int64_t media_seq) {
  const int64_t frame_id = frame_seqs_.FrameOf(media_seq);
  if (frame_id < 0) return;
  assembler_->AbandonFrame(frame_id);
}

void Session::OnFeedbackAtSender(transport::FeedbackReport& report) {
  const Timestamp now = loop_.now();
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kFeedbackNack);
    history_.OnFeedback(report, now, feedback_results_);
  }
  // The report's packet buffer cycles back to the receiver-side generator,
  // so the periodic feedback path stops allocating once both buffers exist.
  feedback_gen_->Recycle(std::move(report.packets));
  {
    const obs::StageTimer::Scope timer(obs::StageTimer::kTrendline);
    bwe_->OnPacketResults(feedback_results_, now);
  }
  if (gcc_ && gcc_->decreased_on_last_update()) overuse_decrease_seen_ = true;

  breaker_.OnFeedback(now, bwe_->target());
  if (breaker_.TakeKeyframeRequest()) {
    // Feedback just resumed after starvation: the reference chain is
    // presumed broken, restart from an intra frame.
    encoder_->RequestKeyFrame();
  }

  if (fec_encoder_) {
    const int recovery =
        protection_.RecoveryPacketsFor(bwe_->loss_rate());
    fec_encoder_->SetRecoveryPackets(recovery);
    fec_overhead_ = protection_.OverheadFor(recovery);
  }

  const DataRate target = std::min(bwe_->target(), breaker_.Cap());
  pacer_->SetPacingRate(target * config_.pacing_factor);

  if (network_rc_ != nullptr) {
    network_rc_->OnNetworkUpdate(MakeObservation());
    overuse_decrease_seen_ = false;
  } else {
    // Baselines: the application reconfigures the encoder's target bitrate,
    // exactly like calling x264_encoder_reconfig with the GCC estimate
    // (minus retransmission overhead, as WebRTC's protection accounting
    // does).
    encoder_->SetTargetRate(MediaTarget());
  }
}

void Session::OnFrameComplete(const transport::CompleteFrame& frame) {
  metrics_.OnFrameCompleted(frame.frame_id, frame.complete_time);
  const transport::PlayoutDecision playout =
      jitter_buffer_.OnFrameComplete(frame.capture_time, frame.complete_time);
  metrics_.OnFrameRendered(frame.frame_id, playout.render_time, playout.late);
  last_latency_ms_ = (frame.complete_time - frame.capture_time).ms_float();
}

void Session::OnFrameLost(int64_t frame_id) {
  metrics_.OnFrameLost(frame_id);
  // PLI travels back over the feedback path.
  reverse_pipe_->Send([this] { encoder_->RequestKeyFrame(); });
}

void Session::OnWatchdogTick() {
  breaker_.OnTick(loop_.now());
  if (breaker_.state() == core::CircuitBreaker::State::kClosed) return;
  // Rate control normally reacts only to feedback; while the sender is
  // starved the watchdog re-applies the (backing-off) cap so the pipeline
  // actually slows down instead of transmitting at the stale target.
  const DataRate capped = std::min(bwe_->target(), breaker_.Cap());
  pacer_->SetPacingRate(capped * config_.pacing_factor);
  if (network_rc_ == nullptr) {
    // Baselines get their targets pushed; the network-aware schemes pick up
    // the capped MediaTarget() through their per-frame observation.
    encoder_->SetTargetRate(MediaTarget());
  }
}

void Session::OnTimeseriesTick() {
  metrics::TimeseriesPoint p;
  p.at = loop_.now();
  // The link's effective rate, not the raw trace: handovers and datarate
  // renegotiations change capacity without touching the trace. (Trace
  // rate-change events carry lower seq numbers than timeseries ticks, so at
  // equal timestamps the link has already applied the step — byte-identical
  // to the old cursor lookup for wired scenarios.)
  p.capacity_kbps = forward_link_->current_rate().kbps();
  RAVE_TRACE_COUNTER(kCapacityKbps, p.at, p.capacity_kbps);
  p.bwe_target_kbps = bwe_->target().kbps();
  p.encoder_target_kbps = encoder_->rate_control().current_target().kbps();
  p.acked_kbps = bwe_->acked_rate().kbps();
  p.pacer_queue_ms = pacer_->ExpectedQueueTime().ms_float();
  p.loss_rate = bwe_->loss_rate();
  p.link_queue_ms = forward_link_->QueueDelay().ms_float();
  p.last_qp = last_qp_;
  p.last_latency_ms = last_latency_ms_;
  metrics_.AddTimeseriesPoint(p);
}

namespace {
int64_t SessionLogClock(const void* ctx) {
  return static_cast<const EventLoop*>(ctx)->now().us();
}
}  // namespace

SessionResult Session::Run() {
  // Route the subsystems' metric updates into this session's registry and
  // tag this thread's log lines with the session's sim-time while events
  // run. Both are thread-local, so parallel runners stay isolated.
  obs::MetricsScope metrics_scope(&registry_);
  LogClockScope log_clock(&SessionLogClock, &loop_);

  if (cross_traffic_) cross_traffic_->Start();
  // First frame fires immediately; subsequent frames every interval.
  frame_task_->StartWithDelay(TimeDelta::Zero());
  timeseries_task_->StartWithDelay(config_.timeseries_interval);
  if (config_.breaker.enabled) {
    watchdog_task_->StartWithDelay(config_.feedback_interval);
  }

  const AllocScope alloc_scope;
  const auto wall_start = std::chrono::steady_clock::now();
  loop_.RunUntil(loop_.now() + config_.duration);
  const int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
  const uint64_t run_allocs = alloc_scope.allocs();

  frame_task_->Stop();
  timeseries_task_->Stop();
  if (config_.breaker.enabled) watchdog_task_->Stop();

  SessionResult result;
  result.scheme_name = ToString(config_.scheme);
  result.summary = metrics_.Summarize(config_.duration);
  result.link_stats = forward_link_->stats();
  result.breaker_stats = breaker_.stats();
  result.events_executed = loop_.events_executed();

  // Session-level roll-ups into the registry before snapshotting. Only
  // sim-deterministic values may enter the snapshot — it is serialized into
  // the result-cache blob, and reruns of the same config must stay
  // bit-identical. Host-side measurements (wall clock, alloc counts) go to
  // the process-wide RuntimeStats aggregate instead.
  registry_.GetCounter("session.events")->Add(result.events_executed);
  registry_.GetCounter("breaker.opens")
      ->Add(static_cast<uint64_t>(result.breaker_stats.opens));
  registry_.GetCounter("breaker.pauses")
      ->Add(static_cast<uint64_t>(result.breaker_stats.pauses));
  registry_.GetCounter("breaker.recoveries")
      ->Add(static_cast<uint64_t>(result.breaker_stats.recoveries));
  // The per-session latency sketch is what benches and run_suite merge for
  // every cross-session percentile — no per-frame vectors leave the session.
  obs::QuantileSketch* latency = registry_.GetSketch("frame.latency_ms");
  for (double ms : metrics_.DeliveredLatenciesMs()) latency->Record(ms);
  result.metrics = registry_.Snapshot();
  // Everything that reads the frame records has run: hand them over, or
  // let them go with the session when the caller wants the summary only.
  if (config_.keep_frame_detail) {
    result.frames = metrics_.TakeFrames();
    result.timeseries = metrics_.TakeTimeseries();
  }

  obs::RuntimeStats::Instance().RecordSession(
      static_cast<double>(wall_ns) * 1e-6, result.events_executed,
      loop_.events_dispatched(), AllocProbeEnabled() ? run_allocs : 0,
      static_cast<uint64_t>(result.summary.frames_captured));
  return result;
}

SessionResult RunSession(const SessionConfig& config) {
  Session session(config);
  return session.Run();
}

}  // namespace rave::rtc
