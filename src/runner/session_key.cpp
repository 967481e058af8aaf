#include "runner/session_key.h"

#include <cstring>

#include "util/byteio.h"

namespace rave::runner {

namespace {

// MurmurHash3 x64/128 (public-domain algorithm by Austin Appleby), written
// against ByteWriter's little-endian layout so the hash is host-independent.
inline uint64_t Rotl64(uint64_t x, int8_t r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t FMix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ULL;
  k ^= k >> 33;
  return k;
}

inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

SessionKey HashBytes(const uint8_t* data, size_t size, uint64_t seed) {
  const size_t nblocks = size / 16;
  uint64_t h1 = seed;
  uint64_t h2 = seed;
  constexpr uint64_t c1 = 0x87C37B91114253D5ULL;
  constexpr uint64_t c2 = 0x4CF5AD432745937FULL;

  for (size_t i = 0; i < nblocks; ++i) {
    uint64_t k1 = LoadLE64(data + i * 16);
    uint64_t k2 = LoadLE64(data + i * 16 + 8);

    k1 *= c1;
    k1 = Rotl64(k1, 31);
    k1 *= c2;
    h1 ^= k1;
    h1 = Rotl64(h1, 27);
    h1 += h2;
    h1 = h1 * 5 + 0x52DCE729;

    k2 *= c2;
    k2 = Rotl64(k2, 33);
    k2 *= c1;
    h2 ^= k2;
    h2 = Rotl64(h2, 31);
    h2 += h1;
    h2 = h2 * 5 + 0x38495AB5;
  }

  const uint8_t* tail = data + nblocks * 16;
  uint64_t k1 = 0;
  uint64_t k2 = 0;
  switch (size & 15) {
    case 15: k2 ^= static_cast<uint64_t>(tail[14]) << 48; [[fallthrough]];
    case 14: k2 ^= static_cast<uint64_t>(tail[13]) << 40; [[fallthrough]];
    case 13: k2 ^= static_cast<uint64_t>(tail[12]) << 32; [[fallthrough]];
    case 12: k2 ^= static_cast<uint64_t>(tail[11]) << 24; [[fallthrough]];
    case 11: k2 ^= static_cast<uint64_t>(tail[10]) << 16; [[fallthrough]];
    case 10: k2 ^= static_cast<uint64_t>(tail[9]) << 8; [[fallthrough]];
    case 9:
      k2 ^= static_cast<uint64_t>(tail[8]);
      k2 *= c2;
      k2 = Rotl64(k2, 33);
      k2 *= c1;
      h2 ^= k2;
      [[fallthrough]];
    case 8: k1 ^= static_cast<uint64_t>(tail[7]) << 56; [[fallthrough]];
    case 7: k1 ^= static_cast<uint64_t>(tail[6]) << 48; [[fallthrough]];
    case 6: k1 ^= static_cast<uint64_t>(tail[5]) << 40; [[fallthrough]];
    case 5: k1 ^= static_cast<uint64_t>(tail[4]) << 32; [[fallthrough]];
    case 4: k1 ^= static_cast<uint64_t>(tail[3]) << 24; [[fallthrough]];
    case 3: k1 ^= static_cast<uint64_t>(tail[2]) << 16; [[fallthrough]];
    case 2: k1 ^= static_cast<uint64_t>(tail[1]) << 8; [[fallthrough]];
    case 1:
      k1 ^= static_cast<uint64_t>(tail[0]);
      k1 *= c1;
      k1 = Rotl64(k1, 31);
      k1 *= c2;
      h1 ^= k1;
      break;
    case 0:
      break;
  }

  h1 ^= static_cast<uint64_t>(size);
  h2 ^= static_cast<uint64_t>(size);
  h1 += h2;
  h2 += h1;
  h1 = FMix64(h1);
  h2 = FMix64(h2);
  h1 += h2;
  h2 += h1;
  return SessionKey{h1, h2};
}

std::string SessionKey::ToHex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const uint64_t word = i < 8 ? hi : lo;
    const int shift = 8 * (7 - (i & 7));
    const uint8_t byte = static_cast<uint8_t>(word >> shift);
    out[2 * i] = kDigits[byte >> 4];
    out[2 * i + 1] = kDigits[byte & 0xF];
  }
  return out;
}

namespace {

// Every Put* helper writes a fixed-width canonical encoding; infinities ride
// on the underlying sentinel integer values, which are part of the semantics.
void PutTime(ByteWriter& w, Timestamp t) { w.I64(t.us()); }
void PutDelta(ByteWriter& w, TimeDelta d) { w.I64(d.us()); }
void PutRate(ByteWriter& w, DataRate r) { w.I64(r.bps()); }
void PutSize(ByteWriter& w, DataSize s) { w.I64(s.bits()); }

void PutTrace(ByteWriter& w, const net::CapacityTrace& trace) {
  w.U64(trace.steps().size());
  for (const net::CapacityTrace::Step& step : trace.steps()) {
    PutTime(w, step.start);
    PutRate(w, step.rate);
  }
}

void PutLossModel(ByteWriter& w, const net::LossModel& loss) {
  w.F64(loss.random_loss);
  w.Bool(loss.gilbert_enabled);
  w.F64(loss.gilbert.p_good_to_bad);
  w.F64(loss.gilbert.p_bad_to_good);
  w.F64(loss.gilbert_bad_loss);
  PutDelta(w, loss.gilbert_step);
  w.U64(loss.seed);
}

void PutFaults(ByteWriter& w, const fault::FaultPlan& plan) {
  w.U64(plan.events().size());
  for (const fault::FaultEvent& e : plan.events()) {
    w.U8(static_cast<uint8_t>(e.kind));
    PutTime(w, e.start);
    PutDelta(w, e.duration);
    w.F64(e.magnitude);
    PutDelta(w, e.delay);
    PutRate(w, e.rate);
    PutDelta(w, e.propagation);
    w.Bool(e.loss.has_value());
    if (e.loss) PutLossModel(w, *e.loss);
  }
}

}  // namespace

SessionKey ComputeSessionKey(const rtc::SessionConfig& c) {
  ByteWriter w;
  w.Reserve(1024 + 16 * c.link.trace->steps().size());

  w.U64(kSimFingerprint);

  w.U8(static_cast<uint8_t>(c.scheme));
  PutDelta(w, c.duration);
  w.U64(c.seed);

  // video::VideoSourceConfig
  w.U32(static_cast<uint32_t>(c.source.resolution.width));
  w.U32(static_cast<uint32_t>(c.source.resolution.height));
  w.F64(c.source.fps);
  w.U8(static_cast<uint8_t>(c.source.content));
  w.U64(c.source.seed);

  // codec::EncoderConfig
  w.F64(c.encoder.fps);
  w.U32(static_cast<uint32_t>(c.encoder.keyframe_interval_frames));
  w.Bool(c.encoder.keyframe_on_scene_change);
  PutDelta(w, c.encoder.min_keyframe_interval);
  w.U32(static_cast<uint32_t>(c.encoder.max_reencodes));
  w.F64(c.encoder.cap_tolerance);
  w.F64(c.encoder.rd.coef_p);
  w.F64(c.encoder.rd.gamma_p);
  w.F64(c.encoder.rd.coef_i);
  w.F64(c.encoder.rd.gamma_i);
  w.F64(c.encoder.rd.noise_sigma);
  w.F64(c.encoder.rd.ssim_d0);
  w.F64(c.encoder.rd.ssim_beta);
  w.I64(c.encoder.rd.min_frame_bits);
  w.U64(c.encoder.seed);

  // net::Link::Config
  PutTrace(w, *c.link.trace);
  PutDelta(w, c.link.propagation);
  PutSize(w, c.link.queue_capacity);
  PutLossModel(w, c.link.loss);

  // Feedback path.
  PutDelta(w, c.feedback_delay);
  PutDelta(w, c.feedback_interval);
  w.F64(c.feedback_loss);

  PutRate(w, c.initial_rate);
  w.F64(c.pacing_factor);
  PutDelta(w, c.max_pacer_queue);

  // core::AdaptiveConfig
  w.F64(c.adaptive.fps);
  PutRate(w, c.adaptive.initial_target);
  w.F64(c.adaptive.budget.fps);
  PutDelta(w, c.adaptive.budget.allowed_queue_delay);
  w.U32(static_cast<uint32_t>(c.adaptive.budget.drain_horizon_frames));
  w.U32(static_cast<uint32_t>(c.adaptive.budget.steady_drain_horizon_frames));
  w.F64(c.adaptive.budget.drain_utilization);
  w.F64(c.adaptive.budget.steady_utilization);
  PutSize(w, c.adaptive.budget.min_frame);
  PutDelta(w, c.adaptive.budget.skip_queue_delay);
  w.U32(static_cast<uint32_t>(c.adaptive.budget.max_consecutive_skips));
  w.F64(c.adaptive.budget.key_boost_steady);
  w.F64(c.adaptive.budget.key_boost_drop);
  w.F64(c.adaptive.budget.cap_slack_steady);
  w.F64(c.adaptive.budget.cap_slack_drop);
  w.F64(c.adaptive.drop.drop_ratio);
  PutDelta(w, c.adaptive.drop.window);
  PutDelta(w, c.adaptive.drop.hold);
  PutDelta(w, c.adaptive.drop.queue_delay_trigger);
  PutDelta(w, c.adaptive.drop.queue_delay_clear);
  PutDelta(w, c.adaptive.drop.overuse_queue_gate);
  w.F64(c.adaptive.qp_down_step);
  w.F64(c.adaptive.qp_up_step_steady);
  w.F64(c.adaptive.steady_capacity_alpha);
  w.Bool(c.adaptive.enable_fast_qp);
  w.Bool(c.adaptive.enable_frame_cap);
  w.Bool(c.adaptive.enable_drain_mode);
  w.Bool(c.adaptive.enable_skip);

  // core::SalsifyConfig
  w.F64(c.salsify.fps);
  PutRate(w, c.salsify.initial_target);
  PutDelta(w, c.salsify.pause_threshold);
  w.U32(static_cast<uint32_t>(c.salsify.max_consecutive_skips));
  w.F64(c.salsify.key_boost);
  w.F64(c.salsify.cap_slack);
  PutSize(w, c.salsify.min_frame);

  // codec::AbrConfig
  w.F64(c.abr.fps);
  PutRate(w, c.abr.initial_target);
  w.F64(c.abr.qcomp);
  w.F64(c.abr.rate_tolerance);
  w.F64(c.abr.qp_step);
  w.F64(c.abr.ip_factor);
  PutDelta(w, c.abr.vbv_window);
  w.F64(c.abr.window_seconds);

  // codec::CbrConfig
  w.F64(c.cbr.fps);
  PutRate(w, c.cbr.initial_target);
  PutDelta(w, c.cbr.vbv_window);
  w.F64(c.cbr.qp_step);
  w.F64(c.cbr.ip_factor);
  w.F64(c.cbr.target_fullness);

  w.Bool(c.enable_degradation);
  w.Bool(c.enable_rtx);
  w.Bool(c.enable_fec);

  // transport::ProtectionController::Config
  w.U32(static_cast<uint32_t>(c.protection.group_size));
  w.U32(static_cast<uint32_t>(c.protection.max_recovery));
  w.F64(c.protection.activation_loss);
  w.F64(c.protection.headroom);

  // Optional cross traffic.
  w.Bool(c.cross_traffic.has_value());
  if (c.cross_traffic) {
    PutRate(w, c.cross_traffic->rate);
    PutDelta(w, c.cross_traffic->mean_on);
    PutDelta(w, c.cross_traffic->mean_off);
    PutSize(w, c.cross_traffic->packet_size);
    w.Bool(c.cross_traffic->start_on);
    w.U64(c.cross_traffic->seed);
  }

  PutFaults(w, *c.faults);

  // core::CircuitBreaker::Config
  w.Bool(c.breaker.enabled);
  PutDelta(w, c.breaker.feedback_interval);
  w.U32(static_cast<uint32_t>(c.breaker.open_after_missed));
  w.F64(c.breaker.backoff_factor);
  PutRate(w, c.breaker.floor);
  PutDelta(w, c.breaker.pause_after);
  w.F64(c.breaker.recovery_start_fraction);
  w.F64(c.breaker.ramp_up_factor);

  w.Str(c.wireless_profile);

  PutDelta(w, c.timeseries_interval);
  w.Bool(c.keep_frame_detail);

  const std::vector<uint8_t>& bytes = w.bytes();
  return HashBytes(bytes.data(), bytes.size(), kSimFingerprint);
}

}  // namespace rave::runner
