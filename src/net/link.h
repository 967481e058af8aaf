// Bottleneck link model: FIFO droptail byte queue + serialization at a
// piecewise-constant capacity + fixed propagation delay.
//
// This substitutes for the tc/mahimahi bottleneck a testbed would use. The
// serializer follows the capacity trace: when the rate changes mid-packet,
// the remaining bits are re-scheduled at the new rate. It is not exact to
// the microsecond over a backlog, though: each packet's serialization time
// is rounded to the nearest µs, so the error against the fluid model builds
// up over a busy period (up to 0.9 ms measured over a 2000-packet backlog;
// ROADMAP item 8 tracks an exact fluid reference).
#pragma once

#include <cstdint>
#include <optional>

#include "net/capacity_trace.h"
#include "net/loss_model.h"
#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/random_process.h"
#include "util/inline_function.h"
#include "util/interned.h"
#include "util/ring_deque.h"
#include "util/rng.h"
#include "util/time.h"
#include "util/units.h"

namespace rave::net {

/// Counters exposed for metrics and tests.
struct LinkStats {
  int64_t packets_delivered = 0;
  /// Droptail (queue full) drops.
  int64_t packets_dropped = 0;
  /// Wireless-style corruption drops (random/Gilbert loss model).
  int64_t packets_lost_random = 0;
  /// Fault-injection counters (see fault::FaultScheduler).
  int64_t packets_duplicated = 0;
  int64_t packets_reordered = 0;
  int64_t outages = 0;
  /// Wireless-tier counters: atomic handovers and datarate renegotiations.
  int64_t handovers = 0;
  int64_t renegotiations = 0;
  DataSize bytes_delivered = DataSize::Zero();
  DataSize bytes_dropped = DataSize::Zero();

  bool operator==(const LinkStats&) const = default;
};

/// One-directional bottleneck. Delivery callback fires at the receiver-side
/// arrival time (serialization complete + propagation).
class Link {
 public:
  struct Config {
    /// Shared immutable capacity schedule: copying a Config (or a
    /// SessionConfig containing one) shares the step vector instead of
    /// deep-copying it, so sweep matrices intern one trace across cells.
    Interned<CapacityTrace> trace =
        CapacityTrace::Constant(DataRate::KilobitsPerSec(2500));
    TimeDelta propagation = TimeDelta::Millis(25);
    /// Droptail queue capacity. Default ~256 ms at 2.5 Mbps (a moderate
    /// last-mile buffer); experiments sweep this.
    DataSize queue_capacity = DataSize::Bytes(80'000);
    /// Non-congestive loss applied after serialization.
    LossModel loss;
  };

  using DeliveryCallback = InlineFunction<void(const Packet&, Timestamp)>;

  Link(EventLoop& loop, Config config, DeliveryCallback on_delivery);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Enqueues a packet (stamping `send_time` if unset); drops it if the
  /// queue is full.
  void Send(Packet packet);

  // --- fault-injection hooks (driven by fault::FaultScheduler) ---

  /// Link blackout. While on, serialization pauses mid-packet (remaining
  /// bits are frozen), the queue keeps filling and droptail keeps dropping;
  /// on revert the in-flight packet resumes exactly where it stopped.
  void SetOutage(bool on);
  bool outage() const { return outage_; }

  /// Extra propagation delay added to every subsequent delivery (delay
  /// spike). Deliveries stay in order even when the extra later shrinks.
  void SetExtraPropagation(TimeDelta extra);

  /// Each delivered packet is duplicated with probability `probability`
  /// (the copy arrives 0.5–5 ms later). 0 disables.
  void SetDuplication(double probability);

  /// Each delivered packet is held back by up to `max_extra` with
  /// probability `probability`, so later packets overtake it. 0 disables.
  void SetReordering(double probability, TimeDelta max_extra);

  // --- wireless-tier hooks (handover / datarate renegotiation) ---

  /// Atomic handover: in one event-loop action the link moves to a new
  /// cell/AP — capacity, propagation delay, and loss model all change
  /// together. The new rate persists (it is a property of the new cell,
  /// not a temporary window); an in-flight packet is retimed at the new
  /// rate exactly like a trace rate-change. `loss`, when set, replaces
  /// the loss model and reseeds its RNGs deterministically from the new
  /// model's seed.
  void Handover(DataRate rate, TimeDelta propagation,
                const std::optional<LossModel>& loss);

  /// Temporary datarate renegotiation (FPV-style modulation step). While
  /// set, the link serializes at `rate` regardless of trace or handover
  /// rate; `std::nullopt` reverts to the underlying rate. In-flight
  /// packets are retimed on every change.
  void SetRateOverride(std::optional<DataRate> rate);

  /// Replaces the base (pre-fault) propagation delay for subsequent
  /// deliveries. In-order delivery is preserved when it shrinks.
  void SetPropagation(TimeDelta propagation);

  /// Bits waiting in the queue plus the untransmitted remainder of the
  /// in-flight packet.
  DataSize backlog() const;
  /// Estimated time to drain the current backlog at the current rate.
  TimeDelta QueueDelay() const;
  /// Instantaneous capacity.
  DataRate current_rate() const { return current_rate_; }

  const LinkStats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  void StartNext();
  /// Serializer-completion drain. Completes the in-flight packet, then keeps
  /// serializing queued packets inline as long as the event loop grants
  /// TryAdvanceTo — one event per packet train instead of one per packet.
  /// Whenever the step is refused (RAVE_NO_COALESCE, an intervening event
  /// such as a rate change / fault edge / tick, tracing, or the run bound)
  /// it arms a completion event exactly where the per-packet scheduler did,
  /// so the outage/handover hooks always find an armed `completion_`.
  void OnTransmitComplete();
  /// In-order arrival drain: delivers queued receiver-side arrivals,
  /// stepping time between them when granted. Reordered and duplicated
  /// deliveries bypass the queue (their arrival order is the fault being
  /// injected) and keep per-packet events.
  void OnArrivalTimer();
  void OnRateChange();
  /// Recomputes the effective serialization rate (override > handover >
  /// trace) and retimes any in-flight packet; shared by trace
  /// rate-changes, handovers, and renegotiations.
  void ApplyEffectiveRate();
  /// Advances the Gilbert chain to sim-time `now` (one transition per
  /// `gilbert_step`), so bad-state dwell is time-based, not per-packet.
  void AdvanceGilbert(Timestamp now);
  /// Schedules receiver-side delivery (propagation + fault effects).
  void Deliver(const Packet& packet);

  EventLoop& loop_;
  Config config_;
  DeliveryCallback on_delivery_;
  /// Monotonic view of the capacity trace (rate-change callbacks fire in
  /// time order, so every lookup is an amortized O(1) index advance).
  CapacityTrace::Cursor trace_cursor_;

  RingDeque<Packet> queue_;
  DataSize queued_ = DataSize::Zero();

  /// Receiver-side in-order deliveries waiting for their arrival time.
  /// Arrival times are strictly increasing (the in-order clamp), so the
  /// drain timer is always armed for the front entry.
  struct PendingArrival {
    Packet packet;
    Timestamp at;
  };
  RingDeque<PendingArrival> arrivals_;
  bool arrival_armed_ = false;

  std::optional<Packet> in_flight_;
  double remaining_bits_ = 0.0;
  Timestamp segment_start_ = Timestamp::Zero();
  EventHandle completion_;

  DataRate current_rate_;
  LinkStats stats_;
  Rng loss_rng_;
  GilbertProcess gilbert_;
  /// Next sim time at which the Gilbert chain takes a transition.
  Timestamp gilbert_next_step_ = Timestamp::Zero();

  // Wireless-tier state. Effective rate = reneg override, else handover
  // rate, else trace rate; base propagation may be replaced by a handover.
  std::optional<DataRate> handover_rate_;
  std::optional<DataRate> reneg_rate_;
  TimeDelta base_propagation_;

  // Fault-injection state. The fault RNG is consumed only while a
  // duplication/reorder window is active, so fault-free runs are untouched.
  bool outage_ = false;
  TimeDelta extra_propagation_ = TimeDelta::Zero();
  double dup_probability_ = 0.0;
  double reorder_probability_ = 0.0;
  TimeDelta reorder_max_extra_ = TimeDelta::Zero();
  /// Latest scheduled arrival among in-order deliveries; keeps the channel
  /// FIFO when the extra propagation shrinks mid-run.
  Timestamp last_inorder_arrival_ = Timestamp::MinusInfinity();
  Rng fault_rng_;
};

/// Fixed-delay control channel for feedback messages (small packets whose
/// serialization time is negligible). Optional i.i.d. loss and bounded
/// jitter; deliveries never reorder.
class DelayPipe {
 public:
  DelayPipe(EventLoop& loop, TimeDelta delay, double loss_rate = 0.0,
            TimeDelta jitter = TimeDelta::Zero(), uint64_t seed = 99);

  /// Schedules `deliver` after the pipe delay (unless lost). The callback
  /// type is the event loop's inline-storage closure, so feedback deliveries
  /// never heap-allocate.
  void Send(EventLoop::Callback deliver);

  /// Feedback blackhole: while on, every Send is silently discarded
  /// (counted in `blackholed()`). Data already in flight still arrives.
  void SetBlackhole(bool on) { blackhole_ = on; }
  bool blackhole() const { return blackhole_; }

  /// Extra delay added to every subsequent delivery (reverse-path RTT
  /// spike). The in-order guarantee is preserved when it later shrinks.
  void SetExtraDelay(TimeDelta extra) { extra_delay_ = extra; }

  /// Replaces the base pipe delay (handover moved the reverse path to a
  /// new cell). In-order delivery is preserved when it shrinks.
  void SetBaseDelay(TimeDelta delay) { delay_ = delay; }
  TimeDelta base_delay() const { return delay_; }

  int64_t delivered() const { return delivered_; }
  int64_t lost() const { return lost_; }
  int64_t blackholed() const { return blackholed_; }

 private:
  EventLoop& loop_;
  TimeDelta delay_;
  double loss_rate_;
  TimeDelta jitter_;
  Rng rng_;
  Timestamp last_delivery_ = Timestamp::MinusInfinity();
  bool blackhole_ = false;
  TimeDelta extra_delay_ = TimeDelta::Zero();
  int64_t delivered_ = 0;
  int64_t lost_ = 0;
  int64_t blackholed_ = 0;
};

}  // namespace rave::net
