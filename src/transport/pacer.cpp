#include "transport/pacer.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/trace.h"

namespace rave::transport {

Pacer::Pacer(EventLoop& loop, const Config& config, SendCallback send)
    : loop_(loop),
      send_(std::move(send)),
      rate_(config.initial_rate),
      burst_(config.burst) {
  assert(send_);
  assert(rate_.bps() > 0);
}

void Pacer::Enqueue(std::vector<net::Packet>& packets) {
  for (net::Packet& p : packets) {
    queued_ += p.size;
    queue_.push_back(std::move(p));
  }
  packets.clear();
  MaybeSend();
}

void Pacer::EnqueueFront(net::Packet packet) {
  queued_ += packet.size;
  queue_.push_front(std::move(packet));
  MaybeSend();
}

void Pacer::SetPacingRate(DataRate rate) {
  if (rate.bps() <= 0) return;
  // Outstanding send debt was accumulated in time units at the old rate;
  // rescale it so the bits owed stay constant across the change.
  const Timestamp now = loop_.now();
  if (next_send_time_ > now) {
    const DataSize owed = rate_ * (next_send_time_ - now);
    next_send_time_ = now + owed / rate;
  }
  rate_ = rate;
  // A rate change may let queued packets out earlier than the armed timer;
  // re-evaluate immediately.
  MaybeSend();
}

TimeDelta Pacer::ExpectedQueueTime() const {
  if (queued_.IsZero()) return TimeDelta::Zero();
  return queued_ / rate_;
}

void Pacer::MaybeSend() {
  const Timestamp now = loop_.now();
  // Cap accumulated credit at one burst window.
  if (next_send_time_ < now - burst_) next_send_time_ = now - burst_;

  while (!queue_.empty() && next_send_time_ <= now) {
    net::Packet p = std::move(queue_.front());
    queue_.pop_front();
    queued_ -= p.size;
    p.send_time = now;
    next_send_time_ += p.size / rate_;
    ++packets_sent_;
    send_(std::move(p));
  }

  RAVE_TRACE_COUNTER(kPacerQueueMs, now, ExpectedQueueTime().ms_float());

  if (!queue_.empty()) {
    // Re-arm if no timer is pending, or the pending one fires too late for
    // the (possibly rescaled) next send time.
    if (timer_armed_ && armed_for_ <= next_send_time_) return;
    if (timer_armed_) loop_.Cancel(pending_);
    timer_armed_ = true;
    armed_for_ = next_send_time_;
    pending_ = loop_.ScheduleAt(next_send_time_, [this] { OnTimer(); });
  }
}

void Pacer::OnTimer() {
  timer_armed_ = false;
  // With an active trace the per-wake queue-depth counter must keep its
  // per-packet cadence, so time stepping is disabled — results are
  // unchanged either way.
  const bool may_step = obs::CurrentTrace() == nullptr;
  for (;;) {
    const Timestamp now = loop_.now();
    // The credit clamp is a no-op on a timer wake (the timer fires exactly
    // at next_send_time_), but stays for parity with MaybeSend.
    if (next_send_time_ < now - burst_) next_send_time_ = now - burst_;

    while (!queue_.empty() && next_send_time_ <= now) {
      net::Packet p = std::move(queue_.front());
      queue_.pop_front();
      queued_ -= p.size;
      p.send_time = now;
      next_send_time_ += p.size / rate_;
      ++packets_sent_;
      send_(std::move(p));
    }

    RAVE_TRACE_COUNTER(kPacerQueueMs, now, ExpectedQueueTime().ms_float());

    if (queue_.empty()) return;
    // Packet-train fast path: if nothing else in the simulation can run
    // before the next send, step straight to it instead of paying for a
    // fresh timer event. Refused (RAVE_NO_COALESCE, a pending event at or
    // before next_send_time_, tracing, or the run bound), this arms the
    // identical continuation a per-packet pacer would.
    if (!may_step || !loop_.TryAdvanceTo(next_send_time_)) {
      timer_armed_ = true;
      armed_for_ = next_send_time_;
      pending_ = loop_.ScheduleAt(next_send_time_, [this] { OnTimer(); });
      return;
    }
  }
}

}  // namespace rave::transport
