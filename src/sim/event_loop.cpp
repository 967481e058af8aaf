#include "sim/event_loop.h"

#include <cassert>
#include <cstdlib>
#include <utility>

namespace rave {

EventLoop::EventLoop() : coalescing_(std::getenv("RAVE_NO_COALESCE") == nullptr) {}

void EventLoop::Reserve(size_t events) {
  heap_.reserve(events);
  slots_.reserve(events);
  free_slots_.reserve(events);
}

EventHandle EventLoop::Schedule(TimeDelta delay, Callback fn) {
  if (delay < TimeDelta::Zero()) delay = TimeDelta::Zero();
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventHandle EventLoop::ScheduleAt(Timestamp at, Callback fn) {
  assert(fn);
  if (at < now_) at = now_;

  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    assert(slot < kSlotMask);
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  assert(next_seq_ < (1ull << 40));
  const uint64_t id = (next_seq_++ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.id = id;

  s.at = at;

  // Inside the L0 window (at >= now_ >= wheel_base_us_) the event goes
  // straight to its µs bucket; inside the L1 horizon, to its kWheelSpanUs block;
  // beyond that, to the overflow heap.
  const int64_t at_us = at.us();
  if (at_us - wheel_base_us_ < kWheelSpanUs) {
    BucketAppend(at_us & (kWheelSpanUs - 1), slot);
  } else if (at_us - l1_base_us_ < kL1SpanUs) {
    L1Append((at_us >> kWheelShift) & (kL1Buckets - 1), slot);
  } else {
    HeapPush(Event{at, id});
  }
  ++live_count_;
  return EventHandle(id);
}

void EventLoop::Cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const uint32_t slot = static_cast<uint32_t>(handle.id_ & kSlotMask);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // Stale id => the event already ran or was cancelled (and the slot
  // possibly reused by a newer event, which must survive).
  if (s.id != handle.id_) return;
  // Destroy the captured state now; the bucket/heap entry becomes a
  // tombstone whose slot is reclaimed when it surfaces.
  s.fn = Callback();
  s.id = 0;
  --live_count_;
}

void EventLoop::HeapPush(const Event& e) {
  size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

EventLoop::Event EventLoop::PopTop() {
  const Event top = heap_.front();
  const Event last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n > 0) {
    // Sift `last` down from the root, early-exiting as soon as it is no
    // later than every child of the current hole.
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t end = first + 4 < n ? first + 4 : n;
      for (size_t c = first + 1; c < end; ++c) {
        if (Earlier(heap_[c], heap_[best])) best = c;
      }
      if (!Earlier(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

void EventLoop::BucketAppend(int64_t offset, uint32_t slot) {
  slots_[slot].next = kNilSlot;
  Bucket& b = wheel_[static_cast<size_t>(offset)];
  if (b.tail == kNilSlot) {
    b.head = slot;
    occupied_.Set(offset);
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
}

void EventLoop::BucketPopHead(int64_t offset) {
  Bucket& b = wheel_[static_cast<size_t>(offset)];
  b.head = slots_[b.head].next;
  if (b.head == kNilSlot) {
    b.tail = kNilSlot;
    occupied_.Clear(offset);
  }
}

void EventLoop::L1Append(int64_t bucket, uint32_t slot) {
  slots_[slot].next = kNilSlot;
  Bucket& b = l1_wheel_[static_cast<size_t>(bucket)];
  if (b.tail == kNilSlot) {
    b.head = slot;
    l1_occupied_.Set(bucket);
  } else {
    slots_[b.tail].next = slot;
  }
  b.tail = slot;
}

void EventLoop::MigrateL1Bucket(int64_t bucket) {
  Bucket& b = l1_wheel_[static_cast<size_t>(bucket)];
  uint32_t slot = b.head;
  b.head = kNilSlot;
  b.tail = kNilSlot;
  l1_occupied_.Clear(bucket);
  while (slot != kNilSlot) {
    const uint32_t next = slots_[slot].next;
    if (slots_[slot].id == 0) {
      free_slots_.push_back(slot);  // cancelled while parked in L1
    } else {
      BucketAppend(slots_[slot].at.us() & (kWheelSpanUs - 1), slot);
    }
    slot = next;
  }
}

void EventLoop::AdvanceL1(Timestamp horizon) {
  l1_base_us_ = horizon.us() & ~(kL1SpanUs - 1);
  while (!heap_.empty() && heap_.front().at.us() - l1_base_us_ < kL1SpanUs) {
    const Event e = PopTop();
    const uint32_t slot = static_cast<uint32_t>(e.id & kSlotMask);
    if (slots_[slot].id != e.id) {
      free_slots_.push_back(slot);  // cancelled while in overflow
      continue;
    }
    L1Append((e.at.us() >> kWheelShift) & (kL1Buckets - 1), slot);
  }
}

Timestamp EventLoop::NextEventTime() {
  for (;;) {
    const int offset = occupied_.First();
    if (offset >= 0) {
      const uint32_t slot = wheel_[static_cast<size_t>(offset)].head;
      if (slots_[slot].id == 0) {
        BucketPopHead(offset);  // cancelled tombstone
        free_slots_.push_back(slot);
        continue;
      }
      return Timestamp::Micros(wheel_base_us_ + offset);
    }
    const int bucket = l1_occupied_.First();
    if (bucket >= 0) {
      // An L1 bucket index only resolves time to kWheelSpanUs; walk the (short)
      // FIFO list for the exact minimum, reclaiming head tombstones.
      Bucket& b = l1_wheel_[static_cast<size_t>(bucket)];
      while (b.head != kNilSlot && slots_[b.head].id == 0) {
        const uint32_t dead = b.head;
        b.head = slots_[dead].next;
        free_slots_.push_back(dead);
      }
      if (b.head == kNilSlot) {
        b.tail = kNilSlot;
        l1_occupied_.Clear(bucket);
        continue;
      }
      Timestamp min = Timestamp::PlusInfinity();
      for (uint32_t s = b.head; s != kNilSlot; s = slots_[s].next) {
        if (slots_[s].id != 0 && slots_[s].at < min) min = slots_[s].at;
      }
      return min;
    }
    if (heap_.empty()) return Timestamp::PlusInfinity();
    const Event& top = heap_.front();
    const uint32_t tslot = static_cast<uint32_t>(top.id & kSlotMask);
    if (slots_[tslot].id != top.id) {
      PopTop();  // cancelled tombstone
      free_slots_.push_back(tslot);
      continue;
    }
    return top.at;
  }
}

bool EventLoop::HasEventAtOrBefore(Timestamp t) {
  for (;;) {
    const int offset = occupied_.First();
    if (offset >= 0) {
      const uint32_t slot = wheel_[static_cast<size_t>(offset)].head;
      if (slots_[slot].id == 0) {
        BucketPopHead(offset);  // cancelled tombstone
        free_slots_.push_back(slot);
        continue;
      }
      return Timestamp::Micros(wheel_base_us_ + offset) <= t;
    }
    const int bucket = l1_occupied_.First();
    if (bucket >= 0) {
      // Conservative: test the bucket's start, not its exact minimum, so the
      // hot path never walks a list. A refusal is always safe (the caller
      // falls back to scheduling a real event) and the answer depends only
      // on simulation state, so it is deterministic.
      return Timestamp::Micros(l1_base_us_ + bucket * kWheelSpanUs) <= t;
    }
    if (heap_.empty()) return false;
    const Event& top = heap_.front();
    const uint32_t tslot = static_cast<uint32_t>(top.id & kSlotMask);
    if (slots_[tslot].id != top.id) {
      PopTop();  // cancelled tombstone
      free_slots_.push_back(tslot);
      continue;
    }
    return top.at <= t;
  }
}

bool EventLoop::TryAdvanceTo(Timestamp t) {
  assert(t >= now_);
  if (!coalescing_ || t > run_bound_) return false;
  if (HasEventAtOrBefore(t)) return false;
  now_ = t;
  ++events_executed_;
  return true;
}

bool EventLoop::PopAndRunNext(Timestamp until) {
  for (;;) {
    const int offset = occupied_.First();
    if (offset < 0) {
      // L0 window exhausted: refill it from the first occupied L1 bucket
      // (whose span exactly matches the L0 window), else advance the
      // L1 horizon to the earliest overflow-heap event and retry.
      const int bucket = l1_occupied_.First();
      if (bucket >= 0) {
        const int64_t block_start = l1_base_us_ + bucket * kWheelSpanUs;
        if (Timestamp::Micros(block_start) > until) return false;
        wheel_base_us_ = block_start;
        MigrateL1Bucket(bucket);
        continue;
      }
      if (heap_.empty()) return false;
      const Event& top = heap_.front();
      const uint32_t tslot = static_cast<uint32_t>(top.id & kSlotMask);
      if (slots_[tslot].id != top.id) {
        PopTop();  // cancelled tombstone
        free_slots_.push_back(tslot);
        continue;
      }
      if (top.at > until) return false;
      AdvanceL1(top.at);
      continue;
    }
    const uint32_t slot = wheel_[static_cast<size_t>(offset)].head;
    Slot& s = slots_[slot];
    if (s.id == 0) {
      BucketPopHead(offset);  // cancelled tombstone
      free_slots_.push_back(slot);
      continue;
    }
    const Timestamp at = Timestamp::Micros(wheel_base_us_ + offset);
    if (at > until) return false;
    BucketPopHead(offset);
    // Move the callback out before releasing: it may re-schedule (growing
    // slots_) or cancel, and must be able to reuse this slot.
    Callback fn = std::move(s.fn);
    s.id = 0;
    free_slots_.push_back(slot);
    --live_count_;
    now_ = at;
    ++events_executed_;
    ++events_dispatched_;
    fn();
    return true;
  }
}

void EventLoop::RunUntil(Timestamp until) {
  const Timestamp prev_bound = run_bound_;
  run_bound_ = until;
  while (PopAndRunNext(until)) {}
  run_bound_ = prev_bound;
  if (until > now_ && until.IsFinite()) now_ = until;
}

void EventLoop::RunAll() { RunUntil(Timestamp::PlusInfinity()); }

RepeatingTask::RepeatingTask(EventLoop& loop, TimeDelta period,
                             EventLoop::Callback fn)
    : loop_(loop), period_(period), fn_(std::move(fn)) {
  assert(period_ > TimeDelta::Zero());
  assert(fn_);
}

RepeatingTask::~RepeatingTask() { Stop(); }

void RepeatingTask::Start() { StartWithDelay(period_); }

void RepeatingTask::StartWithDelay(TimeDelta initial_delay) {
  Stop();
  running_ = true;
  pending_ = loop_.Schedule(initial_delay, [this] { Fire(); });
}

void RepeatingTask::Stop() {
  if (running_) {
    loop_.Cancel(pending_);
    running_ = false;
  }
}

void RepeatingTask::Fire() {
  if (!running_) return;
  pending_ = loop_.Schedule(period_, [this] { Fire(); });
  fn_();
}

}  // namespace rave
