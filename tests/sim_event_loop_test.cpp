#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "util/alloc_probe.h"
#include "util/rng.h"

namespace rave {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Millis(20), [&] { order.push_back(2); });
  loop.Schedule(TimeDelta::Millis(10), [&] { order.push_back(1); });
  loop.Schedule(TimeDelta::Millis(30), [&] { order.push_back(3); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoopTest, SameTimeEventsRunInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(TimeDelta::Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, NowAdvancesToEventTime) {
  EventLoop loop;
  Timestamp seen = Timestamp::Zero();
  loop.Schedule(TimeDelta::Millis(123), [&] { seen = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(123));
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryInclusive) {
  EventLoop loop;
  int ran = 0;
  loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(21), [&] { ++ran; });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.now(), Timestamp::Millis(20));
  loop.RunAll();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoopTest, RunForAdvancesClockEvenWithoutEvents) {
  EventLoop loop;
  loop.RunFor(TimeDelta::Seconds(5));
  EXPECT_EQ(loop.now(), Timestamp::Seconds(5));
}

TEST(EventLoopTest, ReentrantScheduling) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Millis(10), [&] {
    order.push_back(1);
    loop.Schedule(TimeDelta::Millis(5), [&] { order.push_back(2); });
  });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), Timestamp::Millis(15));
}

TEST(EventLoopTest, ZeroAndNegativeDelaysClampToNow) {
  EventLoop loop;
  loop.RunFor(TimeDelta::Millis(100));
  Timestamp seen = Timestamp::MinusInfinity();
  loop.Schedule(TimeDelta::Millis(-50), [&] { seen = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(100));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  int ran = 0;
  EventHandle handle = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Cancel(handle);
  loop.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventLoopTest, CancelInertHandleIsNoop) {
  EventLoop loop;
  loop.Cancel(EventHandle{});
  int ran = 0;
  loop.Schedule(TimeDelta::Millis(1), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 1);
}

TEST(EventLoopTest, PendingCountExcludesCancelled) {
  EventLoop loop;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [] {});
  loop.Schedule(TimeDelta::Millis(20), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(h);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, CancelAfterExecutionIsNoop) {
  EventLoop loop;
  int ran = 0;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 1);
  loop.Cancel(h);  // already ran; must not disturb later events
  loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunAll();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, DoubleCancelIsNoop) {
  EventLoop loop;
  int ran = 0;
  EventHandle h = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.Schedule(TimeDelta::Millis(20), [&] { ++ran; });
  loop.Cancel(h);
  loop.Cancel(h);
  loop.RunAll();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.events_executed(), 1u);
}

// Stress test and perf canary for the cancel path: 100k events with half of
// them cancelled must execute exactly the live half, in order. Before the
// O(1) tombstone lookup this was an O(pending x cancelled) scan per pop and
// took minutes; it now finishes in milliseconds.
TEST(EventLoopTest, ScheduleCancelStress100k) {
  constexpr int kEvents = 100'000;
  EventLoop loop;
  loop.Reserve(kEvents);
  std::vector<EventHandle> handles;
  handles.reserve(kEvents);
  int64_t executed_sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    // Spread fire times so the heap stays deep while cancelled tombstones
    // are interleaved with live events.
    handles.push_back(loop.Schedule(TimeDelta::Micros(1 + (i * 7919) % 5000),
                                    [&executed_sum, i] { executed_sum += i; }));
  }
  int64_t expected_sum = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 2 == 0) {
      loop.Cancel(handles[static_cast<size_t>(i)]);
    } else {
      expected_sum += i;
    }
  }
  EXPECT_EQ(loop.pending(), static_cast<size_t>(kEvents) / 2);
  loop.RunAll();
  EXPECT_EQ(loop.events_executed(), static_cast<uint64_t>(kEvents) / 2);
  EXPECT_EQ(executed_sum, expected_sum);
  EXPECT_EQ(loop.pending(), 0u);
}

// Cancelling mid-run from inside a callback must prevent the target from
// firing even when both events share a fire time.
TEST(EventLoopTest, CancelFromCallbackSameTime) {
  EventLoop loop;
  int ran = 0;
  EventHandle victim;
  loop.Schedule(TimeDelta::Millis(10), [&] { loop.Cancel(victim); });
  victim = loop.Schedule(TimeDelta::Millis(10), [&] { ++ran; });
  loop.RunAll();
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(loop.events_executed(), 1u);
}

TEST(RepeatingTaskTest, FiresAtPeriod) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(100), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(1000));
  EXPECT_EQ(fired, 10);
}

TEST(RepeatingTaskTest, StartWithDelayZeroFiresImmediately) {
  EventLoop loop;
  std::vector<int64_t> fire_times_ms;
  RepeatingTask task(loop, TimeDelta::Millis(100),
                     [&] { fire_times_ms.push_back(loop.now().ms()); });
  task.StartWithDelay(TimeDelta::Zero());
  loop.RunFor(TimeDelta::Millis(250));
  EXPECT_EQ(fire_times_ms, (std::vector<int64_t>{0, 100, 200}));
}

TEST(RepeatingTaskTest, StopHaltsFiring) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(10), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(35));
  task.Stop();
  loop.RunFor(TimeDelta::Millis(100));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(task.running());
}

TEST(RepeatingTaskTest, StopFromWithinCallback) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(10), [&] {
    ++fired;
    // Stop after the second firing; `task` must survive re-entrant Stop.
  });
  task.Start();
  RepeatingTask stopper(loop, TimeDelta::Millis(25), [&] { task.Stop(); });
  stopper.Start();
  loop.RunFor(TimeDelta::Millis(200));
  EXPECT_EQ(fired, 2);
}

TEST(RepeatingTaskTest, RestartResetsPhase) {
  EventLoop loop;
  int fired = 0;
  RepeatingTask task(loop, TimeDelta::Millis(100), [&] { ++fired; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(150));  // fired once at 100
  task.Start();                         // re-phase: next at 250
  loop.RunFor(TimeDelta::Millis(120));  // now at 270
  EXPECT_EQ(fired, 2);
}

// --- generation-slot liveness table ---

TEST(EventLoopSlotTableTest, StaleHandleCannotCancelSlotReusedByNewEvent) {
  EventLoop loop;
  bool first_fired = false;
  bool second_fired = false;
  EventHandle first =
      loop.Schedule(TimeDelta::Millis(10), [&] { first_fired = true; });
  loop.Cancel(first);  // releases the slot; `first` is now stale
  // The freed slot is reused (LIFO free list) by the next schedule.
  loop.Schedule(TimeDelta::Millis(20), [&] { second_fired = true; });
  loop.Cancel(first);  // stale generation: must NOT kill the new event
  loop.RunAll();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(EventLoopSlotTableTest, HandleStaysStaleAcrossManySlotReuses) {
  EventLoop loop;
  EventHandle stale = loop.Schedule(TimeDelta::Millis(1), [] {});
  loop.Cancel(stale);
  int fired = 0;
  // Recycle the same slot many times; the stale handle must never match any
  // of the new generations.
  for (int i = 0; i < 1000; ++i) {
    loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
    loop.Cancel(stale);
    loop.RunFor(TimeDelta::Millis(2));
  }
  EXPECT_EQ(fired, 1000);
}

TEST(EventLoopSlotTableTest, CancelAfterFireWithReusedSlotIsNoop) {
  EventLoop loop;
  int fired = 0;
  EventHandle ran =
      loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
  loop.RunFor(TimeDelta::Millis(5));
  EXPECT_EQ(fired, 1);
  // The fired event's slot is free; a new event takes it.
  loop.Schedule(TimeDelta::Millis(1), [&fired] { ++fired; });
  loop.Cancel(ran);  // refers to the already-fired event, not the new one
  loop.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopSlotTableTest, PendingCountsLiveEventsNotTombstones) {
  EventLoop loop;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(loop.Schedule(TimeDelta::Millis(i + 1), [] {}));
  }
  EXPECT_EQ(loop.pending(), 10u);
  for (int i = 0; i < 10; i += 2) loop.Cancel(handles[static_cast<size_t>(i)]);
  // Tombstones still sit in the heap, but pending() reflects liveness.
  EXPECT_EQ(loop.pending(), 5u);
  loop.RunAll();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoopSlotTableTest, ReserveKeepsScheduleCancelAllocationFree) {
  EventLoop loop;
  loop.Reserve(256);
  // Warm once: the first firings may lazily touch nothing, but keep the
  // pattern identical to the measured pass.
  for (int i = 0; i < 256; ++i) {
    loop.Cancel(loop.Schedule(TimeDelta::Millis(1), [] {}));
  }
  loop.RunFor(TimeDelta::Millis(2));
  AllocScope scope;
  for (int i = 0; i < 256; ++i) {
    loop.Cancel(loop.Schedule(TimeDelta::Millis(1), [] {}));
  }
  loop.RunFor(TimeDelta::Millis(2));
  if (AllocProbeEnabled()) {
    EXPECT_EQ(scope.allocs(), 0u);
  }
}

TEST(EventLoopSlotTableTest, CallbackResourcesReleasedOnCancel) {
  EventLoop loop;
  auto tracked = std::make_shared<int>(1);
  std::weak_ptr<int> watch = tracked;
  EventHandle h =
      loop.Schedule(TimeDelta::Millis(5), [keep = std::move(tracked)] {});
  ASSERT_FALSE(watch.expired());
  loop.Cancel(h);
  // Cancellation releases the captured state immediately, without waiting
  // for the tombstone to surface from the heap.
  EXPECT_TRUE(watch.expired());
}

// --- two-level wheel horizons ---
//
// Delays are chosen to land one event in each storage tier: the L0 per-µs
// window (< ~4 ms), the L1 outer wheel (< ~16.8 s), and the overflow heap
// (beyond). The tiers are an implementation detail; these tests pin the
// observable contract — exact peek times and strict (fire time, seq) order —
// across every tier boundary.

TEST(EventLoopWheelTest, OrderPreservedAcrossAllHorizons) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(TimeDelta::Seconds(20), [&] { order.push_back(5); });   // heap
  loop.Schedule(TimeDelta::Micros(100), [&] { order.push_back(1); });  // L0
  loop.Schedule(TimeDelta::Seconds(1), [&] { order.push_back(3); });   // L1
  loop.Schedule(TimeDelta::Millis(5), [&] { order.push_back(2); });    // L1
  loop.Schedule(TimeDelta::Seconds(2), [&] { order.push_back(4); });   // L1
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.now(), Timestamp::Seconds(20));
}

TEST(EventLoopWheelTest, SameTimeTiesRunInScheduleOrderAcrossTiers) {
  EventLoop loop;
  std::vector<int> order;
  // All fire at the same instant, far enough out to start life in the heap,
  // then migrate heap -> L1 -> L0 before dispatch. The migrations must keep
  // scheduling order.
  for (int i = 0; i < 8; ++i) {
    loop.Schedule(TimeDelta::Seconds(18), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventLoopWheelTest, NextEventTimeIsExactInEveryTier) {
  EventLoop loop;
  EXPECT_EQ(loop.NextEventTime(), Timestamp::PlusInfinity());

  loop.Schedule(TimeDelta::Seconds(19) + TimeDelta::Micros(7), [] {});
  EXPECT_EQ(loop.NextEventTime(),
            Timestamp::Seconds(19) + TimeDelta::Micros(7));  // heap

  loop.Schedule(TimeDelta::Millis(900) + TimeDelta::Micros(3), [] {});
  EXPECT_EQ(loop.NextEventTime(),
            Timestamp::Millis(900) + TimeDelta::Micros(3));  // L1, exact µs

  loop.Schedule(TimeDelta::Micros(250), [] {});
  EXPECT_EQ(loop.NextEventTime(), Timestamp::Micros(250));  // L0
  loop.RunAll();
  EXPECT_EQ(loop.NextEventTime(), Timestamp::PlusInfinity());
}

TEST(EventLoopWheelTest, CancelledEventsNeverFireFromL1OrHeap) {
  EventLoop loop;
  int fired = 0;
  EventHandle in_l1 = loop.Schedule(TimeDelta::Millis(500), [&] { ++fired; });
  EventHandle in_heap = loop.Schedule(TimeDelta::Seconds(19), [&] { ++fired; });
  loop.Schedule(TimeDelta::Seconds(19), [&] { ++fired; });  // survivor
  loop.Cancel(in_l1);
  loop.Cancel(in_heap);
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunAll();
  EXPECT_EQ(fired, 1);
}

// --- TryAdvanceTo gating ---

TEST(EventLoopCoalesceTest, StepGrantedOnlyWhenStrictlyBeforeEveryEvent) {
  EventLoop loop;
  ASSERT_TRUE(loop.coalescing());  // default on (RAVE_NO_COALESCE unset)
  bool granted_past_pending = true;
  bool granted_free_gap = false;
  loop.Schedule(TimeDelta::Millis(12), [] {});
  loop.Schedule(TimeDelta::Millis(10), [&] {
    // An event pends at 12 ms <= 15 ms: the step must be refused.
    granted_past_pending = loop.TryAdvanceTo(Timestamp::Millis(15));
    // 11 ms is strictly before every pending event: granted, time moves.
    granted_free_gap = loop.TryAdvanceTo(Timestamp::Millis(11));
  });
  loop.RunAll();
  EXPECT_FALSE(granted_past_pending);
  EXPECT_TRUE(granted_free_gap);
}

TEST(EventLoopCoalesceTest, StepRefusedBeyondRunBoundAndWhenDisabled) {
  EventLoop loop;
  bool past_bound = true;
  bool within_bound = false;
  loop.Schedule(TimeDelta::Millis(5), [&] {
    past_bound = loop.TryAdvanceTo(Timestamp::Millis(25));   // bound is 20 ms
    within_bound = loop.TryAdvanceTo(Timestamp::Millis(18));
  });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_FALSE(past_bound);
  EXPECT_TRUE(within_bound);

  EventLoop off;
  off.set_coalescing(false);
  bool granted = true;
  off.Schedule(TimeDelta::Millis(5),
               [&] { granted = off.TryAdvanceTo(Timestamp::Millis(8)); });
  off.RunAll();
  EXPECT_FALSE(granted);
}

TEST(EventLoopCoalesceTest, LogicalEventCountInvariantAcrossModes) {
  // A self-rescheduling worker that prefers stepping: with coalescing it
  // advances through its cadence inside one dispatch; without, every tick is
  // its own event. events_executed must come out identical.
  auto run = [](bool coalesce) {
    EventLoop loop;
    loop.set_coalescing(coalesce);
    int ticks = 0;
    std::function<void()> tick = [&] {
      ++ticks;
      while (ticks < 50) {
        const Timestamp next = loop.now() + TimeDelta::Micros(700);
        if (loop.TryAdvanceTo(next)) {
          ++ticks;
        } else {
          loop.ScheduleAt(next, [&] { tick(); });
          return;
        }
      }
    };
    loop.Schedule(TimeDelta::Micros(700), [&] { tick(); });
    // A cross-cutting periodic event forces refusals mid-train.
    RepeatingTask other(loop, TimeDelta::Millis(3), [] {});
    other.Start();
    loop.RunUntil(Timestamp::Millis(60));
    return std::pair<int, uint64_t>(ticks, loop.events_executed());
  };
  const auto with = run(true);
  const auto without = run(false);
  EXPECT_EQ(with.first, without.first);
  EXPECT_EQ(with.second, without.second);
}

// --- differential check against a reference scheduler ---
//
// A seeded random workload drives the wheel and a plain std::priority_queue
// on (at, seq) side by side: schedules at every horizon (same µs, L0, L1,
// overflow heap, across the 2^24 µs L1 wrap), cancels of live and stale
// handles, re-entrant schedules and cancels from callbacks, random and
// exact-event-time RunUntil bounds, NextEventTime peeks and TryAdvanceTo
// steps. The loop must dispatch exactly the reference's sequence, peek the
// reference's exact next time, and never grant a step that jumps an event.
class SchedulerDiff {
 public:
  explicit SchedulerDiff(uint64_t seed) : rng_(seed) {
    loop_.set_coalescing(true);
  }

  void Run(Timestamp end) {
    for (int i = 0; i < 64; ++i) ScheduleRandom();
    while (failure_.empty() && ref_now_ < end.us()) {
      // Between runs: outside schedules, cancels and peeks.
      const int64_t ops = rng_.UniformInt(0, 3);
      for (int64_t i = 0; i < ops; ++i) RandomAction(/*in_callback=*/false);
      CheckNextEventTime("between runs");
      int64_t until = ref_now_ + RandomDelayUs();
      // Bounds exactly on a pending event's time test RunUntil's inclusive
      // admission.
      const int64_t next = RefNext();
      if (next != kNone && rng_.UniformInt(0, 3) == 0) until = next;
      bound_us_ = until;
      loop_.RunUntil(Timestamp::Micros(until));
      bound_us_ = kNone;
      if (!failure_.empty()) break;
      const int64_t left = RefNext();
      if (left != kNone && left <= until) {
        Fail("RunUntil(" + std::to_string(until) +
             ") returned with an event pending at " + std::to_string(left));
      }
      if (until > ref_now_) ref_now_ = until;
      if (loop_.now().us() != ref_now_) Fail("now() after RunUntil");
    }
  }

  const std::string& failure() const { return failure_; }
  int64_t dispatched() const { return dispatched_; }
  int64_t grants() const { return grants_; }
  int64_t refusals() const { return refusals_; }
  uint64_t events_executed() const { return loop_.events_executed(); }

 private:
  static constexpr int64_t kNone = INT64_MAX;
  enum class State : uint8_t { kPending, kDone };
  struct RefEvent {
    int64_t at;
    uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const RefEvent& a, const RefEvent& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void Fail(const std::string& what) {
    if (failure_.empty()) {
      failure_ = what + " (now " + std::to_string(ref_now_) + " us, after " +
                 std::to_string(dispatched_) + " dispatches)";
    }
  }

  /// Fire time of the reference's earliest pending event, or kNone.
  int64_t RefNext() {
    while (!ref_.empty() &&
           state_[static_cast<size_t>(ref_.top().id)] != State::kPending) {
      ref_.pop();
    }
    return ref_.empty() ? kNone : ref_.top().at;
  }

  void CheckNextEventTime(const char* where) {
    const int64_t want = RefNext();
    const Timestamp got = loop_.NextEventTime();
    const bool ok = want == kNone ? got == Timestamp::PlusInfinity()
                                  : got == Timestamp::Micros(want);
    if (!ok) Fail(std::string("NextEventTime mismatch ") + where);
  }

  /// Mix of horizons: µs ties, the L0 window, L1, beyond the L1 horizon, and
  /// times within 2 µs of a window edge (multiples of 2^11, 2^12 or 2^24 µs).
  int64_t RandomDelayUs() {
    const int64_t pick = rng_.UniformInt(0, 99);
    if (pick < 20) return rng_.UniformInt(0, 3);
    if (pick < 50) return rng_.UniformInt(1, 9'000);
    if (pick < 72) return rng_.UniformInt(9'000, 2'000'000);
    if (pick < 87) return rng_.UniformInt(2'000'000, 17'000'000);
    if (pick < 92) return rng_.UniformInt(16'000'000, 45'000'000);
    constexpr int kEdgeShifts[] = {11, 12, 24};
    const int64_t span = int64_t{1}
                         << kEdgeShifts[rng_.UniformInt(0, 2)];
    const int64_t edge = (ref_now_ / span + rng_.UniformInt(1, 2)) * span;
    return edge + rng_.UniformInt(-2, 2) - ref_now_;
  }

  void ScheduleRandom() {
    int64_t delay = RandomDelayUs();
    if (rng_.UniformInt(0, 49) == 0) delay = -rng_.UniformInt(1, 1000);
    const int id = static_cast<int>(state_.size());
    const int64_t at = ref_now_ + (delay > 0 ? delay : 0);
    state_.push_back(State::kPending);
    ref_.push(RefEvent{at, next_seq_++, id});
    handles_.push_back(
        loop_.Schedule(TimeDelta::Micros(delay), [this, id] { OnFire(id); }));
  }

  void CancelRandom() {
    if (handles_.empty()) return;
    // Any handle ever issued: live ones die, fired or cancelled ones are
    // stale and must be no-ops.
    const size_t id = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(handles_.size()) - 1));
    loop_.Cancel(handles_[id]);
    state_[id] = State::kDone;
  }

  void RandomAction(bool in_callback) {
    const int64_t pick = rng_.UniformInt(0, 9);
    if (pick < 6) {
      ScheduleRandom();
    } else if (pick < 8) {
      CancelRandom();
    } else if (pick < 9) {
      CheckNextEventTime(in_callback ? "in callback" : "between runs");
    } else if (in_callback) {
      TryStep();
    }
  }

  void TryStep() {
    const int64_t t = ref_now_ + rng_.UniformInt(0, 6'000);
    const int64_t next = RefNext();
    if (!loop_.TryAdvanceTo(Timestamp::Micros(t))) {
      ++refusals_;
      if (next == kNone && t <= bound_us_) Fail("refused with nothing pending");
      return;
    }
    ++grants_;
    if (t > bound_us_) Fail("granted a step past the RunUntil bound");
    if (next != kNone && next <= t) {
      Fail("granted a step to " + std::to_string(t) +
           " over an event at " + std::to_string(next));
    }
    ref_now_ = t;
    if (loop_.now().us() != t) Fail("now() after a granted step");
  }

  void OnFire(int id) {
    if (!failure_.empty()) return;
    const int64_t next = RefNext();
    if (next == kNone || ref_.top().id != id) {
      Fail("dispatched event " + std::to_string(id) + ", reference expected " +
           (next == kNone ? std::string("none")
                          : std::to_string(ref_.top().id)));
      return;
    }
    if (loop_.now().us() != next) Fail("dispatched at the wrong time");
    ref_.pop();
    state_[static_cast<size_t>(id)] = State::kDone;
    ref_now_ = next;
    ++dispatched_;
    // Grow the pending population to ~400 events and hold it there.
    const size_t live = loop_.pending();
    int64_t actions = rng_.UniformInt(0, 4);
    if (live < 32) actions = 4;
    if (live > 400) actions = 0;
    for (int64_t i = 0; i < actions; ++i) RandomAction(/*in_callback=*/true);
  }

  EventLoop loop_;
  Rng rng_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, Later> ref_;
  std::vector<State> state_;
  std::vector<EventHandle> handles_;
  uint64_t next_seq_ = 0;
  int64_t ref_now_ = 0;
  int64_t bound_us_ = kNone;
  int64_t dispatched_ = 0;
  int64_t grants_ = 0;
  int64_t refusals_ = 0;
  std::string failure_;
};

TEST(EventLoopDifferentialTest, MatchesReferenceSchedulerAcrossTiers) {
  int64_t dispatched = 0;
  int64_t grants = 0;
  int64_t refusals = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SchedulerDiff diff(seed);
    // 60 s crosses the 2^24 µs (~16.8 s) L1 horizon three times.
    diff.Run(Timestamp::Seconds(60));
    ASSERT_EQ(diff.failure(), "") << "seed " << seed;
    EXPECT_EQ(diff.events_executed(),
              static_cast<uint64_t>(diff.dispatched() + diff.grants()));
    dispatched += diff.dispatched();
    grants += diff.grants();
    refusals += diff.refusals();
  }
  // The workload must actually exercise dispatch and both step outcomes.
  EXPECT_GT(dispatched, 20'000);
  EXPECT_GT(grants, 100);
  EXPECT_GT(refusals, 100);
}

}  // namespace
}  // namespace rave
