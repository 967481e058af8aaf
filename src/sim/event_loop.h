// Deterministic discrete-event simulation core.
//
// Every component in the RTC pipeline (pacer, link, feedback path, encoder
// cadence) schedules callbacks on a single `EventLoop`. Events with equal
// fire times execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes whole-session runs bit-for-bit
// reproducible.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/inline_function.h"
#include "util/time.h"

namespace rave {

/// Handle used to cancel a scheduled event. Default-constructed handles are
/// inert. The 64-bit id encodes (sequence number << 24 | slot index) into
/// the loop's slot table; the sequence number is globally unique, so it acts
/// as the slot's generation stamp — a stale handle (its event already ran or
/// was cancelled, and the slot was reused) can never cancel a newer event.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class EventLoop;
  explicit EventHandle(uint64_t id) : id_(id) {}
  uint64_t id_ = 0;
};

/// Single-threaded discrete-event loop with µs resolution.
///
/// Allocation-free in steady state: callbacks live in fixed inline storage
/// (`Callback`, an InlineFunction — oversized captures fail to compile) inside
/// a reusable slot table, and liveness is an id stamp on the slot — Schedule,
/// Cancel and the cancelled-event check on pop are two array reads with no
/// hashing and no heap traffic.
///
/// The pending set is a two-level timing wheel: a 4096 µs window of per-µs
/// FIFO buckets (L0), a 4096-bucket outer wheel of 4096 µs blocks covering
/// ~16.8 s (L1), and a 4-ary min-heap of 16-byte plain structs as overflow
/// beyond that. Both intrusive bucket lists thread through the slot table.
/// Every cadence in a session — pacer gaps, link serializations, frame
/// ticks, feedback intervals, RTX timers — lands inside the L1 horizon, so
/// the per-event cost is O(1) appends and a two-word bitmap lookup (see
/// Occupancy) with no comparisons; only rare long timers (fault edges,
/// session end) touch the heap. The levels form a strict time hierarchy —
/// every L0 event precedes every L1 event precedes every heap event —
/// maintained by three invariants that also make the pop order exactly
/// (fire time, scheduling order):
///   * a window (L0 or L1) only advances when it is completely empty, so the
///     circular index mapping never mixes entries from different windows;
///   * L0 advances to the L1 block holding the next event and migrates that
///     one block, whose span equals the L0 window exactly;
///   * L1 advances to the heap-minimum's block and drains the heap in
///     (at, seq) order, so per-bucket FIFO order remains scheduling order
///     (later direct inserts carry later seqs and append behind).
/// Cancelled events destroy their callback immediately and leave a tombstone
/// in their bucket or the heap, reclaimed when it surfaces.
///
/// Capacity limits (asserted in debug builds): at most 2^24 - 1 events
/// pending at once, at most 2^40 events scheduled over the loop's lifetime.
class EventLoop {
 public:
  /// Inline storage budget for event closures. Sized for the largest hot
  /// closure in the pipeline — `this` plus a 72-byte net::Packet captured by
  /// value in the link delivery path (80 bytes) — with one word of headroom.
  /// Anything bigger must capture by pointer/reference or shrink.
  static constexpr size_t kCallbackCapacity = 88;
  using Callback = InlineFunction<void(), kCallbackCapacity>;

  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulation time. Starts at Timestamp::Zero().
  Timestamp now() const { return now_; }

  /// Pre-allocates capacity for `events` concurrently pending events in
  /// every internal structure: the event heap AND the liveness slot table
  /// (slots + free list). After Reserve(n), a loop whose pending population
  /// never exceeds n performs no allocations — Schedule/Cancel/pop are
  /// guaranteed heap-traffic-free.
  void Reserve(size_t events);

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero
  /// (the event still runs strictly after the current callback returns).
  EventHandle Schedule(TimeDelta delay, Callback fn);

  /// Schedules `fn` at an absolute time; times in the past clamp to `now()`.
  EventHandle ScheduleAt(Timestamp at, Callback fn);

  /// Cancels a pending event. No-op if the event already ran or the handle is
  /// inert or stale.
  void Cancel(EventHandle handle);

  /// Runs until the queue drains or simulation time reaches `until`
  /// (inclusive: events at exactly `until` run).
  void RunUntil(Timestamp until);

  /// Runs for `duration` from the current time.
  void RunFor(TimeDelta duration) { RunUntil(now_ + duration); }

  /// Runs until the queue is fully drained. Intended for tests; production
  /// sessions always bound the run time.
  void RunAll();

  /// Fire time of the earliest pending event, or PlusInfinity when the queue
  /// is empty. Pops any cancelled tombstones encountered at the front (slot
  /// reclamation order is unobservable, so peeking never changes results).
  Timestamp NextEventTime();

  /// Event-coalescing primitive: lets the currently executing callback step
  /// simulation time forward to `t` and keep processing work that a
  /// per-packet scheduler would have handled in its own event. The step is
  /// granted only when it is provably unobservable:
  ///   * coalescing is enabled (the RAVE_NO_COALESCE A/B knob),
  ///   * `t` does not pass the enclosing RunUntil bound (inclusive, matching
  ///     RunUntil's own event admission), and
  ///   * `t` is strictly earlier than every pending event — any discontinuity
  ///     that could observe or alter the train (capacity step, fault edge,
  ///     handover, periodic tick, feedback arrival) is itself a scheduled
  ///     event, so the train automatically splits there.
  /// On success now() advances to `t` and the step is counted in
  /// events_executed() (the caller is doing the work of the event it would
  /// otherwise have armed, keeping the logical event count — which feeds
  /// cached SessionResults — identical with coalescing on or off). On
  /// failure the caller must schedule a continuation at `t` and return.
  bool TryAdvanceTo(Timestamp t);

  /// A/B knob for TryAdvanceTo (default: on unless RAVE_NO_COALESCE is set
  /// in the environment at construction). Disabling never changes results —
  /// callers fall back to scheduling the continuation events a per-packet
  /// scheduler would have armed at the same program points.
  void set_coalescing(bool on) { coalescing_ = on; }
  bool coalescing() const { return coalescing_; }

  /// Number of logical events executed so far: dispatched callbacks plus
  /// granted TryAdvanceTo steps. Identical with coalescing on or off (it is
  /// part of SessionResult and must stay cache-key-stable across modes).
  uint64_t events_executed() const { return events_executed_; }
  /// Number of callbacks actually dispatched through the scheduler — the
  /// count coalescing shrinks. Host-side diagnostics only; never feeds
  /// deterministic results.
  uint64_t events_dispatched() const { return events_dispatched_; }
  /// Number of events currently pending.
  size_t pending() const { return live_count_; }

 private:
  /// Overflow-heap entry: trivially copyable, 16 bytes — four children share
  /// one cache line, so the pop-path sift-down stays cheap even for deep
  /// heaps. The callback lives in the slot table, not the heap. `id` packs
  /// the monotone sequence number into the high 40 bits and the slot index
  /// into the low 24, so comparing ids compares scheduling order directly.
  struct Event {
    Timestamp at;
    uint64_t id;
  };
  /// Strict total order: earlier fire time first, scheduling order breaking
  /// ties. Because the order is total, the pop sequence is identical for any
  /// heap arity — the 4-ary layout below is purely a cache optimization.
  static bool Earlier(const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  }
  /// Slot-table entry. `id` is the packed id of the current occupant, 0 when
  /// the slot is free or cancelled. Since the sequence half of the id is
  /// globally unique, an id mismatch identifies both stale handles and
  /// tombstones — no per-slot generation counter (or wrap concern) is
  /// needed. `next` threads the slot into its wheel bucket's FIFO list;
  /// `at` preserves the exact fire time while the event sits in an L1 bucket
  /// (whose index only resolves time to kWheelSpanUs).
  struct Slot {
    Callback fn;
    Timestamp at = Timestamp::Zero();
    uint64_t id = 0;
    uint32_t next = 0;
  };
  /// Wheel bucket: head/tail of the intrusive FIFO list of slots whose
  /// events fire in this µs.
  struct Bucket {
    uint32_t head = kNilSlot;
    uint32_t tail = kNilSlot;
  };
  /// Occupancy bitmap over one wheel level's 64 x 64 buckets, plus a summary
  /// word whose bit w is set iff word w is non-zero. Every bit flip keeps the
  /// summary in step, so First() is two countr_zero calls with no scan.
  struct Occupancy {
    std::array<uint64_t, 64> words{};
    uint64_t summary = 0;

    void Set(int64_t i) {
      const size_t w = static_cast<size_t>(i >> 6);
      words[w] |= 1ull << (i & 63);
      summary |= 1ull << w;
    }
    void Clear(int64_t i) {
      const size_t w = static_cast<size_t>(i >> 6);
      words[w] &= ~(1ull << (i & 63));
      if (words[w] == 0) summary &= ~(1ull << w);
    }
    /// Index of the lowest set bit, or -1 if none is set.
    int First() const {
      if (summary == 0) return -1;
      const int w = std::countr_zero(summary);
      return w * 64 + std::countr_zero(words[static_cast<size_t>(w)]);
    }
  };

  static constexpr uint64_t kSlotMask = 0xFFFFFFull;
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kNilSlot = 0xFFFFFFFFu;
  /// L0 window in µs (power of two; one bucket per µs). Sized so several
  /// packet-cadence events (~1 ms apart) share one window — a window advance
  /// (bucket migration) then amortizes over all of them instead of firing
  /// per event.
  static constexpr int kWheelShift = 12;
  static constexpr int64_t kWheelSpanUs = int64_t{1} << kWheelShift;
  static_assert(kWheelSpanUs <= 64 * 64, "one summary word covers L0");
  /// L1 bucket count; each bucket spans one L0 window, so the L1 horizon is
  /// kWheelSpanUs * kL1Buckets = 2^24 µs ≈ 16.8 s.
  static constexpr int64_t kL1Buckets = 4096;
  static constexpr int64_t kL1SpanUs = kWheelSpanUs * kL1Buckets;
  static_assert(kL1Buckets <= 64 * 64, "one summary word covers L1");

  bool PopAndRunNext(Timestamp until);
  /// Conservative pending-event probe for TryAdvanceTo: true when some
  /// pending event MAY fire at or before `t`. Exact for L0 and the heap;
  /// for L1 it tests the first occupied bucket's start (refusing a grant a
  /// little early is always safe — the caller arms a continuation at the
  /// same program point either way, deterministically).
  bool HasEventAtOrBefore(Timestamp t);
  /// Sift-up insertion into the 4-ary overflow heap.
  void HeapPush(const Event& e);
  /// Removes the overflow-heap top and returns it.
  Event PopTop();
  /// Appends `slot` to the L0 bucket at `offset` within the window.
  void BucketAppend(int64_t offset, uint32_t slot);
  /// Unlinks the head of the L0 bucket at `offset`, clearing its occupancy
  /// bit when the bucket empties.
  void BucketPopHead(int64_t offset);
  /// Appends `slot` to L1 bucket `bucket`.
  void L1Append(int64_t bucket, uint32_t slot);
  /// Jumps the L0 window onto L1 bucket `bucket` and distributes its FIFO
  /// list into per-µs L0 buckets (reclaiming tombstones). Only legal while
  /// L0 is empty; preserves per-µs scheduling order because the list is
  /// walked front to back.
  void MigrateL1Bucket(int64_t bucket);
  /// Jumps the L1 window to the block containing `horizon` (the overflow
  /// minimum) and drains every overflow event inside the new window into its
  /// L1 bucket, in (at, seq) order. Only legal while L0 and L1 are empty.
  void AdvanceL1(Timestamp horizon);

  Timestamp now_ = Timestamp::Zero();
  /// Default read from the environment once at construction (see
  /// set_coalescing); constructor lives in the .cpp to keep <cstdlib> out of
  /// this header.
  bool coalescing_;
  /// Bound of the innermost active RunUntil; TryAdvanceTo may not step past
  /// it. MinusInfinity outside any run, so stray steps are always refused.
  Timestamp run_bound_ = Timestamp::MinusInfinity();
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  uint64_t events_dispatched_ = 0;
  size_t live_count_ = 0;
  /// Start of the L0 window; always aligned to kWheelSpanUs and <= now_
  /// whenever control is outside PopAndRunNext.
  int64_t wheel_base_us_ = 0;
  /// One FIFO bucket per µs of the L0 window.
  std::array<Bucket, kWheelSpanUs> wheel_{};
  /// Which `wheel_` buckets are non-empty.
  Occupancy occupied_;
  /// Start of the L1 window; aligned to kL1SpanUs and <= now_ outside
  /// PopAndRunNext, so the circular bucket mapping
  /// (at >> kWheelShift) & (kL1Buckets - 1) is injective over the live
  /// window.
  int64_t l1_base_us_ = 0;
  /// One FIFO bucket per kWheelSpanUs block of the L1 window.
  std::array<Bucket, kL1Buckets> l1_wheel_{};
  /// Which `l1_wheel_` buckets are non-empty.
  Occupancy l1_occupied_;
  /// Implicit 4-ary min-heap on (at, seq) holding events beyond the window:
  /// root at 0, children of i at 4i+1..4i+4.
  std::vector<Event> heap_;
  /// Callback slots addressed by the low 24 handle bits, stamped with the
  /// occupant's id.
  std::vector<Slot> slots_;
  /// Released slot indices available for reuse (LIFO).
  std::vector<uint32_t> free_slots_;
};

/// Re-schedules a callback at a fixed period until stopped. The first firing
/// is one period after `Start()` (or at an explicit phase offset).
class RepeatingTask {
 public:
  /// Creates a task bound to `loop` firing every `period`, invoking `fn`.
  RepeatingTask(EventLoop& loop, TimeDelta period, EventLoop::Callback fn);
  ~RepeatingTask();

  RepeatingTask(const RepeatingTask&) = delete;
  RepeatingTask& operator=(const RepeatingTask&) = delete;

  /// Begins firing. `initial_delay` defaults to one period.
  void Start();
  void StartWithDelay(TimeDelta initial_delay);
  /// Stops future firings; safe to call from within the callback.
  void Stop();

  bool running() const { return running_; }

 private:
  void Fire();

  EventLoop& loop_;
  TimeDelta period_;
  EventLoop::Callback fn_;
  bool running_ = false;
  EventHandle pending_;
};

}  // namespace rave
