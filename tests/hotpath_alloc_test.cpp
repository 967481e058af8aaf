// Allocation-regression gate for the zero-allocation hot path.
//
// Two properties are enforced (when the RAVE_ALLOC_PROBE build option is on;
// the tests skip otherwise):
//   1. The event loop's schedule/cancel/fire cycle performs ZERO allocations
//      in steady state (after Reserve / first-use warm-up).
//   2. A full default session stays under a hard allocations-per-simulated-
//      second budget, measured as the delta between a long and a short run
//      (construction and warm-up costs cancel out).
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>

#include "obs/trace.h"
#include "rtc/session.h"
#include "sim/event_loop.h"
#include "util/alloc_probe.h"
#include "util/time.h"

namespace rave {
namespace {

TEST(HotpathAllocTest, EventLoopCycleIsAllocationFreeInSteadyState) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "built without RAVE_ALLOC_PROBE";
  }
  EventLoop loop;
  loop.Reserve(512);
  int fired = 0;
  // Warm-up: exercise the same mix (schedule at mixed delays, cancel half,
  // fire the rest) once so every lazily-grown structure reaches steady state.
  auto cycle = [&loop, &fired] {
    for (int i = 0; i < 400; ++i) {
      EventHandle h = loop.Schedule(TimeDelta::Micros(100 + 17 * (i % 13)),
                                    [&fired] { ++fired; });
      if (i % 2 == 0) loop.Cancel(h);
    }
    loop.RunFor(TimeDelta::Millis(1));
  };
  cycle();

  AllocScope scope;
  cycle();
  EXPECT_EQ(scope.allocs(), 0u)
      << "event-loop schedule/cancel/fire made heap allocations in steady "
         "state";
  EXPECT_EQ(scope.frees(), 0u);
  EXPECT_GT(fired, 0);
}

TEST(HotpathAllocTest, RepeatingTaskIsAllocationFreeInSteadyState) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "built without RAVE_ALLOC_PROBE";
  }
  EventLoop loop;
  loop.Reserve(64);
  int ticks = 0;
  RepeatingTask task(loop, TimeDelta::Millis(10), [&ticks] { ++ticks; });
  task.Start();
  loop.RunFor(TimeDelta::Millis(100));  // warm-up
  AllocScope scope;
  loop.RunFor(TimeDelta::Seconds(1));
  EXPECT_EQ(scope.allocs(), 0u);
  EXPECT_GE(ticks, 100);
}

// Hard per-simulated-second allocation budget for a default adaptive session
// (steady state, measured long-minus-short so setup costs cancel). The
// steady-state cost is dominated by the periodic feedback path (one report
// vector per 50 ms interval plus the estimator's per-report scratch); the
// per-event and per-packet paths contribute zero. Measured ~220/s on the
// reference build (the test prints the current value); the bound leaves ~2x
// headroom for library variance while still catching any per-packet or
// per-event regression (which would show up as thousands per second).
constexpr uint64_t kMaxAllocsPerSimSecond = 300;

uint64_t SessionAllocs(TimeDelta duration) {
  rtc::SessionConfig config;
  config.duration = duration;
  AllocScope scope;
  rtc::RunSession(config);
  return scope.allocs();
}

TEST(HotpathAllocTest, SessionSteadyStateStaysUnderAllocBudget) {
  if (!AllocProbeEnabled()) {
    GTEST_SKIP() << "built without RAVE_ALLOC_PROBE";
  }
  // The budget must hold with tracing idle: macros compiled in (unless this
  // is a RAVE_TRACING=OFF build) but no recorder installed — the production
  // configuration of every bench and test. Sessions install their metrics
  // registry themselves; its per-frame lookups are part of the budget.
  ASSERT_EQ(obs::CurrentTrace(), nullptr);
  const uint64_t short_run = SessionAllocs(TimeDelta::Seconds(5));
  const uint64_t long_run = SessionAllocs(TimeDelta::Seconds(10));
  ASSERT_GE(long_run, short_run);
  const uint64_t steady_per_second = (long_run - short_run) / 5;
  std::cout << "steady-state session allocations: " << steady_per_second
            << "/sim-second (budget " << kMaxAllocsPerSimSecond << ")\n";
  EXPECT_LE(steady_per_second, kMaxAllocsPerSimSecond)
      << "steady-state session allocations regressed: " << steady_per_second
      << "/sim-second (short run " << short_run << ", long run " << long_run
      << ")";
}

}  // namespace
}  // namespace rave
