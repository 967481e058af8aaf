// ParallelRunner correctness: results must be bit-identical to serial
// execution at any job count and must come back in submission order, even
// when there are more workers than jobs.
#include "runner/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common.h"
#include "runner/result_cache.h"

namespace rave {
namespace {

void ExpectSameSummary(const metrics::SessionSummary& a,
                       const metrics::SessionSummary& b) {
  EXPECT_EQ(a.frames_captured, b.frames_captured);
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.frames_skipped, b.frames_skipped);
  EXPECT_EQ(a.frames_dropped_sender, b.frames_dropped_sender);
  EXPECT_EQ(a.frames_lost_network, b.frames_lost_network);
  // Bit-identical, not approximately equal: each session's event loop and
  // RNGs are self-contained, so thread scheduling must not leak into the
  // arithmetic at all.
  EXPECT_EQ(a.latency_mean_ms, b.latency_mean_ms);
  EXPECT_EQ(a.latency_p50_ms, b.latency_p50_ms);
  EXPECT_EQ(a.latency_p95_ms, b.latency_p95_ms);
  EXPECT_EQ(a.latency_p99_ms, b.latency_p99_ms);
  EXPECT_EQ(a.latency_max_ms, b.latency_max_ms);
  EXPECT_EQ(a.render_latency_mean_ms, b.render_latency_mean_ms);
  EXPECT_EQ(a.ssim_mean, b.ssim_mean);
  EXPECT_EQ(a.psnr_mean_db, b.psnr_mean_db);
  EXPECT_EQ(a.encoded_ssim_mean, b.encoded_ssim_mean);
  EXPECT_EQ(a.displayed_ssim_mean, b.displayed_ssim_mean);
  EXPECT_EQ(a.encoded_bitrate_kbps, b.encoded_bitrate_kbps);
  EXPECT_EQ(a.total_reencodes, b.total_reencodes);
}

void ExpectSameFrames(const std::vector<metrics::FrameRecord>& a,
                      const std::vector<metrics::FrameRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].frame_id, b[i].frame_id);
    EXPECT_EQ(a[i].capture_time, b[i].capture_time);
    EXPECT_EQ(a[i].fate, b[i].fate);
    EXPECT_EQ(a[i].qp, b[i].qp);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].ssim, b[i].ssim);
    EXPECT_EQ(a[i].complete_time.has_value(), b[i].complete_time.has_value());
    if (a[i].complete_time && b[i].complete_time) {
      EXPECT_EQ(*a[i].complete_time, *b[i].complete_time);
    }
  }
}

void ExpectSameLinkStats(const net::LinkStats& a, const net::LinkStats& b) {
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
  EXPECT_EQ(a.packets_lost_random, b.packets_lost_random);
  EXPECT_EQ(a.bytes_delivered, b.bytes_delivered);
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped);
}

// The drop-trace suite x both headline schemes: jobs=8 must reproduce
// jobs=1 exactly (summaries, frame records, link stats, event counts).
TEST(ParallelRunnerTest, ParallelMatchesSerialOverDropSuite) {
  const TimeDelta duration = TimeDelta::Seconds(15);
  std::vector<rtc::SessionConfig> configs;
  for (const auto& [name, trace] : bench::TraceSuite(duration)) {
    for (rtc::Scheme scheme : rtc::kHeadlineSchemes) {
      configs.push_back(bench::DefaultConfig(
          scheme, trace, video::ContentClass::kTalkingHead, duration, 7));
    }
  }

  const auto serial = runner::RunSessions(configs, /*jobs=*/1);
  const auto parallel = runner::RunSessions(configs, /*jobs=*/8);

  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(serial[i]->scheme_name, parallel[i]->scheme_name);
    EXPECT_EQ(serial[i]->events_executed, parallel[i]->events_executed);
    ExpectSameSummary(serial[i]->summary, parallel[i]->summary);
    ASSERT_FALSE(serial[i]->frames.empty());
    ASSERT_FALSE(serial[i]->timeseries.empty());
    ExpectSameFrames(serial[i]->frames, parallel[i]->frames);
    ExpectSameLinkStats(serial[i]->link_stats, parallel[i]->link_stats);
    ASSERT_EQ(serial[i]->timeseries.size(), parallel[i]->timeseries.size());
  }
}

// More workers than jobs: results still land at the submission index.
TEST(ParallelRunnerTest, OrderingWhenJobsExceedSessions) {
  const TimeDelta duration = TimeDelta::Seconds(5);
  std::vector<rtc::SessionConfig> configs;
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    configs.push_back(bench::DefaultConfig(
        scheme, bench::DropTrace(0.5), video::ContentClass::kTalkingHead,
        duration, 1));
  }
  ASSERT_LT(configs.size(), 16u);

  const auto results = runner::RunSessions(configs, /*jobs=*/16);
  ASSERT_EQ(results.size(), configs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i]->scheme_name, rtc::ToString(configs[i].scheme));
  }
}

TEST(ParallelRunnerTest, EmptyMatrixReturnsEmpty) {
  EXPECT_TRUE(runner::RunSessions({}, 4).empty());
  EXPECT_TRUE(runner::RunSessions({}, 1).empty());
}

TEST(ParallelRunnerTest, PostAndWaitIdleRunEveryJob) {
  runner::ParallelRunner runner(4);
  EXPECT_EQ(runner.jobs(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    runner.Post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  runner.WaitIdle();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after WaitIdle.
  runner.Post([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  runner.WaitIdle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ParallelRunnerTest, SingleJobRunsInline) {
  runner::ParallelRunner runner(1);
  EXPECT_EQ(runner.jobs(), 1);
  int count = 0;  // no atomics needed: inline mode runs on this thread
  runner.Post([&count] { ++count; });
  EXPECT_EQ(count, 1);
  runner.WaitIdle();
}

TEST(ParallelRunnerTest, DefaultJobsIsPositive) {
  EXPECT_GE(runner::DefaultJobs(), 1);
}

// --- longest-job-first scheduling ---

TEST(ScheduleOrderTest, LongestExpectedJobsGoFirst) {
  std::vector<rtc::SessionConfig> configs;
  for (const int seconds : {5, 40, 10, 40, 20}) {
    configs.push_back(bench::DefaultConfig(
        rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
        video::ContentClass::kTalkingHead, TimeDelta::Seconds(seconds), 1));
  }
  const std::vector<size_t> order = runner::ScheduleOrder(configs);
  ASSERT_EQ(order.size(), configs.size());
  // Costs must be non-increasing along the schedule...
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(runner::EstimatedSessionCost(configs[order[i - 1]]),
              runner::EstimatedSessionCost(configs[order[i]]));
  }
  // ...equal costs keep submission order (stable sort), so the whole order
  // is deterministic: 40s (index 1), 40s (index 3), 20s, 10s, 5s.
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 4, 2, 0}));
}

TEST(ScheduleOrderTest, CostReflectsConfigWeight) {
  auto base = bench::DefaultConfig(
      rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
      video::ContentClass::kTalkingHead, TimeDelta::Seconds(20), 1);
  auto heavier = base;
  heavier.enable_fec = true;
  EXPECT_GT(runner::EstimatedSessionCost(heavier),
            runner::EstimatedSessionCost(base));
  auto longer = base;
  longer.duration = TimeDelta::Seconds(40);
  EXPECT_GT(runner::EstimatedSessionCost(longer),
            runner::EstimatedSessionCost(base));
}

// Straggler case: a single long session submitted *last* after many short
// ones. LJF reorders execution, but results must still land at their
// submission index and match a serial run bit for bit.
TEST(ParallelRunnerTest, StragglerSubmittedLastStaysInSubmissionOrder) {
  std::vector<rtc::SessionConfig> configs;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    configs.push_back(bench::DefaultConfig(
        rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
        video::ContentClass::kTalkingHead, TimeDelta::Seconds(4), seed));
  }
  configs.push_back(bench::DefaultConfig(
      rtc::Scheme::kX264Abr, bench::DropTrace(0.3),
      video::ContentClass::kGaming, TimeDelta::Seconds(30), 99));
  // The straggler must be scheduled first even though it was submitted last.
  EXPECT_EQ(runner::ScheduleOrder(configs).front(), configs.size() - 1);

  const auto serial = runner::RunSessions(configs, /*jobs=*/1);
  const auto parallel = runner::RunSessions(configs, /*jobs=*/8);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(serial[i]->scheme_name, rtc::ToString(configs[i].scheme));
    EXPECT_EQ(serial[i]->events_executed, parallel[i]->events_executed);
    ExpectSameSummary(serial[i]->summary, parallel[i]->summary);
  }
}

// --- cache-backed runs ---

TEST(ParallelRunnerTest, CacheBackedRunMatchesUncached) {
  std::vector<rtc::SessionConfig> configs;
  for (rtc::Scheme scheme : rtc::kHeadlineSchemes) {
    for (uint64_t seed : {1, 2}) {
      configs.push_back(bench::DefaultConfig(
          scheme, bench::DropTrace(0.5), video::ContentClass::kTalkingHead,
          TimeDelta::Seconds(5), seed));
    }
  }

  const auto uncached = runner::RunSessions(configs, /*jobs=*/2);
  runner::ResultCache cache;
  const auto cold = runner::RunSessions(configs, /*jobs=*/2, &cache);
  EXPECT_EQ(cache.stats().computes, configs.size());
  const auto warm = runner::RunSessions(configs, /*jobs=*/2, &cache);
  EXPECT_EQ(cache.stats().computes, configs.size());  // nothing recomputed
  EXPECT_EQ(cache.stats().memory_hits, configs.size());
  // A serial pass serves from the cache a parallel pass filled.
  const auto warm_serial = runner::RunSessions(configs, /*jobs=*/1, &cache);
  EXPECT_EQ(cache.stats().computes, configs.size());

  ASSERT_EQ(cold.size(), configs.size());
  ASSERT_EQ(warm.size(), configs.size());
  ASSERT_EQ(warm_serial.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    // Warm passes share the entries the cold pass cached.
    EXPECT_EQ(cold[i].get(), warm[i].get());
    EXPECT_EQ(cold[i].get(), warm_serial[i].get());
    EXPECT_EQ(uncached[i]->events_executed, cold[i]->events_executed);
    EXPECT_EQ(uncached[i]->events_executed, warm[i]->events_executed);
    ExpectSameSummary(uncached[i]->summary, cold[i]->summary);
    ExpectSameSummary(uncached[i]->summary, warm[i]->summary);
    ExpectSameSummary(uncached[i]->summary, warm_serial[i]->summary);
    ASSERT_FALSE(uncached[i]->frames.empty());
    ExpectSameFrames(uncached[i]->frames, warm[i]->frames);
    ExpectSameFrames(uncached[i]->frames, warm_serial[i]->frames);
    ExpectSameLinkStats(uncached[i]->link_stats, warm[i]->link_stats);
  }
}

TEST(ParallelRunnerTest, DuplicateConfigsComputeOncePerKeyWithCache) {
  const auto config = bench::DefaultConfig(
      rtc::Scheme::kAdaptive, bench::DropTrace(0.5),
      video::ContentClass::kTalkingHead, TimeDelta::Seconds(4), 7);
  const std::vector<rtc::SessionConfig> configs(6, config);

  runner::ResultCache cache;
  const auto results = runner::RunSessions(configs, /*jobs=*/4, &cache);
  ASSERT_EQ(results.size(), configs.size());
  EXPECT_EQ(cache.stats().computes, 1u);
  EXPECT_EQ(cache.stats().memory_hits, configs.size() - 1);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].get(), results[i].get());
  }
}

}  // namespace
}  // namespace rave
