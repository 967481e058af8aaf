// Parallel execution of independent Session runs.
//
// Every experiment in the evaluation is an embarrassingly-parallel matrix of
// Sessions (traces x content classes x schemes x seeds); each Session owns
// its EventLoop and every Rng it uses, so runs share no mutable state and
// their results are independent of scheduling. `ParallelRunner` exploits
// that: a fixed-size pool of worker threads drains a job queue, and
// `RunSessions` returns results in submission order — bit-identical to
// running the same configs serially, at any job count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rtc/session.h"

namespace rave::runner {

class ResultCache;

/// Number of jobs used when a caller passes `jobs <= 0`: the hardware
/// concurrency, or 1 if the runtime cannot report it.
int DefaultJobs();

/// Deterministic cost heuristic for one session, in arbitrary units
/// (roughly "simulated frames, weighted by extra machinery"). Depends only
/// on the config, so the schedule — and therefore the run — is reproducible.
double EstimatedSessionCost(const rtc::SessionConfig& config);

/// Posting order for a config matrix: indices sorted longest-expected-first
/// (stable, so equal-cost jobs keep submission order). Running stragglers
/// first minimizes the tail where one long job runs alone at the end.
std::vector<size_t> ScheduleOrder(
    const std::vector<rtc::SessionConfig>& configs);

/// Fixed-size thread pool over a job queue. Workers start in the
/// constructor and join in the destructor; `Post` enqueues arbitrary work
/// and `WaitIdle` blocks until every posted job has finished.
///
/// With `jobs == 1` no threads are spawned and jobs run inline on the
/// calling thread at `Post` time — the serial path stays allocation- and
/// synchronization-free, and `--jobs=1` means exactly "the old behaviour".
class ParallelRunner {
 public:
  /// `jobs <= 0` selects DefaultJobs().
  explicit ParallelRunner(int jobs = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  int jobs() const { return jobs_; }

  /// Enqueues a job. Jobs must not throw; a job that does terminates.
  void Post(std::function<void()> job);

  /// Blocks until the queue is empty and no worker is mid-job.
  void WaitIdle();

  /// Runs every config and returns the results in submission order
  /// (bit-identical at any job count; jobs are *posted* longest-first but
  /// each result lands in its submission-order slot). With a cache, each
  /// session is looked up by content key first and only computed on a miss,
  /// and the returned pointers share the cache's entries instead of copying
  /// them.
  std::vector<rtc::SharedSessionResult> RunSessions(
      const std::vector<rtc::SessionConfig>& configs,
      ResultCache* cache = nullptr);

 private:
  void WorkerLoop();

  const int jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Convenience: pool-per-call form of ParallelRunner::RunSessions.
std::vector<rtc::SharedSessionResult> RunSessions(
    const std::vector<rtc::SessionConfig>& configs, int jobs = 0,
    ResultCache* cache = nullptr);

}  // namespace rave::runner
