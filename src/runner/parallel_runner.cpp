#include "runner/parallel_runner.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "runner/result_cache.h"
#include "runner/session_key.h"

namespace rave::runner {

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

double EstimatedSessionCost(const rtc::SessionConfig& config) {
  // Simulated event count scales with frames; the multipliers capture the
  // machinery that adds events per frame. Only relative order matters.
  double cost = config.duration.seconds() * config.source.fps;
  if (config.cross_traffic) cost *= 1.3;
  if (config.enable_fec) cost *= 1.2;
  if (!config.faults->empty()) cost *= 1.1;
  if (config.link.trace->steps().size() > 64) cost *= 1.1;
  return cost;
}

std::vector<size_t> ScheduleOrder(
    const std::vector<rtc::SessionConfig>& configs) {
  std::vector<double> costs(configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    costs[i] = EstimatedSessionCost(configs[i]);
  }
  std::vector<size_t> order(configs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](size_t a, size_t b) { return costs[a] > costs[b]; });
  return order;
}

ParallelRunner::ParallelRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : DefaultJobs()) {
  if (jobs_ == 1) return;  // inline mode
  workers_.reserve(static_cast<size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelRunner::Post(std::function<void()> job) {
  if (workers_.empty()) {
    job();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_available_.notify_one();
}

void ParallelRunner::WaitIdle() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ParallelRunner::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ with a drained queue
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    job();
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

std::vector<rtc::SharedSessionResult> ParallelRunner::RunSessions(
    const std::vector<rtc::SessionConfig>& configs, ResultCache* cache) {
  std::vector<rtc::SharedSessionResult> results(configs.size());
  // Longest-expected-job-first: sessions are self-contained, so posting
  // order affects only wall clock, never results — each job writes to its
  // submission-order slot.
  for (size_t i : ScheduleOrder(configs)) {
    Post([&configs, &results, cache, i] {
      if (cache != nullptr) {
        results[i] = cache->GetOrCompute(
            ComputeSessionKey(configs[i]),
            [&configs, i] { return rtc::RunSession(configs[i]); });
      } else {
        results[i] = std::make_shared<const rtc::SessionResult>(
            rtc::RunSession(configs[i]));
      }
    });
  }
  WaitIdle();
  return results;
}

std::vector<rtc::SharedSessionResult> RunSessions(
    const std::vector<rtc::SessionConfig>& configs, int jobs,
    ResultCache* cache) {
  ParallelRunner runner(jobs);
  return runner.RunSessions(configs, cache);
}

}  // namespace rave::runner
