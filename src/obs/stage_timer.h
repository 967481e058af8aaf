// Opt-in per-stage wall-clock attribution for the session hot path.
//
// Disabled (the default), a Scope costs one branch on a static bool — the
// hot path stays allocation-free and the alloc/throughput gates are
// unaffected. Enabled (tab4's stage-breakdown pass), Scopes accumulate
// steady-clock nanoseconds per stage into process-wide atomics, so a
// serial run can attribute session wall time to the control law, the R-D
// model, the delay-gradient estimator, and the transport, with the
// remainder being event-loop machinery. Enable/Reset are not hot-path
// operations; benches toggle them around a dedicated measurement pass
// (instrumented passes are never used for speedup numbers).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace rave::obs {

class StageTimer {
 public:
  enum Stage {
    /// Rate-control plan + update.
    kControl = 0,
    /// R-D encode math: size (with re-encode retries), SSIM, PSNR.
    kRd,
    /// Congestion control: trendline/GCC feedback processing.
    kTrendline,
    // The former monolithic `transport` stage, split per hop so wins (and
    // regressions) are attributable. Scopes never nest — each tags a leaf
    // code path — so per-stage sums stay comparable against wall clock.
    /// Sender-side per-send bookkeeping: seq/history/RTX-cache/FEC close,
    /// plus the link enqueue it triggers.
    kPacer,
    /// Bottleneck serializer: completion drains (loss draw + delivery
    /// scheduling). Receiver-side handlers are attributed to their own
    /// stages, not here.
    kLink,
    /// Receiver feedback accounting + NACK gap scan, and the sender-side
    /// report join.
    kFeedbackNack,
    /// Frame reassembly + jitter-buffer playout decisions.
    kAssembler,
    kStageCount,
  };

  static void Enable(bool on) { enabled_ = on; }
  static bool enabled() { return enabled_; }
  static void Reset();
  /// Accumulated seconds for `stage` since the last Reset.
  static double Seconds(Stage stage);

  /// RAII accumulator; no-op unless the timer was enabled at construction.
  class Scope {
   public:
    explicit Scope(Stage stage) : stage_(stage), armed_(enabled_) {
      if (armed_) start_ = std::chrono::steady_clock::now();
    }
    ~Scope() {
      if (armed_) {
        const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
        ns_[stage_].fetch_add(ns, std::memory_order_relaxed);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Stage stage_;
    bool armed_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  static bool enabled_;
  static std::atomic<int64_t> ns_[kStageCount];
};

}  // namespace rave::obs
