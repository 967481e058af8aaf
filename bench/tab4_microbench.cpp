// Table 4: controller overhead microbenchmarks (google-benchmark) plus
// simulator throughput. The paper's premise is that per-frame adaptation is
// cheap enough to run in the encode path; these benchmarks measure the
// per-frame decision cost of each rate control, the R-D model, the
// estimator's per-feedback cost, and the event-loop schedule/cancel path.
//
// After the microbenchmarks a throughput section measures end-to-end
// simulation speed — wall clock, sessions/sec and events/sec, serial vs
// parallel (`--jobs`) — cross-checks that the parallel results are
// bit-identical to the serial ones, and records the numbers in
// BENCH_runner.json so future PRs have a perf trajectory to compare
// against.
//
// A hot-path section then measures the event loop's schedule/cancel/fire
// throughput with manual timing and — when the build carries the
// RAVE_ALLOC_PROBE option — the steady-state allocation counts per
// event-loop cycle and per encoded frame, recorded in BENCH_hotpath.json.
//
// Flags: --jobs=N (parallel worker count, default 0 = hardware concurrency),
//        --runner-sessions=N (matrix size >= 1, default 64),
//        --runner-duration=S (simulated seconds per session, > 0, default
//        30),
//        --json=PATH (default BENCH_runner.json; "-" disables),
//        --hotpath-json=PATH (default BENCH_hotpath.json; "-" disables),
//        --smoke (skip the google-benchmark loop, shrink the matrix),
//        plus any --benchmark_* flag google-benchmark accepts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cc/gcc.h"
#include "codec/abr_rate_control.h"
#include "codec/cbr_rate_control.h"
#include "codec/encoder.h"
#include "common.h"
#include "core/adaptive_rate_control.h"
#include "obs/metrics_registry.h"
#include "obs/stage_timer.h"
#include "rtc/session.h"
#include "runner/parallel_runner.h"
#include "sim/event_loop.h"
#include "util/alloc_probe.h"
#include "util/flags.h"
#include "util/table.h"
#include "video/video_source.h"

namespace rave {
namespace {

video::RawFrame MakeFrame() {
  video::RawFrame f;
  f.spatial_complexity = 1.0;
  f.temporal_complexity = 0.5;
  return f;
}

void BM_RdModelActualBits(benchmark::State& state) {
  codec::RdModel model({}, Rng(1));
  const video::RawFrame frame = MakeFrame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ActualBits(codec::FrameType::kDelta, frame, 5.0));
  }
}
BENCHMARK(BM_RdModelActualBits);

template <typename Rc>
std::unique_ptr<codec::RateControl> MakeRc();

template <>
std::unique_ptr<codec::RateControl> MakeRc<codec::AbrRateControl>() {
  return std::make_unique<codec::AbrRateControl>(codec::AbrConfig{});
}
template <>
std::unique_ptr<codec::RateControl> MakeRc<codec::CbrRateControl>() {
  return std::make_unique<codec::CbrRateControl>(codec::CbrConfig{});
}
template <>
std::unique_ptr<codec::RateControl> MakeRc<core::AdaptiveRateControl>() {
  return std::make_unique<core::AdaptiveRateControl>(core::AdaptiveConfig{});
}

template <typename Rc>
void BM_PerFrameDecision(benchmark::State& state) {
  auto rc = MakeRc<Rc>();
  const video::RawFrame frame = MakeFrame();
  Timestamp now = Timestamp::Zero();
  codec::FrameOutcome outcome;
  outcome.type = codec::FrameType::kDelta;
  outcome.qp = 28.0;
  outcome.qscale = codec::QpToQscale(28.0);
  outcome.size = DataSize::Bits(50'000);
  outcome.complexity_term = 1280.0 * 720.0 * 0.5;
  for (auto _ : state) {
    now += TimeDelta::Millis(33);
    const codec::FrameGuidance g =
        rc->PlanFrame(frame, codec::FrameType::kDelta, now);
    benchmark::DoNotOptimize(g);
    rc->OnFrameEncoded(outcome, now);
  }
}
BENCHMARK(BM_PerFrameDecision<codec::AbrRateControl>)
    ->Name("BM_PerFrameDecision/x264-abr");
BENCHMARK(BM_PerFrameDecision<codec::CbrRateControl>)
    ->Name("BM_PerFrameDecision/x264-cbr");
BENCHMARK(BM_PerFrameDecision<core::AdaptiveRateControl>)
    ->Name("BM_PerFrameDecision/rave-adaptive");

void BM_AdaptiveNetworkUpdate(benchmark::State& state) {
  core::AdaptiveRateControl rc(core::AdaptiveConfig{});
  core::NetworkObservation obs;
  obs.target = DataRate::KilobitsPerSec(1200);
  obs.acked_rate = DataRate::KilobitsPerSec(1100);
  obs.rtt = TimeDelta::Millis(50);
  obs.pacer_queue = DataSize::Bits(40'000);
  obs.in_flight = DataSize::Bits(80'000);
  for (auto _ : state) {
    obs.at += TimeDelta::Millis(50);
    rc.OnNetworkUpdate(obs);
    benchmark::DoNotOptimize(rc.network_state());
  }
}
BENCHMARK(BM_AdaptiveNetworkUpdate);

void BM_GccPerFeedback(benchmark::State& state) {
  cc::GccEstimator gcc;
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  for (auto _ : state) {
    std::vector<transport::PacketResult> results;
    results.reserve(8);
    for (int i = 0; i < 8; ++i) {
      transport::PacketResult r;
      r.seq = seq++;
      r.size = DataSize::Bits(9'600);
      r.send_time = now + TimeDelta::Millis(6 * i);
      r.arrival = r.send_time + TimeDelta::Millis(30);
      results.push_back(r);
    }
    now += TimeDelta::Millis(50);
    gcc.OnPacketResults(results, now);
    benchmark::DoNotOptimize(gcc.target());
  }
}
BENCHMARK(BM_GccPerFeedback);

void BM_FullEncodeLoop(benchmark::State& state) {
  codec::EncoderConfig config;
  codec::Encoder encoder(
      config, std::make_unique<core::AdaptiveRateControl>(
                  core::AdaptiveConfig{}));
  video::VideoSource source({});
  Timestamp now = Timestamp::Zero();
  for (auto _ : state) {
    now += TimeDelta::Millis(33);
    benchmark::DoNotOptimize(
        encoder.EncodeFrame(source.CaptureFrame(now), now));
  }
}
BENCHMARK(BM_FullEncodeLoop);

// Event-loop hot paths: schedule/run churn (the per-packet pattern) and the
// cancel-heavy pattern (retransmission timers armed and disarmed without
// ever firing). Before the O(1) tombstone lookup the second benchmark was
// quadratic in the pending-event count.
void BM_EventLoopScheduleRun(benchmark::State& state) {
  const int64_t batch = state.range(0);
  EventLoop loop;
  loop.Reserve(static_cast<size_t>(batch));
  int64_t sink = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      loop.Schedule(TimeDelta::Micros(i % 97), [&sink] { ++sink; });
    }
    loop.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(256)->Arg(4096);

void BM_EventLoopScheduleCancel(benchmark::State& state) {
  const int64_t batch = state.range(0);
  EventLoop loop;
  loop.Reserve(static_cast<size_t>(batch));
  std::vector<EventHandle> handles;
  handles.reserve(static_cast<size_t>(batch));
  int64_t sink = 0;
  for (auto _ : state) {
    handles.clear();
    for (int64_t i = 0; i < batch; ++i) {
      handles.push_back(
          loop.Schedule(TimeDelta::Micros(100 + i % 97), [&sink] { ++sink; }));
    }
    // Cancel every other event, then drain: half run, half are tombstones
    // the pop path must skip.
    for (size_t i = 0; i < handles.size(); i += 2) loop.Cancel(handles[i]);
    loop.RunAll();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventLoopScheduleCancel)->Arg(256)->Arg(4096);

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- hot-path section -------------------------------------------------

struct HotpathStats {
  double schedule_run_events_per_s = 0;
  double schedule_cancel_events_per_s = 0;
  double allocs_per_event = 0;
  double allocs_per_frame = 0;
  bool alloc_probe = false;
};

/// Manual (non-google-benchmark) timing of the event-loop hot paths plus the
/// steady-state allocation rates the zero-allocation design promises. The
/// allocation figures use a long-minus-short delta so construction and
/// warm-up costs cancel; they read 0 when the build lacks RAVE_ALLOC_PROBE.
HotpathStats MeasureHotpath(bool smoke) {
  HotpathStats stats;
  stats.alloc_probe = AllocProbeEnabled();
  const int64_t batch = 4096;
  const int rounds = smoke ? 50 : 500;

  {
    EventLoop loop;
    loop.Reserve(static_cast<size_t>(batch));
    int64_t sink = 0;
    auto cycle = [&] {
      for (int64_t i = 0; i < batch; ++i) {
        loop.Schedule(TimeDelta::Micros(i % 97), [&sink] { ++sink; });
      }
      loop.RunAll();
    };
    cycle();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    AllocScope scope;
    for (int r = 0; r < rounds; ++r) cycle();
    const double events = static_cast<double>(rounds) * batch;
    stats.schedule_run_events_per_s = events / WallSeconds(start);
    stats.allocs_per_event = static_cast<double>(scope.allocs()) / events;
  }
  {
    EventLoop loop;
    loop.Reserve(static_cast<size_t>(batch));
    std::vector<EventHandle> handles;
    handles.reserve(static_cast<size_t>(batch));
    int64_t sink = 0;
    auto cycle = [&] {
      handles.clear();
      for (int64_t i = 0; i < batch; ++i) {
        handles.push_back(loop.Schedule(TimeDelta::Micros(100 + i % 97),
                                        [&sink] { ++sink; }));
      }
      for (size_t i = 0; i < handles.size(); i += 2) loop.Cancel(handles[i]);
      loop.RunAll();
    };
    cycle();  // warm-up
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) cycle();
    stats.schedule_cancel_events_per_s =
        static_cast<double>(rounds) * batch / WallSeconds(start);
  }
  if (stats.alloc_probe) {
    auto session_allocs = [](double seconds) {
      rtc::SessionConfig config;
      config.duration = TimeDelta::SecondsF(seconds);
      AllocScope scope;
      const rtc::SessionResult result = rtc::RunSession(config);
      return std::pair<uint64_t, size_t>(scope.allocs(), result.frames.size());
    };
    const auto [short_allocs, short_frames] =
        session_allocs(smoke ? 3.0 : 5.0);
    const auto [long_allocs, long_frames] = session_allocs(smoke ? 6.0 : 10.0);
    if (long_allocs > short_allocs && long_frames > short_frames) {
      stats.allocs_per_frame = static_cast<double>(long_allocs - short_allocs) /
                               static_cast<double>(long_frames - short_frames);
    }
  }
  return stats;
}

void RunHotpathSection(bool smoke, const std::string& json_path) {
  const HotpathStats stats = MeasureHotpath(smoke);

  std::cout << "\nEvent-loop hot path (manual timing, batch=4096"
            << (stats.alloc_probe ? ", alloc probe on" : ", alloc probe OFF")
            << ")\n\n";
  Table table({"metric", "value"});
  table.AddRow()
      .Cell("schedule+fire (M events/s)")
      .Cell(stats.schedule_run_events_per_s / 1e6, 2);
  table.AddRow()
      .Cell("schedule+cancel+fire (M events/s)")
      .Cell(stats.schedule_cancel_events_per_s / 1e6, 2);
  table.AddRow()
      .Cell("allocations/event, steady state")
      .Cell(stats.allocs_per_event, 4);
  table.AddRow()
      .Cell("allocations/frame, steady state")
      .Cell(stats.allocs_per_frame, 2);
  table.Print(std::cout);

  if (json_path != "-") {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"alloc_probe\": " << (stats.alloc_probe ? "true" : "false")
         << ",\n"
         << "  \"schedule_run_events_per_s\": "
         << stats.schedule_run_events_per_s << ",\n"
         << "  \"schedule_cancel_events_per_s\": "
         << stats.schedule_cancel_events_per_s << ",\n"
         << "  \"allocs_per_event\": " << stats.allocs_per_event << ",\n"
         << "  \"allocs_per_frame\": " << stats.allocs_per_frame << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
}

// --- throughput section -----------------------------------------------

/// Deterministic session matrix for the throughput measurement: cycles
/// schemes x severities x seeds so the mix resembles a real sweep.
std::vector<rtc::SessionConfig> ThroughputMatrix(int sessions,
                                                 TimeDelta duration) {
  const rtc::Scheme schemes[] = {rtc::Scheme::kX264Abr, rtc::Scheme::kAdaptive,
                                 rtc::Scheme::kSalsify};
  const double severities[] = {0.3, 0.5, 0.7};
  std::vector<rtc::SessionConfig> configs;
  configs.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    configs.push_back(bench::DefaultConfig(
        schemes[static_cast<size_t>(i) % std::size(schemes)],
        bench::DropTrace(severities[static_cast<size_t>(i) % std::size(severities)]),
        video::ContentClass::kTalkingHead, duration,
        /*seed=*/static_cast<uint64_t>(i) + 1));
  }
  return configs;
}

bool SameResults(const std::vector<rtc::SharedSessionResult>& a,
                 const std::vector<rtc::SharedSessionResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const rtc::SessionResult& x = *a[i];
    const rtc::SessionResult& y = *b[i];
    if (x.scheme_name != y.scheme_name ||
        x.frames.size() != y.frames.size() ||
        x.events_executed != y.events_executed ||
        x.summary.latency_mean_ms != y.summary.latency_mean_ms ||
        x.summary.encoded_ssim_mean != y.summary.encoded_ssim_mean ||
        x.link_stats.packets_delivered != y.link_stats.packets_delivered) {
      return false;
    }
  }
  return true;
}

// --- per-stage breakdown ----------------------------------------------

/// Wall-clock attribution of a jobs=1 run of `configs` to the hot-path
/// stages (obs/stage_timer.h): rate control, R-D math, trendline estimator,
/// and the transport split per hop (pacer, link, feedback+NACK, assembler);
/// the remainder is event-loop machinery and everything else. Runs as a
/// dedicated instrumented pass so the Scope overhead never pollutes the
/// speedup numbers.
struct StageBreakdown {
  double wall_s = 0;
  double control_s = 0;
  double rd_s = 0;
  double trendline_s = 0;
  double pacer_s = 0;
  double link_s = 0;
  double feedback_nack_s = 0;
  double assembler_s = 0;
  /// The former monolithic transport bucket, kept for trajectory continuity.
  double transport_s() const {
    return pacer_s + link_s + feedback_nack_s + assembler_s;
  }
  double other_s() const {
    return std::max(0.0,
                    wall_s - control_s - rd_s - trendline_s - transport_s());
  }
};

StageBreakdown MeasureStageBreakdown(
    const std::vector<rtc::SessionConfig>& configs) {
  obs::StageTimer::Enable(true);
  obs::StageTimer::Reset();
  const auto start = std::chrono::steady_clock::now();
  runner::RunSessions(configs, /*jobs=*/1);
  StageBreakdown b;
  b.wall_s = WallSeconds(start);
  b.control_s = obs::StageTimer::Seconds(obs::StageTimer::kControl);
  b.rd_s = obs::StageTimer::Seconds(obs::StageTimer::kRd);
  b.trendline_s = obs::StageTimer::Seconds(obs::StageTimer::kTrendline);
  b.pacer_s = obs::StageTimer::Seconds(obs::StageTimer::kPacer);
  b.link_s = obs::StageTimer::Seconds(obs::StageTimer::kLink);
  b.feedback_nack_s = obs::StageTimer::Seconds(obs::StageTimer::kFeedbackNack);
  b.assembler_s = obs::StageTimer::Seconds(obs::StageTimer::kAssembler);
  obs::StageTimer::Enable(false);
  return b;
}

void PrintBreakdownRow(Table& table, const char* stage, double stage_s,
                       double wall_s) {
  table.AddRow().Cell(stage).Cell(stage_s, 3).Cell(100.0 * stage_s / wall_s, 1);
}

int RunThroughputSection(int sessions, TimeDelta duration, int jobs,
                         const std::string& json_path) {
  const auto configs = ThroughputMatrix(sessions, duration);

  // Reset the process-wide runtime roll-up so the dispatched-event count
  // (and the train-amortization factor derived from it) covers exactly the
  // serial pass.
  obs::RuntimeStats::Instance().Reset();
  const auto serial_start = std::chrono::steady_clock::now();
  const auto serial = runner::RunSessions(configs, /*jobs=*/1);
  const double serial_s = WallSeconds(serial_start);
  const uint64_t dispatched =
      obs::RuntimeStats::Instance().total_events_dispatched();

  const int parallel_jobs = jobs > 0 ? jobs : runner::DefaultJobs();
  const auto parallel_start = std::chrono::steady_clock::now();
  const auto parallel = runner::RunSessions(configs, parallel_jobs);
  const double parallel_s = WallSeconds(parallel_start);

  // Instrumented pass (separate from the timed runs above): where does a
  // serial session's wall time go?
  const StageBreakdown stage_serial = MeasureStageBreakdown(configs);

  const uint64_t events = std::accumulate(
      serial.begin(), serial.end(), uint64_t{0},
      [](uint64_t sum, const rtc::SharedSessionResult& r) {
        return sum + r->events_executed;
      });

  const bool identical = SameResults(serial, parallel);
  const double serial_sps = sessions / serial_s;
  const double parallel_sps = sessions / parallel_s;

  std::cout << "\nSimulator throughput (" << sessions << " sessions x "
            << duration.seconds() << " s simulated, jobs=" << parallel_jobs
            << ")\n\n";
  Table table({"mode", "wall(s)", "sessions/s", "events/s", "speedup"});
  table.AddRow()
      .Cell("serial")
      .Cell(serial_s, 3)
      .Cell(serial_sps, 1)
      .Cell(static_cast<double>(events) / serial_s, 0)
      .Cell(1.0, 2);
  table.AddRow()
      .Cell("parallel")
      .Cell(parallel_s, 3)
      .Cell(parallel_sps, 1)
      .Cell(static_cast<double>(events) / parallel_s, 0)
      .Cell(serial_s / parallel_s, 2);
  table.Print(std::cout);
  std::cout << "parallel results bit-identical to serial: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";
  if (dispatched > 0) {
    std::cout << "event coalescing: " << events << " logical events in "
              << dispatched << " dispatches ("
              << static_cast<double>(events) / static_cast<double>(dispatched)
              << "x train amortization)\n";
  }

  // Per-stage attribution (instrumented pass; walls here include the Scope
  // overhead and are not comparable to the throughput rows above).
  std::cout << "\nPer-stage wall attribution (jobs=1, instrumented pass)\n\n";
  Table stage_table({"stage", "wall (s)", "%"});
  PrintBreakdownRow(stage_table, "rate control", stage_serial.control_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "R-D math", stage_serial.rd_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "trendline/GCC", stage_serial.trendline_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "pacer+send", stage_serial.pacer_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "link", stage_serial.link_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "feedback+nack", stage_serial.feedback_nack_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "assembler", stage_serial.assembler_s,
                    stage_serial.wall_s);
  PrintBreakdownRow(stage_table, "event loop + other", stage_serial.other_s(),
                    stage_serial.wall_s);
  stage_table.Print(std::cout);

  if (json_path != "-") {
    std::ofstream json(json_path);
    json << "{\n"
         << "  \"sessions\": " << sessions << ",\n"
         << "  \"session_duration_s\": " << duration.seconds() << ",\n"
         << "  \"jobs\": " << parallel_jobs << ",\n"
         << "  \"serial_wall_s\": " << serial_s << ",\n"
         << "  \"parallel_wall_s\": " << parallel_s << ",\n"
         << "  \"serial_sessions_per_s\": " << serial_sps << ",\n"
         << "  \"parallel_sessions_per_s\": " << parallel_sps << ",\n"
         << "  \"speedup\": " << serial_s / parallel_s << ",\n"
         << "  \"events_executed\": " << events << ",\n"
         << "  \"events_dispatched\": " << dispatched << ",\n"
         << "  \"train_amortization\": "
         << (dispatched > 0
                 ? static_cast<double>(events) / static_cast<double>(dispatched)
                 : 1.0)
         << ",\n"
         << "  \"serial_events_per_s\": "
         << static_cast<double>(events) / serial_s << ",\n"
         << "  \"parallel_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"stage_serial_wall_s\": " << stage_serial.wall_s << ",\n"
         << "  \"stage_serial_control_s\": " << stage_serial.control_s << ",\n"
         << "  \"stage_serial_rd_s\": " << stage_serial.rd_s << ",\n"
         << "  \"stage_serial_trendline_s\": " << stage_serial.trendline_s
         << ",\n"
         << "  \"stage_serial_pacer_s\": " << stage_serial.pacer_s << ",\n"
         << "  \"stage_serial_link_s\": " << stage_serial.link_s << ",\n"
         << "  \"stage_serial_feedback_nack_s\": "
         << stage_serial.feedback_nack_s << ",\n"
         << "  \"stage_serial_assembler_s\": " << stage_serial.assembler_s
         << ",\n"
         << "  \"stage_serial_transport_s\": " << stage_serial.transport_s()
         << ",\n"
         << "  \"stage_serial_other_s\": " << stage_serial.other_s()
         << "\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace rave

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes --benchmark_* flags
  try {
    const rave::Flags flags(argc - 1, argv + 1);
    for (const std::string& key :
         flags.UnknownKeys({"jobs", "runner-sessions", "runner-duration",
                            "json", "hotpath-json", "smoke"})) {
      std::cerr << "error: unknown flag --" << key
                << "\nsee the header of bench/tab4_microbench.cpp\n";
      return 2;
    }
    const bool smoke = flags.GetBool("smoke", false);
    // Bounded up front so a bad value fails before any table is printed.
    const int jobs = static_cast<int>(flags.GetInt("jobs", 0, 0, 1 << 16));
    const int sessions = static_cast<int>(
        flags.GetInt("runner-sessions", smoke ? 8 : 64, 1, 1 << 20));
    const double duration_s =
        flags.GetDouble("runner-duration", smoke ? 12.0 : 30.0);
    if (duration_s <= 0.0 || duration_s > 86400.0) {
      throw std::invalid_argument(
          "Flags: --runner-duration=" + flags.GetString("runner-duration", "") +
          " is out of range (0, 86400]");
    }
    const rave::TimeDelta duration = rave::TimeDelta::SecondsF(duration_s);
    const std::string json_path =
        flags.GetString("json", "BENCH_runner.json");
    const std::string hotpath_json_path =
        flags.GetString("hotpath-json", "BENCH_hotpath.json");

    if (!smoke) benchmark::RunSpecifiedBenchmarks();
    rave::RunHotpathSection(smoke, hotpath_json_path);
    return rave::RunThroughputSection(sessions, duration, jobs, json_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
