// Replays a capacity trace file through one scheme — or all of them in
// parallel — and writes per-frame records plus the control-plane timeseries
// to CSV for external plotting.
//
//   ./examples/trace_replay <trace-file> [scheme|all] [content] [seconds]
//                           [out-prefix] [--jobs=N]
//
// Trace file format: "<time_s> <rate_kbps>" per line ('#' comments). Pass
// "-" (or nothing) for a built-in LTE-like random walk. With scheme "all"
// every scheme runs as one parallel matrix (--jobs workers, default
// hardware concurrency) and each writes <prefix>_<scheme>_*.csv; results
// are bit-identical to running the schemes one at a time.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "net/capacity_trace.h"
#include "runner/parallel_runner.h"
#include "rtc/session.h"
#include "util/csv.h"
#include "util/flags.h"

using namespace rave;

namespace {

rtc::Scheme ParseScheme(const std::string& name) {
  for (rtc::Scheme scheme : rtc::kAllSchemes) {
    if (ToString(scheme) == name) return scheme;
  }
  throw std::runtime_error("unknown scheme: " + name +
                           " (try x264-abr, x264-cbr, rave-adaptive, "
                           "rave-oracle, salsify, or all)");
}

video::ContentClass ParseContent(const std::string& name) {
  for (video::ContentClass c : video::kAllContentClasses) {
    if (ToString(c) == name) return c;
  }
  throw std::runtime_error("unknown content class: " + name);
}

void WriteCsvs(const rtc::SessionResult& result, const std::string& prefix) {
  const std::string frames_csv = prefix + "_frames.csv";
  CsvWriter frames(frames_csv,
                   {"frame_id", "capture_s", "fate", "type", "qp",
                    "size_bits", "ssim", "latency_ms"});
  for (const metrics::FrameRecord& f : result.frames) {
    frames.WriteRow(std::vector<std::string>{
        std::to_string(f.frame_id),
        std::to_string(f.capture_time.seconds()),
        std::to_string(static_cast<int>(f.fate)),
        f.type == codec::FrameType::kKey ? "K" : "P",
        std::to_string(f.qp), std::to_string(f.size.bits()),
        std::to_string(f.ssim),
        f.latency() ? std::to_string(f.latency()->ms_float()) : "",
    });
  }

  const std::string ts_csv = prefix + "_timeseries.csv";
  CsvWriter ts(ts_csv, {"t_s", "capacity_kbps", "bwe_kbps", "acked_kbps",
                        "pacer_queue_ms", "link_queue_ms", "loss", "qp",
                        "latency_ms"});
  for (const metrics::TimeseriesPoint& p : result.timeseries) {
    ts.WriteRow(std::vector<double>{
        p.at.seconds(), p.capacity_kbps, p.bwe_target_kbps, p.acked_kbps,
        p.pacer_queue_ms, p.link_queue_ms, p.loss_rate, p.last_qp,
        p.last_latency_ms});
  }

  const metrics::SessionSummary& s = result.summary;
  std::cout << "scheme: " << result.scheme_name << "\n"
            << "frames: " << s.frames_captured << " captured, "
            << s.frames_delivered << " delivered, " << s.frames_skipped
            << " skipped, " << s.frames_lost_network << " lost\n"
            << "latency: mean " << s.latency_mean_ms << " ms, p95 "
            << s.latency_p95_ms << " ms, p99 " << s.latency_p99_ms
            << " ms\n"
            << "quality: encoded ssim " << s.encoded_ssim_mean
            << ", displayed ssim " << s.displayed_ssim_mean << ", psnr "
            << s.psnr_mean_db << " dB\n"
            << "bitrate: " << s.encoded_bitrate_kbps << " kbps\n"
            << "wrote " << frames_csv << " and " << ts_csv << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags(argc - 1, argv + 1);
    for (const std::string& key : flags.UnknownKeys({"jobs"})) {
      std::cerr << "error: unknown flag --" << key
                << "\nusage: trace_replay <trace-file|-> [scheme|all] "
                   "[content] [seconds] [prefix] [--jobs=N]\n";
      return 2;
    }
    const auto& args = flags.positional();

    rtc::SessionConfig base;
    base.duration = TimeDelta::Seconds(60);
    std::string prefix = "trace_replay";

    if (!args.empty() && args[0] != "-") {
      base.link.trace = net::CapacityTrace::FromFile(args[0]);
    } else {
      base.link.trace = net::CapacityTrace::RandomWalk(
          DataRate::KilobitsPerSec(1800), 0.18, TimeDelta::Millis(500),
          TimeDelta::Seconds(120), /*seed=*/5,
          DataRate::KilobitsPerSec(400), DataRate::KilobitsPerSec(4000));
      std::cout << "(no trace file given; using built-in LTE-like random "
                   "walk)\n";
    }
    const std::string scheme_arg = args.size() > 1 ? args[1] : "";
    if (args.size() > 2) base.source.content = ParseContent(args[2]);
    if (args.size() > 3) {
      base.duration = TimeDelta::Seconds(std::atol(args[3].c_str()));
    }
    if (args.size() > 4) prefix = args[4];

    // Build the config matrix up front: one config per requested scheme.
    std::vector<rtc::SessionConfig> configs;
    if (scheme_arg == "all") {
      for (rtc::Scheme scheme : rtc::kAllSchemes) {
        rtc::SessionConfig config = base;
        config.scheme = scheme;
        configs.push_back(std::move(config));
      }
    } else {
      if (!scheme_arg.empty()) base.scheme = ParseScheme(scheme_arg);
      configs.push_back(base);
    }

    const int jobs = static_cast<int>(flags.GetInt("jobs", 0));
    const auto results = runner::RunSessions(configs, jobs);

    for (size_t i = 0; i < results.size(); ++i) {
      if (i > 0) std::cout << '\n';
      const rtc::SessionResult& result = *results[i];
      const std::string out_prefix =
          configs.size() > 1 ? prefix + "_" + result.scheme_name : prefix;
      WriteCsvs(result, out_prefix);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
