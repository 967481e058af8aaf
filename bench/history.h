// Suite run history and the cross-run regression sentinel.
//
// `run_suite --history=FILE` appends one JSON line per run to a ledger:
// build identity (git rev, sim fingerprint, blob version, compiled option
// set), the run shape (jobs, duration, bench selection), per-bench quality
// metrics distilled from the merged metric registries, and quarantined
// runtime stats (wall clock, sessions/sec, cache hit rate).
//
// `run_suite --baseline=FILE` (and the standalone `bench_compare` tool)
// diff a current run against a prior record. The comparison policy mirrors
// the repo's determinism contract:
//   * quality fields (counters, gauges, sketch count/sum/min/max and
//     percentiles) are sim-deterministic, so they are compared BYTE-EXACT —
//     any drift is a regression (or an unbumped fingerprint);
//   * wall-clock fields are noise-banded: a slowdown beyond the band is
//     reported in the verdict table but NEVER trips the non-zero exit on
//     its own.
// Records whose compatibility key (fingerprint, blob version, options,
// duration, bench selection) differs from the current run are skipped when
// picking a baseline — quality bytes are only comparable between runs of
// the same simulator semantics and run shape.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rave::obs {
struct RegistrySnapshot;
}  // namespace rave::obs

namespace rave::bench {

/// One bench inside a history record.
struct HistoryBench {
  std::string name;
  int exit_code = 0;
  /// Wall clock of the bench entry point (noise-banded in comparisons).
  double wall_ms = 0.0;
  /// Deterministic quality metrics as ordered (key, value-string) pairs;
  /// values are strings so "byte-exact" is literal.
  std::vector<std::pair<std::string, std::string>> quality;
};

/// One suite run in the ledger (one JSONL line).
struct HistoryRecord {
  int schema = 1;
  std::string git_rev;   // RAVE_GIT_REV env, .git/HEAD, or "unknown"
  uint64_t fingerprint = 0;
  uint32_t blob_version = 0;
  std::string options;   // runner::BuildOptionsString()
  int jobs = 0;
  double duration_s = 0.0;
  std::string only;      // --only selection ("" = full suite)
  std::vector<HistoryBench> benches;
  // Quarantined runtime stats — recorded, noise-banded, never gating alone.
  double wall_ms = 0.0;
  double sessions_per_s = 0.0;
  double cache_hit_rate = 0.0;
};

/// Distills a merged registry snapshot into quality pairs: `wall.*` and
/// `alloc.*` metrics are excluded (host-side), counters/gauges keep their
/// value, sketches expand to .count/.sum/.min/.max and .p50/.p95/.p99.
/// Doubles are formatted with max_digits10 so equal strings mean equal bits.
std::vector<std::pair<std::string, std::string>> QualityPairs(
    const obs::RegistrySnapshot& snapshot);

/// Best-effort git revision: RAVE_GIT_REV, else .git/HEAD resolved from
/// `start_dir` upward, else "unknown".
std::string GitRevOrUnknown(const std::string& start_dir);

/// Appends `record` to the JSONL ledger at `path`. False on I/O failure.
bool AppendHistory(const std::string& path, const HistoryRecord& record);

/// Loads every parseable record in the ledger (malformed lines are
/// skipped). Empty result when the file is missing or holds no records.
std::vector<HistoryRecord> LoadHistory(const std::string& path);

/// The compatibility key two records must share for a byte-exact quality
/// comparison to be meaningful.
std::string CompatKey(const HistoryRecord& record);

/// Diffs `current` against `baseline`, printing a per-bench verdict table
/// to `out`. `wall_band` is the tolerated slowdown factor for wall-clock
/// fields (e.g. 1.5 = +50%). Returns true when a QUALITY regression was
/// found (missing bench, worsened exit code, or any byte-level quality
/// drift); wall-clock slowdowns alone return false.
bool CompareRecords(const HistoryRecord& baseline, const HistoryRecord& current,
                    double wall_band, std::ostream& out);

}  // namespace rave::bench
