// Per-session metrics registry: counters, gauges, and mergeable quantile
// sketches that subsystems register into by name. A registry belongs to
// one session (install with MetricsScope, mirror of obs::TraceScope); at
// the end of a run it is snapshotted into the SessionResult, serialized
// through the result-cache blob, and merged across sessions by run_suite
// into BENCH_suite.json.
//
// Naming convention (enforced by review, not code): `<subsystem>.<metric>`
// lower_snake within segments — "encoder.frames", "cc.overuse_decreases",
// "frame.latency_ms". Metrics whose values depend on wall-clock time (and
// therefore differ run-to-run) must use the `wall.` prefix; determinism
// gates exclude that prefix by name.
//
// Distribution metrics are QuantileSketches (obs/sketch.h): fixed-layout
// log-bucket histograms with exact count/min/max and a fixed-point sum,
// whose merge is commutative/associative and bit-identical under any shard
// order — the property the suite-wide "sketches" aggregation and its
// committed golden (tests/golden/suite_sections.txt) rely on. The sketch is
// the registry's only distribution type.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/sketch.h"

namespace rave {
class ByteReader;
class ByteWriter;
}  // namespace rave

namespace rave::obs {

/// A monotonically increasing integer.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// A last-write-wins double.
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Wire values are stable: 2 was the retired fixed-bucket histogram and is
/// never reused, so a blob carrying it fails to decode.
enum class MetricKind : uint8_t { kCounter = 0, kGauge = 1, kSketch = 3 };

/// Serializable copy of one metric at snapshot time.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  /// Gauge merge weight: how many sessions `gauge` averages over.
  uint64_t count = 0;
  // Sketch payload (kind == kSketch only).
  QuantileSketch sketch;

  /// Quantile of the snapshotted sketch; 0 for other kinds.
  double Percentile(double q) const;

  bool operator==(const MetricSnapshot&) const = default;
};

/// All metrics of one session, sorted by name (deterministic ordering).
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(const std::string& name) const;
  /// Merges `other` in: counters add, sketches merge, gauges become
  /// averaged via (sum,count) — used by suite aggregation where a gauge
  /// across sessions reads as the mean.
  void Merge(const RegistrySnapshot& other);

  void Encode(ByteWriter& w) const;
  static RegistrySnapshot Decode(ByteReader& r);

  bool operator==(const RegistrySnapshot&) const = default;
};

/// Owns the live metrics of one session. Returned pointers are stable
/// (entries are held by unique_ptr, so later registrations never invalidate
/// earlier ones). Only the *first* Get for a name allocates; repeat lookups
/// are a transparent string_view hash-map find with zero allocations, so
/// per-frame call sites stay inside the hot-path allocation budgets.
class MetricsRegistry {
 public:
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// Mergeable log-bucket quantile sketch (obs/sketch.h) for distribution
  /// metrics; no bounds to pick, and suite-wide merges stay bit-identical
  /// under any shard order.
  QuantileSketch* GetSketch(std::string_view name);

  RegistrySnapshot Snapshot() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<QuantileSketch> sketch;
  };
  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  Entry* FindOrNull(std::string_view name, MetricKind kind);
  Entry* AddEntry(std::string_view name, MetricKind kind);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, Entry*, SvHash, std::equal_to<>> by_name_;
};

/// Process-wide roll-up of host-side session measurements (wall clock,
/// allocation counts). These are intentionally NOT part of SessionResult:
/// the result blob must be bit-identical across reruns of the same config,
/// and wall time never is. Thread-safe; sessions on any thread record here
/// and run_suite snapshots the totals into BENCH_suite.json's "runtime"
/// section (excluded from determinism comparisons).
class RuntimeStats {
 public:
  static RuntimeStats& Instance();

  /// Called once per Session::Run with host-side measurements of that run.
  /// `events` is the logical event count (mode-invariant, the one in
  /// SessionResult); `dispatched` is how many scheduler callbacks actually
  /// fired — event coalescing shrinks it, and events/dispatched is the
  /// train-amortization factor.
  void RecordSession(double wall_ms, uint64_t events, uint64_t dispatched,
                     uint64_t allocs, uint64_t frames);

  /// Raw totals since the last Reset (tab4's amortization reporting).
  uint64_t total_events() const;
  uint64_t total_events_dispatched() const;

  /// Snapshot under the same MetricSnapshot schema as session registries:
  /// `wall.session_ms` / `wall.event_dispatch_ns` sketches plus
  /// `alloc.per_event` / `alloc.per_frame` gauges and raw totals.
  RegistrySnapshot Snapshot() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  QuantileSketch session_wall_ms_;
  QuantileSketch dispatch_ns_;
  uint64_t sessions_ = 0;
  uint64_t events_ = 0;
  uint64_t events_dispatched_ = 0;
  uint64_t allocs_ = 0;
  uint64_t frames_ = 0;
};

/// The registry installed on this thread, or nullptr.
MetricsRegistry* CurrentMetrics();

/// Installs `registry` for the scope's lifetime; nests like TraceScope.
class MetricsScope {
 public:
  explicit MetricsScope(MetricsRegistry* registry);
  ~MetricsScope();

  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace rave::obs
