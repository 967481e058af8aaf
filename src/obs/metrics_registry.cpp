#include "obs/metrics_registry.h"

#include <algorithm>

#include "util/byteio.h"

namespace rave::obs {
namespace {

thread_local MetricsRegistry* g_current_metrics = nullptr;

}  // namespace

double MetricSnapshot::Percentile(double q) const {
  return sketch.Quantile(q);  // other kinds carry an empty sketch: 0
}

const MetricSnapshot* RegistrySnapshot::Find(const std::string& name) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RegistrySnapshot::Merge(const RegistrySnapshot& other) {
  for (const MetricSnapshot& theirs : other.metrics) {
    MetricSnapshot* mine = nullptr;
    for (MetricSnapshot& m : metrics) {
      if (m.name == theirs.name && m.kind == theirs.kind) {
        mine = &m;
        break;
      }
    }
    if (mine == nullptr) {
      metrics.push_back(theirs);
      // Gauges carry (sum, count) through `gauge` + `count` so repeated
      // merges average correctly; normalize the first copy.
      MetricSnapshot& added = metrics.back();
      if (added.kind == MetricKind::kGauge && added.count == 0) {
        added.count = 1;
      }
      continue;
    }
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->counter += theirs.counter;
        break;
      case MetricKind::kGauge: {
        const uint64_t their_n = theirs.count == 0 ? 1 : theirs.count;
        const uint64_t my_n = mine->count == 0 ? 1 : mine->count;
        mine->gauge = (mine->gauge * static_cast<double>(my_n) +
                       theirs.gauge * static_cast<double>(their_n)) /
                      static_cast<double>(my_n + their_n);
        mine->count = my_n + their_n;
        break;
      }
      case MetricKind::kSketch:
        mine->sketch.Merge(theirs.sketch);
        break;
    }
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
}

void RegistrySnapshot::Encode(ByteWriter& w) const {
  w.U64(metrics.size());
  for (const MetricSnapshot& m : metrics) {
    w.Str(m.name);
    w.U8(static_cast<uint8_t>(m.kind));
    w.U64(m.counter);
    w.F64(m.gauge);
    w.U64(m.count);
    if (m.kind == MetricKind::kSketch) m.sketch.Encode(w);
  }
}

RegistrySnapshot RegistrySnapshot::Decode(ByteReader& r) {
  RegistrySnapshot snap;
  const uint64_t n = r.U64();
  if (!r.ok()) return snap;
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    MetricSnapshot m;
    m.name = r.Str();
    const uint8_t kind_byte = r.U8();
    m.kind = static_cast<MetricKind>(kind_byte);
    if (m.kind != MetricKind::kCounter && m.kind != MetricKind::kGauge &&
        m.kind != MetricKind::kSketch) {
      // An unknown or retired kind (2, the old fixed-bucket histogram)
      // desynchronizes the stream (the sketch payload is conditional on
      // it); fail closed instead of misparsing.
      r.Invalidate();
      return snap;
    }
    m.counter = r.U64();
    m.gauge = r.F64();
    m.count = r.U64();
    if (m.kind == MetricKind::kSketch) m.sketch = QuantileSketch::Decode(r);
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrNull(std::string_view name,
                                                    MetricKind kind) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  return it->second->kind == kind ? it->second : nullptr;
}

MetricsRegistry::Entry* MetricsRegistry::AddEntry(std::string_view name,
                                                  MetricKind kind) {
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->kind = kind;
  Entry* out = entry.get();
  by_name_.emplace(out->name, out);
  entries_.push_back(std::move(entry));
  return out;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kCounter)) {
    return e->counter.get();
  }
  Entry* e = AddEntry(name, MetricKind::kCounter);
  e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kGauge)) return e->gauge.get();
  Entry* e = AddEntry(name, MetricKind::kGauge);
  e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

QuantileSketch* MetricsRegistry::GetSketch(std::string_view name) {
  if (Entry* e = FindOrNull(name, MetricKind::kSketch)) return e->sketch.get();
  Entry* e = AddEntry(name, MetricKind::kSketch);
  e->sketch = std::make_unique<QuantileSketch>();
  return e->sketch.get();
}

RegistrySnapshot MetricsRegistry::Snapshot() const {
  RegistrySnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSnapshot m;
    m.name = entry->name;
    m.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        m.counter = entry->counter->value();
        break;
      case MetricKind::kGauge:
        m.gauge = entry->gauge->value();
        m.count = 1;  // gauge merge weight
        break;
      case MetricKind::kSketch:
        m.sketch = *entry->sketch;
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return snap;
}

RuntimeStats& RuntimeStats::Instance() {
  static RuntimeStats stats;
  return stats;
}

void RuntimeStats::RecordSession(double wall_ms, uint64_t events,
                                 uint64_t dispatched, uint64_t allocs,
                                 uint64_t frames) {
  const std::lock_guard<std::mutex> lock(mu_);
  session_wall_ms_.Record(wall_ms);
  if (dispatched > 0) {
    dispatch_ns_.Record(wall_ms * 1e6 / static_cast<double>(dispatched));
  }
  ++sessions_;
  events_ += events;
  events_dispatched_ += dispatched;
  allocs_ += allocs;
  frames_ += frames;
}

uint64_t RuntimeStats::total_events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

uint64_t RuntimeStats::total_events_dispatched() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_dispatched_;
}

RegistrySnapshot RuntimeStats::Snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  auto sketch = [](const char* name, const QuantileSketch& s) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kSketch;
    m.sketch = s;
    return m;
  };
  auto counter = [](const char* name, uint64_t v) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kCounter;
    m.counter = v;
    return m;
  };
  auto gauge = [](const char* name, double v) {
    MetricSnapshot m;
    m.name = name;
    m.kind = MetricKind::kGauge;
    m.gauge = v;
    m.count = 1;
    return m;
  };
  snap.metrics.push_back(counter("alloc.total", allocs_));
  if (events_ > 0) {
    snap.metrics.push_back(
        gauge("alloc.per_event",
              static_cast<double>(allocs_) / static_cast<double>(events_)));
  }
  if (frames_ > 0) {
    snap.metrics.push_back(
        gauge("alloc.per_frame",
              static_cast<double>(allocs_) / static_cast<double>(frames_)));
  }
  snap.metrics.push_back(counter("wall.sessions", sessions_));
  snap.metrics.push_back(counter("wall.events", events_));
  snap.metrics.push_back(counter("wall.events_dispatched", events_dispatched_));
  if (events_dispatched_ > 0) {
    snap.metrics.push_back(
        gauge("wall.train_amortization",
              static_cast<double>(events_) /
                  static_cast<double>(events_dispatched_)));
  }
  snap.metrics.push_back(sketch("wall.event_dispatch_ns", dispatch_ns_));
  snap.metrics.push_back(sketch("wall.session_ms", session_wall_ms_));
  return snap;
}

void RuntimeStats::Reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  session_wall_ms_ = QuantileSketch{};
  dispatch_ns_ = QuantileSketch{};
  sessions_ = 0;
  events_ = 0;
  events_dispatched_ = 0;
  allocs_ = 0;
  frames_ = 0;
}

MetricsRegistry* CurrentMetrics() { return g_current_metrics; }

MetricsScope::MetricsScope(MetricsRegistry* registry)
    : previous_(g_current_metrics) {
  g_current_metrics = registry;
}

MetricsScope::~MetricsScope() { g_current_metrics = previous_; }

}  // namespace rave::obs
