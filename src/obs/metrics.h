#ifndef GANNS_OBS_METRICS_H_
#define GANNS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/hdr_histogram.h"

namespace ganns {
namespace obs {

/// Monotonic integer counter. Additions are relaxed atomics, so concurrent
/// recording merges to the same total regardless of thread interleaving —
/// the property the deterministic JSON export relies on.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double gauge. Intended for values computed at a single
/// deterministic point (e.g. the per-SM load imbalance after a launch), not
/// for concurrent racing writers.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// One instant's view of every counter, gauge, and HDR histogram in the
/// registry, name-sorted. The window engine (obs/federation) diffs
/// consecutive snapshots into windowed deltas; HDR entries carry full sparse
/// bucket state so window quantiles are exact (HdrHistogram::DeltaQuantile).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HdrHistogram::BucketSnapshot>> hdr;
};

/// Named-metric registry. Get* interns the metric on first use and returns
/// a reference that stays valid for the registry's lifetime; callers cache
/// it in a static local so the hot path is one atomic add. ToJson() sorts
/// by name and prints integers, so exports are byte-stable for identical
/// recorded values.
///
/// Global() is the traditional process-wide instance; additional instances
/// are cheap and independent — the cluster layer gives every simulated node
/// its own registry so the federation plane can scrape per-node state.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// Log-linear histogram, exact below 256 (hops, degrees, probe lengths)
  /// and within 0.8% above (latencies). Same interning contract as the
  /// other Get* accessors.
  HdrHistogram& GetHdr(std::string_view name);

  /// Zeroes every registered metric (entries and references survive).
  void Reset();

  /// Name-sorted copy of every counter/gauge/HDR value. Deterministic in
  /// the recorded values: the ordering comes from the name-sorted registry
  /// maps, never from registration or thread order.
  MetricsSnapshot Snapshot() const;

  /// {"counters":{...},"gauges":{...},"hdr":{...}} with keys sorted. Every
  /// hdr entry carries count/sum/min/max/mean, the p50/p90/p95/p99/p999
  /// quantiles, and its exemplar links ([{"id":...,"value":...}] — the
  /// trace ids of the slowest requests).
  std::string ToJson() const;

  bool WriteJson(const std::string& path) const;

  /// Prometheus text exposition format: counters and gauges as-is, hdr
  /// histograms as summaries with quantile labels. Metric names are
  /// sanitized to [a-zA-Z0-9_] and prefixed "ganns_".
  std::string ToPrometheus() const;

  bool WritePrometheus(const std::string& path) const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Copies process-level runtime counters (ThreadPool scheduling stats) into
/// the registry so they appear in the next export. Call before ToJson().
void SnapshotRuntimeMetrics();

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_METRICS_H_
