#include "obs/metrics.h"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "common/file.h"
#include "common/thread_pool.h"

namespace ganns {
namespace obs {
namespace {

/// Deterministic double formatting for gauge values (fixed precision, so
/// equal values print equal bytes).
void AppendDouble(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  out += buffer;
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; we map everything else
/// (the registry's dots) to '_' and prefix the project namespace.
std::string PrometheusName(const std::string& name) {
  std::string out = "ganns_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

/// Per-instance metric maps. std::map keeps export order sorted by name;
/// unique_ptr keeps references stable across inserts, so a cached Get*
/// reference outlives any later interning.
struct MetricsRegistry::State {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>> hdr;
};

MetricsRegistry::MetricsRegistry() : state_(std::make_unique<State>()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    it = state.counters.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    it = state.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return *it->second;
}

HdrHistogram& MetricsRegistry::GetHdr(std::string_view name) {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  auto it = state.hdr.find(name);
  if (it == state.hdr.end()) {
    it = state.hdr.emplace(std::string(name), std::make_unique<HdrHistogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::Reset() {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& [name, counter] : state.counters) counter->Reset();
  for (auto& [name, gauge] : state.gauges) gauge->Reset();
  for (auto& [name, hdr] : state.hdr) hdr->Reset();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters) {
    snapshot.counters.emplace_back(name, counter->value());
  }
  snapshot.gauges.reserve(state.gauges.size());
  for (const auto& [name, gauge] : state.gauges) {
    snapshot.gauges.emplace_back(name, gauge->value());
  }
  snapshot.hdr.reserve(state.hdr.size());
  for (const auto& [name, hdr] : state.hdr) {
    snapshot.hdr.emplace_back(name, hdr->SnapshotBuckets());
  }
  return snapshot;
}

std::string MetricsRegistry::ToJson() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out = "{\n\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : state.counters) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":" + std::to_string(counter->value());
  }
  out += "\n},\n\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : state.gauges) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":";
    AppendDouble(out, gauge->value());
  }
  out += "\n},\n\"hdr\":{";
  first = true;
  for (const auto& [name, hdr] : state.hdr) {
    if (!first) out += ",";
    first = false;
    out += "\n\"" + name + "\":{\"count\":" + std::to_string(hdr->count()) +
           ",\"sum\":" + std::to_string(hdr->sum()) +
           ",\"min\":" + std::to_string(hdr->min()) +
           ",\"max\":" + std::to_string(hdr->max()) + ",\"mean\":";
    AppendDouble(out, hdr->mean());
    out += ",\"p50\":" + std::to_string(hdr->ValueAtQuantile(0.50)) +
           ",\"p90\":" + std::to_string(hdr->ValueAtQuantile(0.90)) +
           ",\"p95\":" + std::to_string(hdr->ValueAtQuantile(0.95)) +
           ",\"p99\":" + std::to_string(hdr->ValueAtQuantile(0.99)) +
           ",\"p999\":" + std::to_string(hdr->ValueAtQuantile(0.999)) +
           ",\"exemplars\":[";
    bool first_exemplar = true;
    for (const HdrHistogram::Exemplar& exemplar : hdr->exemplars()) {
      if (!first_exemplar) out += ",";
      first_exemplar = false;
      out += "{\"id\":" + std::to_string(exemplar.id) +
             ",\"value\":" + std::to_string(exemplar.value) + "}";
    }
    out += "]}";
  }
  out += "\n}\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  State& state = *state_;
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out;
  for (const auto& [name, counter] : state.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : state.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendDouble(out, gauge->value());
    out += "\n";
  }
  for (const auto& [name, hdr] : state.hdr) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " summary\n";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.9", 0.90},
          {"0.95", 0.95},
          {"0.99", 0.99},
          {"0.999", 0.999}}) {
      out += prom + "{quantile=\"" + label + "\"} " +
             std::to_string(hdr->ValueAtQuantile(q)) + "\n";
    }
    out += prom + "_sum " + std::to_string(hdr->sum()) + "\n";
    out += prom + "_count " + std::to_string(hdr->count()) + "\n";
  }
  return out;
}

bool MetricsRegistry::WritePrometheus(const std::string& path) const {
  return WriteTextFile(path, ToPrometheus());
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

void SnapshotRuntimeMetrics() {
  const ThreadPool::Stats stats = ThreadPool::Global().stats();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetGauge("threadpool.parallel_for_calls")
      .Set(static_cast<double>(stats.parallel_for_calls));
  registry.GetGauge("threadpool.inline_runs")
      .Set(static_cast<double>(stats.inline_runs));
  registry.GetGauge("threadpool.chunks_claimed")
      .Set(static_cast<double>(stats.chunks_claimed));
  registry.GetGauge("threadpool.helper_tasks")
      .Set(static_cast<double>(stats.helper_tasks));
  registry.GetGauge("threadpool.num_threads")
      .Set(static_cast<double>(ThreadPool::Global().num_threads()));
}

}  // namespace obs
}  // namespace ganns
