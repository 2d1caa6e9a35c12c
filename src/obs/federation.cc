#include "obs/federation.h"

#include <cstdio>
#include <map>
#include <utility>

#include "common/file.h"
#include "common/logging.h"

namespace ganns {
namespace obs {
namespace {

void AppendFixed(std::string& out, double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out += buffer;
}

/// Prometheus name sanitation, identical to the registry's own exporter.
std::string PrometheusName(const std::string& name) {
  std::string out = "ganns_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Counter deltas between two name-sorted snapshots (merge walk; metrics
/// registered since `prev` delta against zero).
std::vector<std::pair<std::string, std::uint64_t>> DiffCounters(
    const MetricsSnapshot& cur, const MetricsSnapshot& prev) {
  std::vector<std::pair<std::string, std::uint64_t>> deltas;
  deltas.reserve(cur.counters.size());
  std::size_t p = 0;
  for (const auto& [name, value] : cur.counters) {
    while (p < prev.counters.size() && prev.counters[p].first < name) ++p;
    const std::uint64_t before =
        (p < prev.counters.size() && prev.counters[p].first == name)
            ? prev.counters[p].second
            : 0;
    deltas.emplace_back(name, value >= before ? value - before : 0);
  }
  return deltas;
}

/// The window of one histogram between two bucket snapshots.
HdrWindow WindowOf(const std::string& name,
                   const HdrHistogram::BucketSnapshot& cur,
                   const HdrHistogram::BucketSnapshot& prev,
                   std::uint64_t total_count) {
  HdrWindow window;
  window.name = name;
  window.count = HdrHistogram::DeltaCount(cur, prev);
  window.p50 = HdrHistogram::DeltaQuantile(cur, prev, 0.50);
  window.p99 = HdrHistogram::DeltaQuantile(cur, prev, 0.99);
  window.max = HdrHistogram::DeltaQuantile(cur, prev, 1.0);
  window.total_count = total_count;
  return window;
}

/// Windowed HDR views between two snapshots (bucket-delta quantiles).
std::vector<HdrWindow> DiffHdr(const MetricsSnapshot& cur,
                               const MetricsSnapshot& prev) {
  std::vector<HdrWindow> windows;
  windows.reserve(cur.hdr.size());
  std::size_t p = 0;
  const HdrHistogram::BucketSnapshot empty;
  for (const auto& [name, snapshot] : cur.hdr) {
    while (p < prev.hdr.size() && prev.hdr[p].first < name) ++p;
    const HdrHistogram::BucketSnapshot& before =
        (p < prev.hdr.size() && prev.hdr[p].first == name) ? prev.hdr[p].second
                                                           : empty;
    windows.push_back(WindowOf(name, snapshot, before, snapshot.count));
  }
  return windows;
}

/// Sparse per-bucket counts summed across sources (BucketSnapshot carries
/// each bucket's own count, not a running total). Merging then delta-ing
/// equals delta-ing then merging, so the roll-up window quantile is exact.
struct BucketSum {
  std::map<std::uint32_t, std::uint64_t> per_bucket;
  std::uint64_t sum = 0;

  void Add(const HdrHistogram::BucketSnapshot& snapshot) {
    for (const auto& [index, count] : snapshot.buckets) {
      per_bucket[index] += count;
    }
    sum += snapshot.sum;
  }

  HdrHistogram::BucketSnapshot Finish() const {
    HdrHistogram::BucketSnapshot out;
    out.buckets.reserve(per_bucket.size());
    for (const auto& [index, count] : per_bucket) {
      if (count == 0) continue;
      out.buckets.emplace_back(index, count);
      out.count += count;
    }
    out.sum = sum;
    return out;
  }
};

/// The roll-up of one scrape round: counter deltas summed by name, HDR
/// buckets merged by name (cur and prev separately, so the merged delta is
/// the true union of every source's window samples), and the largest value
/// of the queue gauge.
struct RollUp {
  struct Hdr {
    BucketSum cur, prev;
    std::uint64_t total_count = 0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Hdr> hdr;
  double queue_gauge_max = 0;

  void Add(const std::vector<std::pair<std::string, std::uint64_t>>& deltas,
           const MetricsSnapshot& cur, const MetricsSnapshot& prev,
           const std::string& queue_gauge) {
    for (const auto& [name, delta] : deltas) counters[name] += delta;
    for (const auto& [name, snapshot] : cur.hdr) {
      Hdr& merge = hdr[name];
      merge.cur.Add(snapshot);
      merge.total_count += snapshot.count;
    }
    for (const auto& [name, snapshot] : prev.hdr) hdr[name].prev.Add(snapshot);
    for (const auto& [name, value] : cur.gauges) {
      if (name == queue_gauge && value > queue_gauge_max) {
        queue_gauge_max = value;
      }
    }
  }
};

/// The counters/gauges/hdr sections shared by node and roll-up windows.
void AppendCounters(
    std::string& out,
    const std::vector<std::pair<std::string, std::uint64_t>>& deltas) {
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, delta] : deltas) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(delta);
  }
  out += "}";
}

void AppendGauges(std::string& out,
                  const std::vector<std::pair<std::string, double>>& gauges) {
  out += "\"gauges\":{";
  bool first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":";
    AppendFixed(out, value, 6);
  }
  out += "}";
}

void AppendHdr(std::string& out, const std::vector<HdrWindow>& hdr) {
  out += "\"hdr\":{";
  bool first = true;
  for (const HdrWindow& window : hdr) {
    if (!first) out += ",";
    first = false;
    out += "\"" + window.name + "\":{\"count\":" +
           std::to_string(window.count) +
           ",\"p50\":" + std::to_string(window.p50) +
           ",\"p99\":" + std::to_string(window.p99) +
           ",\"max\":" + std::to_string(window.max) +
           ",\"total_count\":" + std::to_string(window.total_count) + "}";
  }
  out += "}";
}

}  // namespace

std::uint64_t SnapshotWireBytes(const MetricsSnapshot& snapshot) {
  std::uint64_t bytes = 32;  // response envelope
  for (const auto& [name, value] : snapshot.counters) {
    bytes += name.size() + 8;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    bytes += name.size() + 8;
  }
  for (const auto& [name, hdr] : snapshot.hdr) {
    bytes += name.size() + 24 + hdr.buckets.size() * 12;
  }
  return bytes;
}

MetricsFederation::MetricsFederation(FederationOptions options)
    : options_(options) {
  GANNS_CHECK(options_.scrape_interval_us > 0);
  next_scrape_us_ = options_.scrape_interval_us;
  // Interned up front so every export shows the eviction count, even at 0.
  MetricsRegistry::Global().GetCounter("obs.series.overwritten");
}

void MetricsFederation::AddNode(NodeHooks hooks) {
  NodeState state;
  state.hooks = std::move(hooks);
  nodes_.push_back(std::move(state));
}

void MetricsFederation::SetControl(std::function<MetricsSnapshot()> control) {
  control_ = std::move(control);
}

std::vector<FederatedWindow> MetricsFederation::AdvanceTo(
    std::uint64_t now_us) {
  std::vector<FederatedWindow> cut;
  while (next_scrape_us_ <= now_us) {
    cut.push_back(Scrape(next_scrape_us_));
    next_scrape_us_ += options_.scrape_interval_us;
  }
  return cut;
}

FederatedWindow MetricsFederation::Scrape(std::uint64_t now_us) {
  FederatedWindow window;
  window.seq = next_seq_++;
  window.t_us = now_us;
  window.interval_us = now_us - prev_t_us_;
  prev_t_us_ = now_us;
  ++scrapes_;

  RollUp rollup;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeState& state = nodes_[n];
    NodeWindow node_window;
    node_window.node = n;
    node_window.scrape_ok =
        state.hooks.alive == nullptr || state.hooks.alive();
    if (state.hooks.state != nullptr) {
      state.last_state = state.hooks.state();
    }
    node_window.state = node_window.scrape_ok ? state.last_state : "down";

    // An unreachable node answers nothing: its effective snapshot is the
    // previous one (zero deltas), and only the request probe hits the wire.
    MetricsSnapshot cur =
        node_window.scrape_ok ? state.hooks.snapshot() : state.prev;
    const std::uint64_t response_bytes =
        node_window.scrape_ok ? SnapshotWireBytes(cur) : 0;
    if (state.hooks.charge != nullptr) {
      state.hooks.charge(kScrapeRequestBytes, response_bytes);
    }
    window.scrape_bytes += kScrapeRequestBytes + response_bytes;

    node_window.counter_deltas = DiffCounters(cur, state.prev);
    node_window.gauges = cur.gauges;
    node_window.hdr = DiffHdr(cur, state.prev);
    rollup.Add(node_window.counter_deltas, cur, state.prev,
               options_.queue_gauge);

    state.prev = cur;
    if (node_window.scrape_ok) state.last = std::move(cur);
    window.nodes.push_back(std::move(node_window));
  }

  // The control registry (router-scope metrics) is scraped locally — same
  // delta arithmetic, no NIC charge.
  if (control_ != nullptr) {
    MetricsSnapshot cur = control_();
    rollup.Add(DiffCounters(cur, control_prev_), cur, control_prev_,
               options_.queue_gauge);
    control_prev_ = std::move(cur);
    control_has_prev_ = true;
  }

  window.counter_deltas.assign(rollup.counters.begin(), rollup.counters.end());
  for (const auto& [name, merge] : rollup.hdr) {
    HdrWindow hdr = WindowOf(name, merge.cur.Finish(), merge.prev.Finish(),
                             merge.total_count);
    if (name == options_.latency_hdr) {
      window.slo_sample_count = hdr.count;
      if (options_.slo_deadline_us > 0 && hdr.count > 0) {
        window.slo_headroom = static_cast<double>(hdr.p99) /
                              static_cast<double>(options_.slo_deadline_us);
      }
    }
    window.hdr.push_back(std::move(hdr));
  }
  window.queue_saturation = rollup.queue_gauge_max;

  scrape_bytes_ += window.scrape_bytes;
  MetricsRegistry& registry = MetricsRegistry::Global();
  windows_.push_back(window);
  if (windows_.size() > kWindowRingCapacity) {
    windows_.pop_front();
    ++overwritten_;
    registry.GetCounter("obs.series.overwritten").Add();
  }
  // Fed back so the cumulative exports carry the live SLO position; on the
  // serve stream (which scrapes this registry) it lands in the next window.
  registry.GetGauge("obs.series.slo_headroom").Set(window.slo_headroom);
  return window;
}

std::string MetricsFederation::WindowJson(const FederatedWindow& window) {
  std::string out = "{\"seq\":" + std::to_string(window.seq) +
                    ",\"t_us\":" + std::to_string(window.t_us) +
                    ",\"interval_us\":" + std::to_string(window.interval_us) +
                    ",\"scrape_bytes\":" + std::to_string(window.scrape_bytes) +
                    ",\"nodes\":[";
  bool first_node = true;
  for (const NodeWindow& node : window.nodes) {
    if (!first_node) out += ",";
    first_node = false;
    out += "{\"node\":" + std::to_string(node.node) + ",\"state\":\"" +
           node.state + "\",\"scrape_ok\":" +
           (node.scrape_ok ? "true" : "false") + ",";
    AppendCounters(out, node.counter_deltas);
    out += ",";
    AppendGauges(out, node.gauges);
    out += ",";
    AppendHdr(out, node.hdr);
    out += "}";
  }
  out += "],\"cluster\":{";
  AppendCounters(out, window.counter_deltas);
  out += ",";
  AppendHdr(out, window.hdr);
  out += "},\"derived\":{\"slo_headroom\":";
  AppendFixed(out, window.slo_headroom, 6);
  out += ",\"slo_samples\":" + std::to_string(window.slo_sample_count);
  out += ",\"queue_saturation\":";
  AppendFixed(out, window.queue_saturation, 6);
  out += "}}";
  return out;
}

std::string MetricsFederation::ToJsonl() const {
  std::string out;
  for (const FederatedWindow& window : windows_) {
    out += WindowJson(window);
    out += "\n";
  }
  return out;
}

bool MetricsFederation::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

std::string MetricsFederation::ToPrometheus() const {
  // Every source is one (snapshot, node label) pair: the nodes in id order,
  // then the control registry as node="cluster".
  std::vector<std::pair<const MetricsSnapshot*, std::string>> sources;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    sources.emplace_back(&nodes_[n].last,
                         "node=\"" + std::to_string(n) + "\"");
  }
  if (control_has_prev_) {
    sources.emplace_back(&control_prev_, "node=\"cluster\"");
  }

  // Group by metric family so every family gets one TYPE line followed by
  // the labeled samples, source order within a family.
  std::map<std::string, std::vector<std::string>> counters, gauges, summaries;
  const HdrHistogram::BucketSnapshot empty;
  for (const auto& [snapshot, label] : sources) {
    const std::string braced = "{" + label + "}";
    for (const auto& [name, value] : snapshot->counters) {
      const std::string prom = PrometheusName(name);
      counters[prom].push_back(prom + braced + " " + std::to_string(value));
    }
    for (const auto& [name, value] : snapshot->gauges) {
      const std::string prom = PrometheusName(name);
      std::string line = prom + braced + " ";
      AppendFixed(line, value, 6);
      gauges[prom].push_back(std::move(line));
    }
    for (const auto& [name, hdr] : snapshot->hdr) {
      const std::string prom = PrometheusName(name);
      std::vector<std::string>& lines = summaries[prom];
      for (const auto& [quantile_label, q] :
           {std::pair<const char*, double>{"0.5", 0.50},
            {"0.9", 0.90},
            {"0.99", 0.99}}) {
        lines.push_back(prom + "{" + label + ",quantile=\"" + quantile_label +
                        "\"} " +
                        std::to_string(
                            HdrHistogram::DeltaQuantile(hdr, empty, q)));
      }
      lines.push_back(prom + "_sum" + braced + " " + std::to_string(hdr.sum));
      lines.push_back(prom + "_count" + braced + " " +
                      std::to_string(hdr.count));
    }
  }
  std::string out;
  for (const auto& [family, lines] : counters) {
    out += "# TYPE " + family + " counter\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  for (const auto& [family, lines] : gauges) {
    out += "# TYPE " + family + " gauge\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  for (const auto& [family, lines] : summaries) {
    out += "# TYPE " + family + " summary\n";
    for (const std::string& line : lines) out += line + "\n";
  }
  return out;
}

bool MetricsFederation::WritePrometheus(const std::string& path) const {
  return WriteTextFile(path, ToPrometheus());
}

}  // namespace obs
}  // namespace ganns
