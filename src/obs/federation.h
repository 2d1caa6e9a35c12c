#ifndef GANNS_OBS_FEDERATION_H_
#define GANNS_OBS_FEDERATION_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ganns {
namespace obs {

/// Windows the engine keeps, on either clock; older windows are evicted and
/// counted (`overwritten()`, mirrored as the `obs.series.overwritten`
/// counter) — the ring never loses data silently.
inline constexpr std::size_t kWindowRingCapacity = 256;

/// Modeled wire size of the monitor's scrape request (the response size is
/// derived from the snapshot contents — see SnapshotWireBytes).
inline constexpr std::uint64_t kScrapeRequestBytes = 128;

/// Configuration of the window engine. The clock is whatever time the caller
/// passes to AdvanceTo/Scrape: simulated microseconds for the cluster plane,
/// wall microseconds for the serve stream.
struct FederationOptions {
  bool enabled = false;
  /// Microseconds between scrape rounds. Every node is scraped at every
  /// round, so the federated windows are aligned across nodes.
  std::uint64_t scrape_interval_us = 5000;
  /// Latency SLO in microseconds: each window publishes
  /// slo_headroom = windowed p99(latency_hdr) / slo_deadline_us. 0 disables
  /// the derived signal (and with it the burn-rate alert input).
  std::uint64_t slo_deadline_us = 0;
  /// HDR histogram (from any scraped registry) the SLI is derived from.
  std::string latency_hdr = "cluster.batch_us";
  /// Gauge exported as the window's queue saturation (the largest value any
  /// scraped registry holds at the cut).
  std::string queue_gauge = "cluster.agg.pending_saturation";
};

/// Windowed view of one HDR histogram: quantiles of exactly the samples
/// recorded during the window (bucket-delta computed, never a reset).
struct HdrWindow {
  std::string name;
  std::uint64_t count = 0;       ///< samples in this window
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;         ///< bucket upper bound of the window max
  std::uint64_t total_count = 0; ///< cumulative since the source started
};

/// How the monitor reaches one node. The cluster layer wires these to the
/// node's registry and Transport; keeping them as callbacks lets obs stay
/// below cluster in the dependency order. Only `snapshot` is required.
struct NodeHooks {
  /// Whether the node's process is up (a crashed node fails its scrape).
  std::function<bool()> alive;
  /// Router-belief health: "up", "suspect" (alive but believed down), or
  /// "down".
  std::function<std::string()> state;
  /// The node's full registry snapshot.
  std::function<MetricsSnapshot()> snapshot;
  /// Charges one scrape round trip (request out, response back) through the
  /// node's NIC model. Implementations must keep this off the serving
  /// clock: scrape seconds are monitoring time, never batch time.
  std::function<void(std::uint64_t request_bytes, std::uint64_t response_bytes)>
      charge;
};

/// One node's slice of a federated window.
struct NodeWindow {
  std::size_t node = 0;
  /// False when the node was unreachable this round (crashed): the window
  /// carries its last-known state with zero deltas.
  bool scrape_ok = false;
  std::string state = "up";
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HdrWindow> hdr;
};

/// One scrape round merged into a roll-up view: per-node windows plus
/// counter sums and bucket-merged HDR quantiles across every node and the
/// control registry (the alert engine's input).
struct FederatedWindow {
  std::uint64_t seq = 0;
  std::uint64_t t_us = 0;         ///< scrape time on the caller's clock
  /// Since the previous window; the first window measures from time 0, the
  /// origin its deltas are cumulative from.
  std::uint64_t interval_us = 0;

  std::vector<NodeWindow> nodes;

  /// Roll-up: counter deltas summed by name; HDR windows computed on
  /// bucket-merged snapshots, so the roll-up p99 is the true quantile over
  /// every node's samples, not an average of per-node quantiles.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
  std::vector<HdrWindow> hdr;

  /// Windowed p99(latency_hdr) / slo_deadline_us (0 when empty/disabled).
  double slo_headroom = 0;
  /// Latency samples behind slo_headroom this window. 0 means the window
  /// carried no SLI data at all (burn-rate alerting holds state rather than
  /// treating silence as recovery).
  std::uint64_t slo_sample_count = 0;
  /// Largest queue_gauge value among the scraped registries.
  double queue_saturation = 0;
  /// Wire bytes this scrape round charged through the node NICs.
  std::uint64_t scrape_bytes = 0;
};

/// Deterministic wire-size model of a scrape response: every metric costs
/// its name plus a fixed value encoding, every HDR bucket a (index, count)
/// pair. Pure function of the snapshot contents.
std::uint64_t SnapshotWireBytes(const MetricsSnapshot& snapshot);

/// The window engine for both clocks: scrapes every registered node's
/// registry on a fixed interval, diffs consecutive snapshots into windows
/// (per node and for the bucket-merged roll-up), keeps the latest
/// kWindowRingCapacity of them, and exports the stream as JSONL and the
/// cumulative per-node state as Prometheus text with node labels.
///
/// The cluster plane drives it on the simulated clock with one node per
/// simulated machine plus a control registry; `serve-bench --series-out`
/// drives a one-node instance over the global registry on the wall clock.
/// After every cut the engine publishes the window's slo_headroom as the
/// global `obs.series.slo_headroom` gauge, so the cumulative exports carry
/// the live SLO position.
///
/// Determinism: on the simulated clock, scrape times come from the caller,
/// snapshots are name-sorted, and exports print fixed-precision — so for a
/// fixed workload the JSONL and Prometheus bytes are identical across
/// reruns, and (because charge() is accounted off the serving clock and the
/// engine draws no randomness) enabling it cannot move search results or
/// serving sim seconds.
///
/// Thread-safety: one thread drives the engine (AdvanceTo/Scrape and the
/// readers); the scraped registries may be written concurrently.
class MetricsFederation {
 public:
  explicit MetricsFederation(FederationOptions options);

  /// Registers one node. Nodes are scraped in registration order (node id).
  void AddNode(NodeHooks hooks);

  /// Cluster-scope registry scraped locally (the router's own control
  /// metrics: batch latency, lost sub-queries, aggregator totals). Not
  /// charged to any NIC and not listed among the nodes.
  void SetControl(std::function<MetricsSnapshot()> control);

  /// Advances the monitor's clock, cutting one window per elapsed scrape
  /// interval. Returns the windows cut by this call.
  std::vector<FederatedWindow> AdvanceTo(std::uint64_t now_us);

  /// Cuts one window at `now_us` unconditionally (final flush at shutdown).
  FederatedWindow Scrape(std::uint64_t now_us);

  /// The retained windows, oldest first.
  const std::deque<FederatedWindow>& windows() const { return windows_; }
  /// Windows evicted from the ring since construction.
  std::uint64_t overwritten() const { return overwritten_; }
  std::uint64_t scrapes() const { return scrapes_; }
  /// Total wire bytes charged for scrape traffic.
  std::uint64_t scrape_bytes() const { return scrape_bytes_; }

  /// One JSON object per retained window, oldest first (the `ganns top`
  /// input).
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;
  static std::string WindowJson(const FederatedWindow& window);

  /// Prometheus text of the latest cumulative per-node state: every metric
  /// carries a node="N" label; cluster-scope control metrics carry
  /// node="cluster".
  std::string ToPrometheus() const;
  bool WritePrometheus(const std::string& path) const;

 private:
  struct NodeState {
    NodeHooks hooks;
    MetricsSnapshot prev;
    MetricsSnapshot last;  ///< latest successful scrape (Prometheus source)
    std::string last_state = "up";
  };

  FederationOptions options_;
  std::vector<NodeState> nodes_;
  std::function<MetricsSnapshot()> control_;
  MetricsSnapshot control_prev_;
  bool control_has_prev_ = false;

  std::deque<FederatedWindow> windows_;
  std::uint64_t overwritten_ = 0;
  std::uint64_t next_scrape_us_ = 0;
  std::uint64_t prev_t_us_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scrapes_ = 0;
  std::uint64_t scrape_bytes_ = 0;
};

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_FEDERATION_H_
