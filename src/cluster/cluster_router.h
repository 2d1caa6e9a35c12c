#ifndef GANNS_CLUSTER_CLUSTER_ROUTER_H_
#define GANNS_CLUSTER_CLUSTER_ROUTER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/fault.h"
#include "cluster/message_aggregator.h"
#include "cluster/transport.h"
#include "common/random.h"
#include "gpusim/device.h"
#include "graph/beam_search.h"
#include "obs/alerts.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "serve/shard_router.h"

namespace ganns {
namespace cluster {

/// How the router picks among a shard's healthy replicas.
enum class ReplicaSelection {
  kRoundRobin,
  kLeastOutstanding,
  kPowerOfTwoChoices,
};

/// Short stable name ("rr", "lo", "p2c") for reports and CLI flags.
std::string_view SelectionName(ReplicaSelection selection);
std::optional<ReplicaSelection> ParseSelection(std::string_view name);

struct ClusterOptions {
  std::size_t num_nodes = 2;
  /// Replicas per shard, on distinct nodes (replica r of shard s lives on
  /// node (s + r) mod num_nodes). Requires replication <= num_nodes.
  std::size_t replication = 1;
  ReplicaSelection selection = ReplicaSelection::kRoundRobin;
  /// Serving device replicated per (shard, node) replica.
  gpusim::DeviceSpec device;
  /// Per-node NIC model.
  TransportSpec transport;
  AggregatorOptions aggregator;
  FaultOptions faults;
  /// Attempts per shard sub-batch per query batch (first try + retries).
  std::size_t max_attempts = 3;
  /// Simulated seconds a round stalls waiting on a request that never
  /// answers (crashed node, dropped transfer).
  double timeout_us = 1000.0;
  /// Seed of the power-of-two-choices candidate draws.
  std::uint64_t seed = 1;
  /// The observability plane. Off by default; when enabled, every node gets
  /// a private MetricsRegistry scraped over its NIC on the federation's
  /// simulated interval, and the alert engine evaluates each federated
  /// window. Scrape traffic lands in transport/monitoring counters only —
  /// results and serving sim seconds are bit-identical either way.
  obs::FederationOptions federation;
  /// Alert rules evaluated per federated window; empty means
  /// obs::DefaultClusterRules().
  std::vector<obs::AlertRule> alert_rules;
};

/// Lifetime cluster totals. All deterministic for a fixed (workload,
/// options, fault schedule).
struct ClusterCounters {
  std::uint64_t batches = 0;
  /// Shard sub-batches served (one per (shard, batch) request that got an
  /// answer, counting the attempt that succeeded).
  std::uint64_t sub_batches = 0;
  /// Queries answered (possibly with degraded shard coverage — see
  /// lost_sub_queries).
  std::uint64_t served_queries = 0;
  std::uint64_t retries = 0;
  /// Retries that switched to a different replica than the failed attempt.
  std::uint64_t failovers = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dropped_transfers = 0;
  std::uint64_t delayed_transfers = 0;
  /// (query, shard) candidate sets lost after every attempt failed: the
  /// query still answers but misses that shard's candidates. Zero whenever
  /// a healthy replica of every shard survives (the failover guarantee).
  std::uint64_t lost_sub_queries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t rebalances = 0;
};

/// Per-SearchBatch timing/failure breakdown.
struct ClusterBatchStats {
  double sim_seconds = 0.0;
  std::size_t rounds = 0;
  std::uint64_t failovers = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t lost_sub_queries = 0;
};

/// Point-in-time view of one node (tests / reports).
struct NodeStatus {
  bool alive = true;
  bool believed_up = true;
  std::uint64_t served_sub_batches = 0;
  std::uint64_t served_queries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t transfer_messages = 0;
  std::uint64_t transfer_bytes = 0;
  std::vector<std::size_t> hosted_shards;
};

/// A simulated cluster of N nodes serving one ShardedIndex: replica r of
/// shard s lives on node (s + r) mod N, and each replica owns a private
/// simulated device. Replicas carry no data of their own — they pin the
/// same immutable RCU snapshots as single-node serving — so any replica of
/// a shard returns bit-identical rows, and the cross-node (dist, id) k-way
/// merge makes cluster results bit-identical to ShardedIndex::SearchBatch
/// at the same budget, regardless of which replicas answered or how many
/// failover rounds it took. Only the *timing* (network + compute + timeout
/// rounds) and the failure counters depend on the topology and fault
/// schedule, and those replay deterministically for a fixed seed.
///
/// Batch lifecycle (one round per attempt, at most max_attempts):
///   1. select one believed-healthy replica per unserved shard (round-robin,
///      least-outstanding, or power-of-two-choices);
///   2. enqueue each query's sub-query through the per-destination
///      MessageAggregator (capacity flushes fire inline; the round's
///      deadline window flushes the rest) and charge each coalesced
///      transfer through the destination node's Transport, applying
///      fault-injected drops/delays;
///   3. nodes execute their arrived sub-batches concurrently (one simulated
///      launch per (shard, node), mirroring n-GPUs-per-node), then charge
///      the response transfer back;
///   4. shards whose transfer dropped or whose node crashed time out: the
///      round stalls timeout_us, health tracking marks repeat offenders
///      believed-down, and the next round retries on a surviving replica
///      (a failover). Shards with no believed-up replica left lose their
///      candidates (lost_sub_queries) — with replication >= 2 a single node
///      loss never reaches that state.
///
/// Thread-compatible like ShardedIndex::SearchBatch: one routing thread
/// drives batches (node execution fans out internally); concurrent
/// SearchBatch calls are not supported.
class ClusterIndex {
 public:
  /// The index must outlive the cluster. Borrowed mutably: replica searches
  /// advance the index's kernel counters.
  ClusterIndex(serve::ShardedIndex& index, const ClusterOptions& options);
  ~ClusterIndex();

  ClusterIndex(const ClusterIndex&) = delete;
  ClusterIndex& operator=(const ClusterIndex&) = delete;

  /// Routes one query batch through the cluster. Returns one merged row per
  /// query, ordered ascending (dist, id).
  std::vector<std::vector<graph::Neighbor>> SearchBatch(
      std::span<const serve::RoutedQuery> queries, core::SearchKernel kernel,
      ClusterBatchStats* stats = nullptr);

  // --- Failure handling & recovery ---

  /// Kills a node: it silently stops answering (the router only learns via
  /// timeouts). Idempotent.
  void CrashNode(std::size_t node);

  /// Rejoins a crashed node: reloads its hosted shard images over the
  /// recovery channel (charged to recovery_sim_seconds, not serving time)
  /// and marks it healthy again.
  void RejoinNode(std::size_t node);

  /// Adds a replica of `shard` on `to_node`, copying the shard image over
  /// the recovery channel — the "rebalance a hot shard" move. Returns false
  /// when to_node already hosts the shard.
  bool RebalanceShard(std::size_t shard, std::size_t to_node);

  /// The shard that has served the most sub-queries (ties: lowest id) — the
  /// rebalance candidate.
  std::size_t HottestShard() const;

  // --- Introspection ---

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_shards() const { return replicas_.size(); }
  std::size_t ReplicaCount(std::size_t shard) const {
    return replicas_[shard].size();
  }
  bool NodeAlive(std::size_t node) const { return nodes_[node].alive; }
  bool NodeBelievedUp(std::size_t node) const {
    return nodes_[node].believed_up;
  }
  NodeStatus NodeInfo(std::size_t node) const;

  const ClusterCounters& counters() const { return counters_; }
  const AggregatorCounters& aggregator_counters() const {
    return aggregator_.counters();
  }
  const ClusterOptions& options() const { return options_; }

  /// Simulated serving seconds across batches (network + compute + timeout
  /// stalls; the headline sim_qps denominator).
  double total_sim_seconds() const { return sim_seconds_; }
  /// Simulated seconds charged to recovery work (rejoin reloads, rebalance
  /// copies) — off the serving path.
  double recovery_sim_seconds() const { return recovery_seconds_; }
  /// Simulated seconds charged to federation scrape traffic — also off the
  /// serving path (the plane observes the cluster, it never stalls it).
  double monitoring_sim_seconds() const { return monitoring_seconds_; }

  /// The monitoring plane, or nullptr when options.federation.enabled is
  /// false. Windows accumulate one per scrape interval of simulated time.
  obs::MetricsFederation* federation() { return federation_.get(); }
  const obs::MetricsFederation* federation() const { return federation_.get(); }
  /// The alert engine evaluating each federated window (nullptr when the
  /// plane is off).
  obs::AlertEngine* alerts() { return alerts_.get(); }
  const obs::AlertEngine* alerts() const { return alerts_.get(); }
  /// Router-scope control registry (batch latency HDR, mirrored failure
  /// counters) the plane scrapes locally.
  const obs::MetricsRegistry& control_registry() const {
    return control_registry_;
  }

  /// Deterministic JSON fragments shared by `ganns cluster-bench` and
  /// bench/cluster_sweep, so every report exposes the same per-node counter
  /// set and flush accounting that schema_check's cluster mode validates.
  std::string NodesJson() const;
  std::string AggregatorJson() const;
  std::string CountersJson() const;

  /// Flushes anything still buffered (kShutdown trigger) and, when the
  /// monitoring plane is on, cuts one final federated window — so even runs
  /// shorter than a scrape interval export at least one window. Called by
  /// the destructor; idempotent.
  void Shutdown();

 private:
  struct Replica {
    std::size_t node = 0;
    std::unique_ptr<gpusim::Device> device;
  };

  struct Node {
    explicit Node(const TransportSpec& spec) : transport(spec) {}
    bool alive = true;
    bool believed_up = true;
    int consecutive_timeouts = 0;
    std::uint64_t served_sub_batches = 0;
    std::uint64_t served_queries = 0;
    std::uint64_t timeouts = 0;
    std::vector<std::size_t> hosted_shards;
    Transport transport;
    /// Per-node metric registry, allocated only when the federation plane
    /// is on (the scrape target).
    std::unique_ptr<obs::MetricsRegistry> registry;
  };

  /// Picks a believed-up replica node for `shard` under the configured
  /// policy, avoiding `exclude_node` (the just-failed attempt) when an
  /// alternative exists. Returns -1 when no believed-up replica remains.
  int SelectReplica(std::size_t shard, int exclude_node,
                    const std::vector<std::size_t>& outstanding);

  /// True when per-node/control metric recording is on.
  bool PlaneEnabled() const { return federation_ != nullptr; }
  /// Adds to a counter in node `n`'s registry (no-op when the plane is off).
  void NodeMetric(std::size_t node, const char* name, std::uint64_t n);
  /// Adds to a control-registry counter (no-op when the plane is off).
  void ControlMetric(const char* name, std::uint64_t n);
  /// Publishes aggregator pending saturation, scrapes due windows at
  /// clock_us_, and runs the alert engine over them.
  void AdvanceMonitoring();
  /// Emits a node-health transition instant on the node's cluster track.
  void HealthInstant(std::size_t node, const char* name);

  gpusim::Device& ReplicaDevice(std::size_t shard, std::size_t node);

  serve::ShardedIndex& index_;
  ClusterOptions options_;
  FaultInjector injector_;
  Rng selection_rng_;
  std::vector<Node> nodes_;
  /// Replicas by shard, in placement order.
  std::vector<std::vector<Replica>> replicas_;
  /// Per-shard round-robin cursors.
  std::vector<std::uint64_t> rr_;
  /// Per-shard served sub-queries (hotness signal for rebalancing).
  std::vector<std::uint64_t> shard_served_;
  /// Flushes of the in-progress round, collected by the aggregator sink.
  std::vector<FlushRecord> round_flushes_;
  MessageAggregator aggregator_;
  ClusterCounters counters_;
  /// Router-scope metrics the plane scrapes without a NIC charge.
  obs::MetricsRegistry control_registry_;
  std::unique_ptr<obs::MetricsFederation> federation_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  double sim_seconds_ = 0.0;
  double recovery_seconds_ = 0.0;
  double monitoring_seconds_ = 0.0;
  /// Guards the Shutdown() final scrape (Shutdown is idempotent and also
  /// runs from the destructor).
  bool final_scrape_done_ = false;
  /// The cluster's simulated clock (microseconds): aggregator deadlines and
  /// trace timestamps live on it.
  double clock_us_ = 0.0;
};

}  // namespace cluster
}  // namespace ganns

#endif  // GANNS_CLUSTER_CLUSTER_ROUTER_H_
