#include "cluster/cluster_router.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

#include "common/kway_merge.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace cluster {

namespace {

/// Modeled wire sizes. A sub-query request carries the vector plus routing
/// scalars; a result row carries k (dist, id) pairs. Constants, not tuned:
/// they only need to scale plausibly with dim/k so aggregation has real
/// per-message overhead to amortize.
constexpr std::size_t kSubQueryOverheadBytes = 16;
constexpr std::size_t kResultEntryBytes = 8;
constexpr std::size_t kResponseOverheadBytes = 32;

/// Consecutive timeouts before the router believes a node is down and
/// routes around it (until RejoinNode).
constexpr int kTimeoutThreshold = 2;

void AddMetric(const char* name, std::uint64_t n) {
  if (n > 0 && obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter(name).Add(n);
  }
}

}  // namespace

std::string_view SelectionName(ReplicaSelection selection) {
  switch (selection) {
    case ReplicaSelection::kRoundRobin: return "rr";
    case ReplicaSelection::kLeastOutstanding: return "lo";
    case ReplicaSelection::kPowerOfTwoChoices: return "p2c";
  }
  return "rr";
}

std::optional<ReplicaSelection> ParseSelection(std::string_view name) {
  if (name == "rr" || name == "round-robin") {
    return ReplicaSelection::kRoundRobin;
  }
  if (name == "lo" || name == "least-outstanding") {
    return ReplicaSelection::kLeastOutstanding;
  }
  if (name == "p2c" || name == "power-of-two") {
    return ReplicaSelection::kPowerOfTwoChoices;
  }
  return std::nullopt;
}

ClusterIndex::ClusterIndex(serve::ShardedIndex& index,
                           const ClusterOptions& options)
    : index_(index),
      options_(options),
      injector_(options.faults),
      selection_rng_(options.seed),
      aggregator_(options.num_nodes, options.aggregator,
                  [this](const FlushRecord& record) {
                    round_flushes_.push_back(record);
                    switch (record.trigger) {
                      case FlushTrigger::kCapacity:
                        AddMetric("cluster.agg.capacity_flushes", 1);
                        break;
                      case FlushTrigger::kDeadline:
                        AddMetric("cluster.agg.deadline_flushes", 1);
                        break;
                      case FlushTrigger::kShutdown:
                        AddMetric("cluster.agg.shutdown_flushes", 1);
                        break;
                    }
                    AddMetric("cluster.agg.flushed_bytes", record.bytes);
                  }) {
  GANNS_CHECK(options_.num_nodes >= 1);
  GANNS_CHECK_MSG(
      options_.replication >= 1 && options_.replication <= options_.num_nodes,
      "replication " << options_.replication << " needs 1.."
                     << options_.num_nodes << " (distinct nodes per shard)");
  GANNS_CHECK(options_.max_attempts >= 1);
  nodes_.reserve(options_.num_nodes);
  for (std::size_t n = 0; n < options_.num_nodes; ++n) {
    nodes_.emplace_back(options_.transport);
  }
  const std::size_t num_shards = index_.num_shards();
  replicas_.resize(num_shards);
  rr_.assign(num_shards, 0);
  shard_served_.assign(num_shards, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (std::size_t r = 0; r < options_.replication; ++r) {
      const std::size_t node = (s + r) % options_.num_nodes;
      replicas_[s].push_back(
          {node, std::make_unique<gpusim::Device>(options_.device)});
      nodes_[node].hosted_shards.push_back(s);
    }
  }
  if (obs::TracingEnabled()) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      obs::TraceRecorder::Global().SetThreadName(
          obs::kClusterPid, obs::ClusterNodeTrack(n),
          "node " + std::to_string(n));
    }
  }
  if (options_.federation.enabled) {
    federation_ =
        std::make_unique<obs::MetricsFederation>(options_.federation);
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      Node& node = nodes_[n];
      node.registry = std::make_unique<obs::MetricsRegistry>();
      node.registry->GetGauge("cluster.node.hosted_shards")
          .Set(static_cast<double>(node.hosted_shards.size()));
      obs::NodeHooks hooks;
      hooks.alive = [this, n] { return nodes_[n].alive; };
      hooks.state = [this, n]() -> std::string {
        const Node& target = nodes_[n];
        return target.alive ? (target.believed_up ? "up" : "suspect")
                            : "down";
      };
      hooks.snapshot = [this, n] { return nodes_[n].registry->Snapshot(); };
      // Scrape traffic goes over the node's NIC like any other transfer,
      // but its seconds are monitoring time: serving rounds only consume
      // Send() return values, so the serving clock cannot see scrapes.
      hooks.charge = [this, n](std::uint64_t request_bytes,
                               std::uint64_t response_bytes) {
        double seconds = nodes_[n].transport.Send(request_bytes);
        if (response_bytes > 0) {
          seconds += nodes_[n].transport.Send(response_bytes);
        }
        monitoring_seconds_ += seconds;
        ControlMetric("cluster.monitor.scrape_bytes",
                      request_bytes + response_bytes);
      };
      federation_->AddNode(std::move(hooks));
    }
    federation_->SetControl([this] { return control_registry_.Snapshot(); });
    alerts_ = std::make_unique<obs::AlertEngine>(
        options_.alert_rules.empty() ? obs::DefaultClusterRules()
                                     : options_.alert_rules);
    if (obs::TracingEnabled()) {
      obs::TraceRecorder::Global().SetThreadName(
          obs::kClusterPid, obs::kClusterAlertTrack, "alerts");
    }
  }
}

ClusterIndex::~ClusterIndex() { Shutdown(); }

void ClusterIndex::Shutdown() {
  aggregator_.FlushAll(FlushTrigger::kShutdown);
  if (PlaneEnabled() && !final_scrape_done_) {
    final_scrape_done_ = true;
    const obs::FederatedWindow window =
        federation_->Scrape(static_cast<std::uint64_t>(clock_us_));
    alerts_->Evaluate(window);
    ControlMetric("cluster.monitor.scrapes", 1);
  }
}

gpusim::Device& ClusterIndex::ReplicaDevice(std::size_t shard,
                                            std::size_t node) {
  for (Replica& replica : replicas_[shard]) {
    if (replica.node == node) return *replica.device;
  }
  GANNS_CHECK_MSG(false, "node " << node << " hosts no replica of shard "
                                 << shard);
  return *replicas_[shard][0].device;  // unreachable
}

void ClusterIndex::NodeMetric(std::size_t node, const char* name,
                              std::uint64_t n) {
  if (n > 0 && PlaneEnabled()) nodes_[node].registry->GetCounter(name).Add(n);
}

void ClusterIndex::ControlMetric(const char* name, std::uint64_t n) {
  if (n > 0 && PlaneEnabled()) control_registry_.GetCounter(name).Add(n);
}

void ClusterIndex::AdvanceMonitoring() {
  if (!PlaneEnabled()) return;
  double saturation = 0.0;
  for (std::size_t dest = 0; dest < nodes_.size(); ++dest) {
    saturation = std::max(
        saturation, static_cast<double>(aggregator_.PendingBytes(dest)) /
                        static_cast<double>(aggregator_.options().max_bytes));
  }
  control_registry_.GetGauge("cluster.agg.pending_saturation").Set(saturation);
  const std::vector<obs::FederatedWindow> windows =
      federation_->AdvanceTo(static_cast<std::uint64_t>(clock_us_));
  for (const obs::FederatedWindow& window : windows) {
    alerts_->Evaluate(window);
  }
  ControlMetric("cluster.monitor.scrapes",
                static_cast<std::uint64_t>(windows.size()));
}

void ClusterIndex::HealthInstant(std::size_t node, const char* name) {
  if (!obs::TracingEnabled()) return;
  obs::TraceEvent event;
  event.name = obs::InternName(name);
  event.pid = obs::kClusterPid;
  event.tid = obs::ClusterNodeTrack(node);
  event.ts = clock_us_;
  obs::TraceRecorder::Global().Add(event);
}

int ClusterIndex::SelectReplica(std::size_t shard, int exclude_node,
                                const std::vector<std::size_t>& outstanding) {
  // Believed-up hosts in ascending node order, so every policy breaks ties
  // deterministically on the lowest node id.
  std::vector<std::size_t> candidates;
  candidates.reserve(replicas_[shard].size());
  for (const Replica& replica : replicas_[shard]) {
    if (nodes_[replica.node].believed_up) candidates.push_back(replica.node);
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.empty()) return -1;
  if (candidates.size() > 1 && exclude_node >= 0) {
    // Steer the retry away from the replica that just failed.
    candidates.erase(std::remove(candidates.begin(), candidates.end(),
                                 static_cast<std::size_t>(exclude_node)),
                     candidates.end());
  }
  switch (options_.selection) {
    case ReplicaSelection::kRoundRobin:
      return static_cast<int>(candidates[rr_[shard]++ % candidates.size()]);
    case ReplicaSelection::kLeastOutstanding: {
      std::size_t best = candidates[0];
      for (const std::size_t node : candidates) {
        if (outstanding[node] < outstanding[best]) best = node;
      }
      return static_cast<int>(best);
    }
    case ReplicaSelection::kPowerOfTwoChoices: {
      const std::size_t a =
          candidates[selection_rng_.NextBounded(candidates.size())];
      const std::size_t b =
          candidates[selection_rng_.NextBounded(candidates.size())];
      if (outstanding[b] < outstanding[a] ||
          (outstanding[b] == outstanding[a] && b < a)) {
        return static_cast<int>(b);
      }
      return static_cast<int>(a);
    }
  }
  return static_cast<int>(candidates[0]);
}

std::vector<std::vector<graph::Neighbor>> ClusterIndex::SearchBatch(
    std::span<const serve::RoutedQuery> queries, core::SearchKernel kernel,
    ClusterBatchStats* stats) {
  const std::size_t num_shards = replicas_.size();
  const std::size_t num_queries = queries.size();
  ++counters_.batches;
  AddMetric("cluster.batches", 1);
  ControlMetric("cluster.batches", 1);
  const std::uint64_t batch_seq = counters_.batches;
  const double batch_start_us = clock_us_;

  // Sampled-request flow ids: nonzero entries join the request's Perfetto
  // flow through the aggregator and onto the answering nodes' tracks.
  const bool tracing = obs::TracingEnabled();
  std::vector<std::uint64_t> flow_ids(num_queries, 0);
  if (tracing) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      if (queries[q].trace.sampled && queries[q].trace.trace_id != 0) {
        flow_ids[q] = queries[q].trace.trace_id;
      }
    }
  }

  // Scheduled faults land on the batch boundary, before routing.
  if (options_.faults.crash_node >= 0 &&
      injector_.CrashesAt(options_.faults.crash_node, batch_seq)) {
    CrashNode(static_cast<std::size_t>(options_.faults.crash_node));
  }
  if (injector_.RejoinsAt(batch_seq)) {
    RejoinNode(static_cast<std::size_t>(options_.faults.crash_node));
  }

  const std::size_t sub_query_bytes =
      index_.dim() * sizeof(float) + kSubQueryOverheadBytes;

  // rows[s][q]: shard s's rebased row for query q — identical bytes to what
  // single-node SearchBatch gets, whichever replica computes it.
  std::vector<std::vector<std::vector<graph::Neighbor>>> rows(num_shards);
  for (auto& shard_rows : rows) shard_rows.resize(num_queries);
  std::vector<char> shard_served(num_shards, 0);
  std::vector<int> last_failed_node(num_shards, -1);

  std::vector<std::size_t> pending(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) pending[s] = s;

  double batch_seconds = 0.0;
  std::size_t rounds = 0;
  std::uint64_t batch_failovers = 0;
  std::uint64_t batch_timeouts = 0;

  for (std::size_t attempt = 0;
       attempt < options_.max_attempts && !pending.empty(); ++attempt) {
    // --- 1. replica selection ---
    std::vector<int> assigned_node(num_shards, -1);
    std::vector<std::size_t> outstanding(nodes_.size(), 0);
    std::vector<std::size_t> assigned;
    for (const std::size_t s : pending) {
      const int node = SelectReplica(s, last_failed_node[s], outstanding);
      if (node < 0) continue;  // no believed-up replica left
      assigned_node[s] = node;
      if (attempt > 0) {
        ++counters_.retries;
        AddMetric("cluster.retries", 1);
        ControlMetric("cluster.retries", 1);
        if (last_failed_node[s] >= 0 && node != last_failed_node[s]) {
          ++counters_.failovers;
          ++batch_failovers;
          AddMetric("cluster.failovers", 1);
          ControlMetric("cluster.failovers", 1);
        }
      }
      ++outstanding[node];
      assigned.push_back(s);
    }
    if (assigned.empty()) break;  // every pending shard is unroutable
    ++rounds;
    const double round_start_us = clock_us_;

    // --- 2. aggregation + request transfers ---
    round_flushes_.clear();
    for (const std::size_t s : assigned) {
      for (std::size_t q = 0; q < num_queries; ++q) {
        aggregator_.Enqueue(static_cast<std::size_t>(assigned_node[s]),
                            sub_query_bytes, static_cast<std::uint32_t>(s),
                            clock_us_, flow_ids[q]);
      }
    }
    // The round's batching window closes: stragglers age past the deadline.
    clock_us_ += aggregator_.options().deadline_us;
    aggregator_.AdvanceTo(clock_us_);

    // A shard's request arrives iff every transfer carrying one of its
    // sub-queries survives the wire. Fault draws happen here, in flush
    // order, so the whole failure sequence replays for a fixed seed.
    std::vector<char> transfer_ok(num_shards, 1);
    std::vector<double> inbound_s(nodes_.size(), 0.0);
    for (const FlushRecord& flush : round_flushes_) {
      const TransferFault fault = injector_.NextTransferFault();
      if (fault.dropped) {
        ++counters_.dropped_transfers;
        AddMetric("cluster.dropped_transfers", 1);
      }
      if (fault.delay_us > 0.0) {
        ++counters_.delayed_transfers;
        AddMetric("cluster.delayed_transfers", 1);
      }
      // The wire time is spent whether or not the payload survives.
      const std::size_t wire_bytes = flush.bytes + kTransferHeaderBytes;
      const double wire_s =
          nodes_[flush.dest].transport.Send(wire_bytes, fault.delay_us * 1e-6);
      inbound_s[flush.dest] += wire_s;
      if (fault.dropped) {
        for (const std::uint32_t tag : flush.tags) transfer_ok[tag] = 0;
      }
      NodeMetric(flush.dest, "cluster.node.recv_bytes", wire_bytes);
      NodeMetric(flush.dest, "cluster.node.flushes", 1);
      NodeMetric(flush.dest, "cluster.node.dropped_transfers",
                 fault.dropped ? 1 : 0);
      ControlMetric("cluster.flushes", 1);
      ControlMetric("cluster.dropped_transfers", fault.dropped ? 1 : 0);
      if (tracing) {
        // The flush is a span covering its wire time, so sampled requests'
        // flow steps have a slice to anchor on.
        obs::TraceEvent event;
        event.name = obs::InternName(fault.dropped ? "cluster.flush.dropped"
                                                   : "cluster.flush");
        event.pid = obs::kClusterPid;
        event.tid = obs::ClusterNodeTrack(flush.dest);
        event.ts = clock_us_;
        event.dur = wire_s * 1e6;
        event.arg = static_cast<std::int64_t>(flush.messages);
        event.arg_name = obs::InternName("coalesced");
        obs::TraceRecorder::Global().Add(event);
        for (const std::uint64_t flow : flush.flows) {
          obs::TraceEvent step;
          step.name = obs::InternName("cluster.request_flow");
          step.pid = obs::kClusterPid;
          step.tid = obs::ClusterNodeTrack(flush.dest);
          step.ts = clock_us_;
          step.flow = obs::FlowPhase::kStep;
          step.flow_id = flow;
          obs::TraceRecorder::Global().Add(step);
        }
      }
    }

    // --- 3. execution on the nodes that received their requests ---
    std::vector<std::vector<std::size_t>> node_shards(nodes_.size());
    for (const std::size_t s : assigned) {
      const std::size_t node = static_cast<std::size_t>(assigned_node[s]);
      if (transfer_ok[s] && nodes_[node].alive) node_shards[node].push_back(s);
    }
    std::vector<double> compute_s(nodes_.size(), 0.0);
    // One task per node; a node's replicas launch on private devices (its
    // GPUs run in parallel), so the node finishes with its slowest launch.
    // Each (shard, node) task writes only rows[s] — disjoint slots.
    ThreadPool::Global().ParallelFor(nodes_.size(), [&](std::size_t n) {
      double slowest = 0.0;
      for (const std::size_t s : node_shards[n]) {
        gpusim::Device& device = ReplicaDevice(s, n);
        const double cycles = index_.SearchShardReplica(s, device, queries,
                                                        kernel, rows[s]);
        slowest = std::max(slowest, device.CyclesToSeconds(cycles));
      }
      compute_s[n] = slowest;
    });

    // --- 4. responses, timeouts, health, retry set ---
    double round_s = aggregator_.options().deadline_us * 1e-6;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      if (node_shards[n].empty() && inbound_s[n] == 0.0) continue;
      double response_bytes = 0.0;
      for (std::size_t i = 0; i < node_shards[n].size(); ++i) {
        for (std::size_t q = 0; q < num_queries; ++q) {
          response_bytes +=
              static_cast<double>(queries[q].k) * kResultEntryBytes;
        }
        response_bytes += kResponseOverheadBytes;
      }
      const double response_s =
          response_bytes > 0.0
              ? nodes_[n].transport.Send(
                    static_cast<std::size_t>(response_bytes))
              : 0.0;
      const double node_s = inbound_s[n] + compute_s[n] + response_s;
      round_s = std::max(round_s, node_s);
      NodeMetric(n, "cluster.node.sent_bytes",
                 static_cast<std::uint64_t>(response_bytes));
      if (PlaneEnabled() && !node_shards[n].empty()) {
        nodes_[n].registry->GetHdr("cluster.node.serve_us")
            .Record(static_cast<std::uint64_t>(node_s * 1e6));
      }
      if (tracing && !node_shards[n].empty()) {
        obs::TraceEvent event;
        event.name = obs::InternName("cluster.node_serve");
        event.pid = obs::kClusterPid;
        event.tid = obs::ClusterNodeTrack(n);
        event.ts = round_start_us;
        event.dur = node_s * 1e6;
        event.arg = static_cast<std::int64_t>(batch_seq);
        event.arg_name = obs::InternName("batch");
        obs::TraceRecorder::Global().Add(event);
        // Every sampled request this node answered steps its flow through
        // the serve span — after a failover this is the replica that ends
        // the causal chain.
        for (const std::uint64_t flow : flow_ids) {
          if (flow == 0) continue;
          obs::TraceEvent step;
          step.name = obs::InternName("cluster.request_flow");
          step.pid = obs::kClusterPid;
          step.tid = obs::ClusterNodeTrack(n);
          step.ts = round_start_us;
          step.flow = obs::FlowPhase::kStep;
          step.flow_id = flow;
          obs::TraceRecorder::Global().Add(step);
        }
      }
    }

    bool any_timeout = false;
    std::vector<std::size_t> next_pending;
    for (const std::size_t s : pending) {
      if (assigned_node[s] < 0) {
        next_pending.push_back(s);  // unroutable; only a rejoin can help
        continue;
      }
      const std::size_t node = static_cast<std::size_t>(assigned_node[s]);
      if (transfer_ok[s] && nodes_[node].alive) {
        shard_served[s] = 1;
        ++counters_.sub_batches;
        AddMetric("cluster.sub_batches", 1);
        ControlMetric("cluster.sub_batches", 1);
        NodeMetric(node, "cluster.node.sub_batches", 1);
        NodeMetric(node, "cluster.node.served_queries", num_queries);
        nodes_[node].served_sub_batches += 1;
        nodes_[node].served_queries += num_queries;
        nodes_[node].consecutive_timeouts = 0;
        shard_served_[s] += num_queries;
      } else {
        any_timeout = true;
        ++counters_.timeouts;
        ++batch_timeouts;
        AddMetric("cluster.timeouts", 1);
        ControlMetric("cluster.timeouts", 1);
        NodeMetric(node, "cluster.node.timeouts", 1);
        ++nodes_[node].timeouts;
        if (++nodes_[node].consecutive_timeouts >= kTimeoutThreshold) {
          if (nodes_[node].believed_up) {
            HealthInstant(node, "cluster.node_suspect");
          }
          nodes_[node].believed_up = false;
        }
        last_failed_node[s] = static_cast<int>(node);
        next_pending.push_back(s);
        if (obs::TracingEnabled()) {
          obs::TraceEvent event;
          event.name = obs::InternName("cluster.timeout");
          event.pid = obs::kClusterPid;
          event.tid = obs::ClusterNodeTrack(node);
          event.ts = clock_us_;
          event.arg = static_cast<std::int64_t>(s);
          event.arg_name = obs::InternName("shard");
          obs::TraceRecorder::Global().Add(event);
        }
      }
    }
    if (any_timeout) round_s = std::max(round_s, options_.timeout_us * 1e-6);
    batch_seconds += round_s;
    // The deadline window already advanced the clock; add the rest.
    clock_us_ += round_s * 1e6 - aggregator_.options().deadline_us;
    pending = std::move(next_pending);
  }

  // Whatever is still pending lost its candidates for this batch: the query
  // answers from the surviving shards only.
  if (!pending.empty()) {
    const std::uint64_t lost =
        static_cast<std::uint64_t>(pending.size()) * num_queries;
    counters_.lost_sub_queries += lost;
    AddMetric("cluster.lost_sub_queries", lost);
    ControlMetric("cluster.lost_sub_queries", lost);
  }
  counters_.served_queries += num_queries;
  AddMetric("cluster.served_queries", num_queries);
  ControlMetric("cluster.served_queries", num_queries);
  sim_seconds_ += batch_seconds;
  if (PlaneEnabled()) {
    control_registry_.GetHdr("cluster.batch_us")
        .Record(static_cast<std::uint64_t>(batch_seconds * 1e6));
  }

  // Sampled requests get a root span on their own cluster track, bracketed
  // by the flow's start and end — everything the batch did on their behalf
  // (flushes, node serves, the failover's answering replica) hangs off it.
  if (tracing) {
    for (const std::uint64_t flow : flow_ids) {
      if (flow == 0) continue;
      const std::int32_t track = obs::ClusterRequestTrack(flow);
      obs::TraceEvent root;
      root.name = obs::InternName("serve.request");
      root.pid = obs::kClusterPid;
      root.tid = track;
      root.ts = batch_start_us;
      root.dur = clock_us_ - batch_start_us;
      root.arg = static_cast<std::int64_t>(flow);
      root.arg_name = obs::InternName("trace_id");
      obs::TraceRecorder::Global().Add(root);
      obs::TraceEvent start;
      start.name = obs::InternName("cluster.request_flow");
      start.pid = obs::kClusterPid;
      start.tid = track;
      start.ts = batch_start_us;
      start.flow = obs::FlowPhase::kStart;
      start.flow_id = flow;
      obs::TraceRecorder::Global().Add(start);
      obs::TraceEvent end;
      end.name = obs::InternName("cluster.request_flow");
      end.pid = obs::kClusterPid;
      end.tid = track;
      end.ts = clock_us_;
      end.flow = obs::FlowPhase::kEnd;
      end.flow_id = flow;
      obs::TraceRecorder::Global().Add(end);
    }
  }

  // The monitoring plane catches up to the serving clock: due scrape
  // windows are cut and the alert engine sees them, all before the next
  // batch moves the clock again.
  AdvanceMonitoring();

  if (stats != nullptr) {
    stats->sim_seconds = batch_seconds;
    stats->rounds = rounds;
    stats->failovers = batch_failovers;
    stats->timeouts = batch_timeouts;
    stats->lost_sub_queries =
        static_cast<std::uint64_t>(pending.size()) * num_queries;
  }

  // The same deterministic (dist, id) merge as single-node serving, in
  // shard order — unserved shards contribute empty rows.
  std::vector<std::vector<graph::Neighbor>> merged(num_queries);
  std::vector<std::vector<graph::Neighbor>> heads(num_shards);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      heads[s] = std::move(rows[s][q]);
    }
    merged[q] = common::MergeTopK<graph::Neighbor>(heads, queries[q].k);
  }
  return merged;
}

void ClusterIndex::CrashNode(std::size_t node) {
  GANNS_CHECK(node < nodes_.size());
  if (!nodes_[node].alive) return;
  nodes_[node].alive = false;
  ++counters_.crashes;
  AddMetric("cluster.crashes", 1);
  ControlMetric("cluster.crashes", 1);
  HealthInstant(node, "cluster.node_crash");
}

void ClusterIndex::RejoinNode(std::size_t node) {
  GANNS_CHECK(node < nodes_.size());
  Node& target = nodes_[node];
  if (target.alive && target.believed_up) return;
  // Reload every hosted shard image over the recovery channel before the
  // node takes traffic again. Recovery time never stalls serving batches.
  for (const std::size_t s : target.hosted_shards) {
    recovery_seconds_ += target.transport.ReloadSeconds(
        index_.ShardImageBytes(s));
  }
  target.alive = true;
  target.believed_up = true;
  target.consecutive_timeouts = 0;
  ++counters_.rejoins;
  AddMetric("cluster.rejoins", 1);
  ControlMetric("cluster.rejoins", 1);
  HealthInstant(node, "cluster.node_rejoin");
}

bool ClusterIndex::RebalanceShard(std::size_t shard, std::size_t to_node) {
  GANNS_CHECK(shard < replicas_.size());
  GANNS_CHECK(to_node < nodes_.size());
  for (const Replica& replica : replicas_[shard]) {
    if (replica.node == to_node) return false;
  }
  replicas_[shard].push_back(
      {to_node, std::make_unique<gpusim::Device>(options_.device)});
  nodes_[to_node].hosted_shards.push_back(shard);
  recovery_seconds_ += nodes_[to_node].transport.ReloadSeconds(
      index_.ShardImageBytes(shard));
  ++counters_.rebalances;
  AddMetric("cluster.rebalances", 1);
  ControlMetric("cluster.rebalances", 1);
  if (PlaneEnabled()) {
    nodes_[to_node].registry->GetGauge("cluster.node.hosted_shards")
        .Set(static_cast<double>(nodes_[to_node].hosted_shards.size()));
  }
  return true;
}

std::size_t ClusterIndex::HottestShard() const {
  std::size_t hottest = 0;
  for (std::size_t s = 1; s < shard_served_.size(); ++s) {
    if (shard_served_[s] > shard_served_[hottest]) hottest = s;
  }
  return hottest;
}

NodeStatus ClusterIndex::NodeInfo(std::size_t node) const {
  const Node& source = nodes_[node];
  NodeStatus status;
  status.alive = source.alive;
  status.believed_up = source.believed_up;
  status.served_sub_batches = source.served_sub_batches;
  status.served_queries = source.served_queries;
  status.timeouts = source.timeouts;
  status.transfer_messages = source.transport.counters().messages;
  status.transfer_bytes = source.transport.counters().bytes;
  status.hosted_shards = source.hosted_shards;
  return status;
}

std::string ClusterIndex::NodesJson() const {
  std::string json = "[";
  char buffer[160];
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    if (n > 0) json += ", ";
    std::snprintf(buffer, sizeof(buffer),
                  "{\"id\": %zu, \"state\": \"%s\", \"hosted_shards\": [",
                  n, node.alive ? (node.believed_up ? "up" : "suspect")
                                : "down");
    json += buffer;
    for (std::size_t i = 0; i < node.hosted_shards.size(); ++i) {
      if (i > 0) json += ", ";
      json += std::to_string(node.hosted_shards[i]);
    }
    std::snprintf(buffer, sizeof(buffer),
                  "], \"served_sub_batches\": %" PRIu64
                  ", \"served_queries\": %" PRIu64 ", \"timeouts\": %" PRIu64
                  ", \"transfer_bytes\": %" PRIu64 "}",
                  node.served_sub_batches, node.served_queries, node.timeouts,
                  node.transport.counters().bytes);
    json += buffer;
  }
  json += "]";
  return json;
}

std::string ClusterIndex::AggregatorJson() const {
  const AggregatorCounters& agg = aggregator_.counters();
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"enqueued_messages\": %" PRIu64 ", \"enqueued_bytes\": %" PRIu64
      ", \"capacity_flushes\": %" PRIu64 ", \"deadline_flushes\": %" PRIu64
      ", \"shutdown_flushes\": %" PRIu64 ", \"total_flushes\": %" PRIu64
      ", \"sent_bytes\": %" PRIu64 ", \"coalescing_factor\": %.6f}",
      agg.enqueued_messages, agg.enqueued_bytes, agg.capacity_flushes,
      agg.deadline_flushes, agg.shutdown_flushes, agg.total_flushes,
      agg.sent_bytes, agg.CoalescingFactor());
  return buffer;
}

std::string ClusterIndex::CountersJson() const {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"batches\": %" PRIu64 ", \"sub_batches\": %" PRIu64
      ", \"served_queries\": %" PRIu64 ", \"retries\": %" PRIu64
      ", \"failovers\": %" PRIu64 ", \"timeouts\": %" PRIu64
      ", \"dropped_transfers\": %" PRIu64 ", \"delayed_transfers\": %" PRIu64
      ", \"lost_sub_queries\": %" PRIu64 ", \"crashes\": %" PRIu64
      ", \"rejoins\": %" PRIu64 ", \"rebalances\": %" PRIu64 "}",
      counters_.batches, counters_.sub_batches, counters_.served_queries,
      counters_.retries, counters_.failovers, counters_.timeouts,
      counters_.dropped_transfers, counters_.delayed_transfers,
      counters_.lost_sub_queries, counters_.crashes, counters_.rejoins,
      counters_.rebalances);
  return buffer;
}

}  // namespace cluster
}  // namespace ganns
