// cluster_sweep — simulated multi-node cluster serving over nodes ×
// replicas × failure-injection axes. Writes BENCH_cluster.json.
//
// One sharded index (4 shards) over a synthetic SIFT-shaped corpus is
// served through cluster::ClusterIndex under every configuration row:
// node counts 2..4, replication 1..3, each replica-selection policy, with
// and without a mid-run node crash (crash at batch 2, rejoin one batch
// later). Reports per row: recall@k, simulated QPS (network + compute +
// timeout stalls on the cluster's deterministic clock), failover/timeout
// counters, aggregator flush accounting, and per-node stats.
//
// The binary enforces the cluster determinism contract inline, so the
// fresh-run ctest gate asserts it on every build:
//  * no-fault rows must be bit-identical to single-node
//    ShardedIndex::SearchBatch at the same budget (identical_to_single_node
//    == 1, lost == 0);
//  * crash rows with replication >= 2 must lose zero sub-queries (failover
//    retries absorb the node loss) — and, because surviving replicas serve
//    the same immutable snapshots, stay bit-identical too;
//  * the observability plane (federation scrapes + alert evaluation) runs
//    on every row and must not move a single result or sim-second — the
//    identity gates above run with the plane on, and every row must cut at
//    least one federated window (scrape totals are printed, not reported:
//    the row schema matches the pre-plane baseline byte-for-byte).
//
// Every number in the results array is simulated or counted — no wall
// clock — so the file is byte-identical across runs of the same build
// (the run-twice ctest gate relies on this).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/drills.h"
#include "cluster/cluster_router.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
constexpr std::size_t kBudget = 256;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatch = 25;

struct SweepConfig {
  std::size_t nodes;
  std::size_t replication;
  cluster::ReplicaSelection selection;
  bool crash;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("cluster_sweep", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);

  serve::ShardBuildOptions build_options;
  serve::ShardedIndex index =
      serve::ShardedIndex::Build(workload.base, kShards, build_options);

  const std::vector<serve::RoutedQuery> routed =
      bench::RouteQueries(workload.queries, kK, kBudget);
  // Single-node reference rows, once: the bit-identity target of every
  // cluster configuration (same snapshots, same per-shard budget, same
  // deterministic merge).
  const bench::NeighborRows reference = bench::SearchInBatches(
      index, routed, kBatch, core::SearchKernel::kGanns);

  const SweepConfig sweep[] = {
      {2, 1, cluster::ReplicaSelection::kRoundRobin, false},
      {2, 2, cluster::ReplicaSelection::kRoundRobin, false},
      {2, 2, cluster::ReplicaSelection::kRoundRobin, true},
      {3, 2, cluster::ReplicaSelection::kLeastOutstanding, false},
      {3, 2, cluster::ReplicaSelection::kLeastOutstanding, true},
      {4, 2, cluster::ReplicaSelection::kPowerOfTwoChoices, false},
      {4, 2, cluster::ReplicaSelection::kPowerOfTwoChoices, true},
      {4, 3, cluster::ReplicaSelection::kPowerOfTwoChoices, true},
  };

  std::string json = "{\n  \"provenance\": " + bench::ProvenanceJson() +
                     ",\n  \"results\": [\n";
  bool first = true;
  for (const SweepConfig& row : sweep) {
    cluster::ClusterOptions options;
    options.num_nodes = row.nodes;
    options.replication = row.replication;
    options.selection = row.selection;
    options.seed = config.seed;
    options.faults.seed = config.seed;
    if (row.crash) {
      options.faults.crash_node = 1;
      options.faults.crash_at_batch = 2;
      options.faults.rejoin_after_batches = 1;
    }
    // The monitoring plane rides along on every row: the inline identity
    // gates below then double as the plane's no-perturbation check.
    options.federation.enabled = true;
    options.federation.scrape_interval_us = 500;
    options.federation.slo_deadline_us = 2000;

    cluster::ClusterIndex cluster_index(index, options);
    const bench::NeighborRows rows = bench::SearchInBatches(
        cluster_index, routed, kBatch, core::SearchKernel::kGanns);
    cluster_index.Shutdown();
    const bool identical = rows == reference;
    const double recall =
        data::MeanRecall(bench::NeighborIds(rows), workload.truth, kK);
    const cluster::ClusterCounters& counters = cluster_index.counters();
    const double sim_qps =
        bench::Rate(static_cast<double>(counters.served_queries),
                    cluster_index.total_sim_seconds());
    const char* fault = row.crash ? "crash" : "none";

    std::printf("nodes=%zu repl=%zu sel=%s fault=%s: recall@%zu=%.4f "
                "sim_qps=%.0f failovers=%llu timeouts=%llu lost=%llu "
                "identical=%d scrapes=%llu scrape_bytes=%llu alerts=%zu\n",
                row.nodes, row.replication,
                std::string(cluster::SelectionName(row.selection)).c_str(),
                fault, kK, recall, sim_qps,
                static_cast<unsigned long long>(counters.failovers),
                static_cast<unsigned long long>(counters.timeouts),
                static_cast<unsigned long long>(counters.lost_sub_queries),
                identical ? 1 : 0,
                static_cast<unsigned long long>(
                    cluster_index.federation()->scrapes()),
                static_cast<unsigned long long>(
                    cluster_index.federation()->scrape_bytes()),
                cluster_index.alerts()->events().size());

    // Inline contract gates (see file header).
    if (cluster_index.federation()->scrapes() == 0) {
      std::fprintf(stderr,
                   "FAIL: observability plane cut no federated window "
                   "(nodes=%zu replication=%zu)\n",
                   row.nodes, row.replication);
      return 1;
    }
    if (!row.crash && (!identical || counters.lost_sub_queries != 0)) {
      std::fprintf(stderr,
                   "FAIL: no-fault cluster diverged from single-node serving "
                   "(nodes=%zu replication=%zu)\n",
                   row.nodes, row.replication);
      return 1;
    }
    if (row.crash && row.replication >= 2 &&
        (counters.lost_sub_queries != 0 || !identical)) {
      std::fprintf(stderr,
                   "FAIL: node crash with replication %zu lost queries or "
                   "diverged (nodes=%zu)\n",
                   row.replication, row.nodes);
      return 1;
    }

    bench::Appendf(
        json,
        "%s    {\"nodes\": %zu, \"replication\": %zu, \"selection\": \"%s\", "
        "\"fault\": \"%s\",\n     \"served\": %llu, \"lost\": %llu, "
        "\"failovers\": %llu, \"timeouts\": %llu, \"retries\": %llu, "
        "\"rejoins\": %llu,\n     \"recall\": %.4f, \"sim_qps\": %.0f, "
        "\"recovery_sim_seconds\": %.6f, \"identical_to_single_node\": %d,\n",
        first ? "" : ",\n", row.nodes, row.replication,
        std::string(cluster::SelectionName(row.selection)).c_str(), fault,
        static_cast<unsigned long long>(counters.served_queries),
        static_cast<unsigned long long>(counters.lost_sub_queries),
        static_cast<unsigned long long>(counters.failovers),
        static_cast<unsigned long long>(counters.timeouts),
        static_cast<unsigned long long>(counters.retries),
        static_cast<unsigned long long>(counters.rejoins), recall, sim_qps,
        cluster_index.recovery_sim_seconds(), identical ? 1 : 0);
    json += "     \"aggregator\": " + cluster_index.AggregatorJson() + ",\n";
    json += "     \"node_stats\": " + cluster_index.NodesJson() + "}";
    first = false;
  }
  json += "\n  ]\n}\n";

  return bench::WriteReport(argc, argv, "BENCH_cluster.json", json);
}
