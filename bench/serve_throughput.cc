// serve_throughput — closed-loop load generator for the online serving
// engine.
//
// For each shard count (1, 2, 4) over one synthetic SIFT-shaped corpus,
// every query is submitted at once and the engine drains them through the
// micro-batcher at full batch size — the max-throughput operating point.
//
// Reports per configuration: recall@k, simulated QPS (shards are parallel
// simulated devices; a batch costs its slowest shard — this is the headline
// scaling number, per the two-clock rule) and the served / rejected /
// expired counts. Writes the table as JSON (argv[1], default
// BENCH_serve.json).
//
// Every number is on the simulated clock or counted, so the whole table
// reproduces bit-for-bit across runs and machines: which neighbors every
// request receives depends only on (corpus, shard graphs, query, k, budget).
// Host wall time — throughput, and latency under open-loop load — is
// measured by perfbench (`python3 perfbench/run.py --workload read-batch`,
// `--workload stream-rw`), not here.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/drills.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
// Total visited budget, split evenly over shards (each gets budget/n).
// 512 on a 100k corpus is the operating point where sharding leaves recall
// unchanged: each shard's beam still covers the same fraction of its
// (smaller) partition as the single-shard beam covers of the whole corpus,
// and independent per-shard exploration recovers what the split costs.
constexpr std::size_t kBudget = 512;

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("serve_throughput", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);
  std::printf("corpus %zu x %zud, %zu queries, k=%zu, budget=%zu\n",
              workload.base.size(), workload.base.dim(),
              workload.queries.size(), kK, kBudget);

  std::string json =
      "{\n  \"provenance\": " + bench::ProvenanceJson() + ",\n  \"results\": [\n";
  bool first = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    serve::ShardBuildOptions build_options;
    serve::ShardedIndex index =
        serve::ShardedIndex::Build(workload.base, shards, build_options);

    serve::ServeEngine engine(index, serve::ServeOptions{});
    const bench::ClosedLoopRun closed =
        bench::RunClosedLoop(engine, workload.queries, kK, kBudget);
    const double recall = data::MeanRecall(closed.ids, workload.truth, kK);
    std::printf("shards=%zu closed: recall@%zu=%.4f sim_qps=%.0f\n", shards,
                kK, recall, closed.SimQps());

    bench::Appendf(json,
                   "%s    {\"shards\": %zu,\n     \"closed\": {\"recall\": "
                   "%.4f, \"sim_qps\": %.0f, \"served\": %llu, \"rejected\": "
                   "%llu, \"expired\": %llu}}",
                   first ? "" : ",\n", shards, recall, closed.SimQps(),
                   static_cast<unsigned long long>(closed.counters.served),
                   static_cast<unsigned long long>(closed.counters.rejected),
                   static_cast<unsigned long long>(closed.counters.expired));
    first = false;
  }
  json += "\n  ]\n}\n";

  return bench::WriteReport(argc, argv, "BENCH_serve.json", json);
}
