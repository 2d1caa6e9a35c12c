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
#include <future>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "serve/serve_engine.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
// Total visited budget, split evenly over shards (each gets budget/n).
// 512 on a 100k corpus is the operating point where sharding leaves recall
// unchanged: each shard's beam still covers the same fraction of its
// (smaller) partition as the single-shard beam covers of the whole corpus,
// and independent per-shard exploration recovers what the split costs.
constexpr std::size_t kBudget = 512;

struct LoopResult {
  double recall = 0;
  double sim_qps = 0;
  std::uint64_t served = 0, rejected = 0, expired = 0;
};

/// Submits every query at once, drains the engine, and folds the responses
/// into a LoopResult.
LoopResult RunClosedLoop(serve::ShardedIndex& index,
                         const bench::Workload& workload) {
  serve::ServeEngine engine(index, serve::ServeOptions{});
  engine.Start();

  const std::size_t num_queries = workload.queries.size();
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    serve::QueryRequest request;
    request.id = q;
    const auto point = workload.queries.Point(static_cast<VertexId>(q));
    request.query.assign(point.begin(), point.end());
    request.k = kK;
    request.budget = kBudget;
    futures.push_back(engine.Submit(std::move(request)));
  }

  std::vector<std::vector<VertexId>> ids(num_queries);
  for (auto& future : futures) {
    serve::QueryResponse response = future.get();
    if (response.status != serve::StatusCode::kOk) continue;
    for (const auto& neighbor : response.neighbors) {
      ids[response.id].push_back(neighbor.id);
    }
  }
  engine.Shutdown();

  const serve::ServeCounters counters = engine.counters();
  LoopResult result;
  result.served = counters.served;
  result.rejected = counters.rejected;
  result.expired = counters.expired;
  result.recall = data::MeanRecall(ids, workload.truth, kK);
  const double sim_seconds = engine.total_sim_seconds();
  result.sim_qps = sim_seconds > 0
                       ? static_cast<double>(counters.served) / sim_seconds
                       : 0.0;
  return result;
}

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

    const LoopResult closed = RunClosedLoop(index, workload);
    std::printf("shards=%zu closed: recall@%zu=%.4f sim_qps=%.0f\n", shards,
                kK, closed.recall, closed.sim_qps);

    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s    {\"shards\": %zu,\n     \"closed\": {\"recall\": "
                  "%.4f, \"sim_qps\": %.0f, \"served\": %llu, \"rejected\": "
                  "%llu, \"expired\": %llu}}",
                  first ? "" : ",\n", shards, closed.recall, closed.sim_qps,
                  static_cast<unsigned long long>(closed.served),
                  static_cast<unsigned long long>(closed.rejected),
                  static_cast<unsigned long long>(closed.expired));
    json += row;
    first = false;
  }
  json += "\n  ]\n}\n";

  const std::string out = argc > 1 ? argv[1] : "BENCH_serve.json";
  std::FILE* file = std::fopen(out.c_str(), "w");
  if (file == nullptr ||
      std::fwrite(json.data(), 1, json.size(), file) != json.size()) {
    if (file != nullptr) std::fclose(file);
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::fclose(file);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
