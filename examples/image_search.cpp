// Image similarity search — the workload the paper's introduction motivates
// (recommendation / retrieval over image descriptors).
//
//   ./build/examples/image_search
//
// Demonstrates the full production loop on an L2 descriptor corpus:
//   * build once on the (simulated) GPU,
//   * persist the index to disk and reload it,
//   * answer query batches at several accuracy/throughput operating points
//     by sweeping the visited budget, reporting measured recall against
//     exact search.

#include <cstdio>
#include <string>
#include <vector>

#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "serve/shard_router.h"

namespace {

constexpr std::size_t kCorpusSize = 8000;
constexpr std::size_t kNumQueries = 100;
constexpr std::size_t kK = 10;

double Recall(const std::vector<std::vector<ganns::graph::Neighbor>>& rows,
              const ganns::data::GroundTruth& truth) {
  std::vector<std::vector<ganns::VertexId>> ids(rows.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    for (const auto& n : rows[q]) ids[q].push_back(n.id);
  }
  return ganns::data::MeanRecall(ids, truth, kK);
}

}  // namespace

int main() {
  using namespace ganns;

  // Descriptor corpus: SIFT-like 128-d vectors, Euclidean metric.
  const data::DatasetSpec& spec = data::PaperDataset("SIFT1M");
  const data::Dataset corpus = data::GenerateBase(spec, kCorpusSize, 7);
  const data::Dataset queries =
      data::GenerateQueries(spec, kNumQueries, kCorpusSize, 7);

  // Exact answers, for measuring what the index trades away.
  const data::GroundTruth truth = data::BruteForceKnn(corpus, queries, kK);

  // Build and persist (one shard: the whole corpus on one simulated GPU).
  const serve::ShardBuildOptions options;
  const serve::ShardedIndex built =
      serve::ShardedIndex::Build(corpus, 1, options);
  std::printf("index built in %.2f simulated GPU ms\n",
              built.build_sim_seconds() * 1e3);

  // Written to the working directory as ganns_image_index.shard0.
  const std::string prefix = "ganns_image_index";
  if (!built.SaveShards(prefix)) {
    std::fprintf(stderr, "failed to save index to %s.shard0\n",
                 prefix.c_str());
    return 1;
  }

  // A fresh process would reload like this (the corpus is supplied by the
  // caller; the shard file holds the graph and the vectors).
  std::string error;
  auto index = serve::ShardedIndex::LoadShards(
      prefix, data::GenerateBase(spec, kCorpusSize, 7), 1, options, &error);
  if (!index.has_value()) {
    std::fprintf(stderr, "failed to load index: %s\n", error.c_str());
    return 1;
  }
  std::printf("index reloaded from %s.shard0\n\n", prefix.c_str());

  // Serve the same query batch at three operating points: the visited
  // budget trades exploration for throughput at a fixed graph.
  std::printf("%10s %10s %14s\n", "budget", "recall@10", "simulated QPS");
  for (const std::size_t budget : {32, 64, 128}) {
    std::vector<serve::RoutedQuery> batch(queries.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      batch[q].query = queries.Point(static_cast<VertexId>(q));
      batch[q].k = kK;
      batch[q].budget = budget;
    }
    serve::RouteStats stats;
    const auto rows =
        index->SearchBatch(batch, core::SearchKernel::kGanns, &stats);
    std::printf("%10zu %10.3f %14.0f\n", budget, Recall(rows, truth),
                static_cast<double>(queries.size()) / stats.sim_seconds);
  }
  return 0;
}
