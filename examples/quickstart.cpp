// Quickstart: build a GANNS index over a small synthetic corpus and answer
// a few k-NN queries.
//
//   ./build/examples/quickstart
//
// This is the smallest end-to-end use of the public API: generate (or load)
// a dataset, ShardedIndex::Build with one shard, ShardedIndex::SearchBatch.

#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "serve/shard_router.h"

int main() {
  using namespace ganns;

  // 1. A corpus: 5000 SIFT-like 128-dimensional image descriptors.
  //    (Real data: load it with data::ReadFvecs instead.)
  const data::DatasetSpec& spec = data::PaperDataset("SIFT1M");
  const data::Dataset corpus = data::GenerateBase(spec, 5000, /*seed=*/42);
  const data::Dataset queries =
      data::GenerateQueries(spec, 5, 5000, /*seed=*/42);

  // 2. Build the index: GGraphCon constructs an NSW graph on the simulated
  //    GPU (d_max=32, d_min=16 defaults). One shard is one GPU.
  serve::ShardedIndex index =
      serve::ShardedIndex::Build(corpus, /*num_shards=*/1, {});
  std::printf("built NSW index over %zu points in %.3f simulated GPU ms\n",
              index.size(), index.build_sim_seconds() * 1e3);

  // 3. Search: one thread block per query, k = 5, visited budget 64.
  std::vector<serve::RoutedQuery> batch(queries.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    batch[q].query = queries.Point(static_cast<VertexId>(q));
    batch[q].k = 5;
    batch[q].budget = 64;
  }
  serve::RouteStats stats;
  const auto results =
      index.SearchBatch(batch, core::SearchKernel::kGanns, &stats);
  std::printf("searched %zu queries at %.0f simulated QPS\n\n", queries.size(),
              static_cast<double>(queries.size()) / stats.sim_seconds);

  for (std::size_t q = 0; q < results.size(); ++q) {
    std::printf("query %zu nearest neighbors:", q);
    for (const auto& neighbor : results[q]) {
      std::printf("  #%u (dist %.3f)", neighbor.id, neighbor.dist);
    }
    std::printf("\n");
  }
  return 0;
}
