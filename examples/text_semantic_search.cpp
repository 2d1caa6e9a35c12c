// Semantic text retrieval over word/document embeddings with the cosine
// metric — the NYTimes / GloVe200 scenario of the paper, served from a
// hierarchical (HNSW) index.
//
//   ./build/examples/text_semantic_search
//
// Demonstrates:
//   * cosine-metric corpora (vectors are normalized; the kernels then use
//     1 - dot as the distance),
//   * the HNSW index kind: a greedy multi-layer descent picks a per-query
//     entry vertex before the GANNS kernel searches the bottom layer,
//   * interpreting distances back as similarity scores.

#include <cstdio>
#include <vector>

#include "data/synthetic.h"
#include "serve/shard_router.h"

namespace {

constexpr std::size_t kCorpusSize = 6000;
constexpr std::size_t kK = 5;

}  // namespace

int main() {
  using namespace ganns;

  // Embedding corpus: GloVe-like 200-d vectors under cosine similarity.
  const data::DatasetSpec& spec = data::PaperDataset("GloVe200");
  const data::Dataset corpus = data::GenerateBase(spec, kCorpusSize, 21);
  const data::Dataset queries =
      data::GenerateQueries(spec, 8, kCorpusSize, 21);

  serve::ShardBuildOptions options;
  options.kind = core::GraphKind::kHnsw;  // hierarchical: zoom-in then beam
  serve::ShardedIndex index = serve::ShardedIndex::Build(corpus, 1, options);
  std::printf(
      "HNSW index over %zu embeddings built in %.2f simulated GPU ms\n\n",
      index.size(), index.build_sim_seconds() * 1e3);

  std::vector<serve::RoutedQuery> batch(queries.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    batch[q].query = queries.Point(static_cast<VertexId>(q));
    batch[q].k = kK;
  }
  serve::RouteStats stats;
  const auto results =
      index.SearchBatch(batch, core::SearchKernel::kGanns, &stats);
  for (std::size_t q = 0; q < results.size(); ++q) {
    std::printf("query embedding %zu -> top-%zu documents:\n", q, kK);
    for (const auto& neighbor : results[q]) {
      // Cosine distance = 1 - cos; report the similarity users expect.
      std::printf("    doc #%-6u cosine similarity %.4f\n", neighbor.id,
                  1.0f - neighbor.dist);
    }
  }
  std::printf("\nbatch served at %.0f simulated QPS\n",
              static_cast<double>(queries.size()) / stats.sim_seconds);
  return 0;
}
