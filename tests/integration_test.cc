// Cross-module integration tests: the full pipeline (synthetic corpus ->
// GPU construction -> GPU search -> recall against exact ground truth) on a
// representative slice of Table I, both metrics, both graph kinds, plus
// structural health checks on every built graph.

#include <gtest/gtest.h>

#include "core/ganns_search.h"
#include "core/ggraphcon.h"
#include "core/hnsw_gpu.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/diagnostics.h"

namespace ganns {
namespace {

struct PipelineCase {
  const char* dataset;
  double min_recall;
};

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, BuildSearchReachesRecallAndGraphIsHealthy) {
  const auto [dataset, min_recall] = GetParam();
  const data::DatasetSpec& spec = data::PaperDataset(dataset);
  const std::size_t n = 1200;
  const data::Dataset base = data::GenerateBase(spec, n, 21);
  const data::Dataset queries = data::GenerateQueries(spec, 30, n, 21);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, 10);

  gpusim::Device device;
  core::GpuBuildParams params;
  params.num_groups = 12;
  const core::GpuBuildResult built =
      core::BuildNswGGraphCon(device, base, params);

  // Structural health: fully reachable, no sinks beyond group seeds, bounded
  // degrees.
  const graph::GraphDiagnostics diag = graph::Diagnose(built.graph, 0);
  EXPECT_GE(diag.reachable_fraction, 0.999);
  EXPECT_LE(diag.max_out_degree, params.nsw.d_max);
  EXPECT_GE(diag.mean_out_degree, static_cast<double>(params.nsw.d_min));

  core::GannsParams search;
  search.k = 10;
  search.l_n = 64;
  const auto batch =
      core::GannsSearchBatch(device, built.graph, base, queries, search);
  EXPECT_GE(data::MeanRecall(batch.results, truth, 10), min_recall)
      << dataset;
}

INSTANTIATE_TEST_SUITE_P(
    TableISlice, PipelineTest,
    ::testing::Values(PipelineCase{"SIFT1M", 0.85},
                      PipelineCase{"GIST", 0.85},
                      PipelineCase{"NYTimes", 0.70},   // hard: skewed cosine
                      PipelineCase{"GloVe200", 0.70},  // hard: skewed cosine
                      PipelineCase{"UKBench", 0.90},   // easy near-duplicates
                      PipelineCase{"SIFT10M", 0.80}));

TEST(IntegrationTest, HnswIndexOutperformsRandomEntryOnDescent) {
  // The hierarchical descent must find a better layer-0 entry than the
  // default vertex 0 for far-away queries, measurably reducing iterations.
  const data::DatasetSpec& spec = data::PaperDataset("SIFT1M");
  const std::size_t n = 2000;
  const data::Dataset base = data::GenerateBase(spec, n, 24);
  const data::Dataset queries = data::GenerateQueries(spec, 25, n, 24);

  gpusim::Device device;
  graph::HnswParams hnsw;
  core::GpuBuildParams params;
  params.num_groups = 12;
  const core::GpuHnswBuildResult built =
      core::BuildHnswGGraphCon(device, base, hnsw, params);

  double with_descent = 0;
  double from_zero = 0;
  core::GannsParams search;
  search.k = 10;
  search.l_n = 64;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const VertexId entry =
        built.graph.DescendToLayer0(base, queries.Point(q));
    core::GannsQueryProfile profile;
    gpusim::BlockContext block_a(0, 32, 48 * 1024, &device.spec().cost);
    core::GannsSearchOne(block_a, built.graph.layer(0), base,
                         queries.Point(q), search, entry, &profile);
    with_descent += profile.distance_computations;
    gpusim::BlockContext block_b(0, 32, 48 * 1024, &device.spec().cost);
    core::GannsSearchOne(block_b, built.graph.layer(0), base,
                         queries.Point(q), search, 0, &profile);
    from_zero += profile.distance_computations;
  }
  // The zoom-in shortens or equals the bottom-layer search path.
  EXPECT_LE(with_descent, from_zero * 1.05);
}

TEST(IntegrationTest, DiagnoseReportsDisconnection) {
  graph::ProximityGraph g(10, 2);
  g.InsertNeighbor(0, 1, 1.0f);
  g.InsertNeighbor(1, 0, 1.0f);  // component {0,1}; vertices 2..9 isolated
  const graph::GraphDiagnostics diag = graph::Diagnose(g, 0);
  EXPECT_EQ(diag.num_edges, 2u);
  EXPECT_DOUBLE_EQ(diag.reachable_fraction, 0.2);
  EXPECT_EQ(diag.sinks, 8u);
  EXPECT_EQ(diag.min_out_degree, 0u);
  EXPECT_EQ(diag.max_out_degree, 1u);
}

}  // namespace
}  // namespace ganns
