// Tests for the runtime-dispatched SIMD distance layer (data/distance.h).
//
// The determinism contract: every kernel variant (scalar, SSE2, AVX2, NEON)
// partitions elements into kDistanceStripes accumulators by index modulo the
// stripe count and folds them through the same fixed combine tree, with FP
// contraction disabled on every kernel translation unit. So all variants must
// return *bit-identical* results on any input — not merely close ones — and
// the whole-pipeline outputs (brute-force truth, GANNS search results, and
// simulated cycle counts) must not depend on which variant the dispatcher
// picked.
//
// This binary is registered with ctest twice: once in auto-dispatch mode and
// once under GANNS_DISTANCE_KERNEL=scalar, so the env-forced path gets the
// same coverage as the default one.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ganns_search.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"

namespace ganns {
namespace data {
namespace {

/// Restores the dispatcher state a test mutated via SetDistanceKernel.
class DistanceKernelTest : public ::testing::Test {
 protected:
  void SetUp() override { initial_ = ActiveDistanceKernel(); }
  void TearDown() override { ASSERT_TRUE(SetDistanceKernel(initial_)); }

  DistanceKernel initial_ = DistanceKernel::kScalar;
};

std::vector<float> RandomVector(Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextUniform(-2.0f, 2.0f);
  return v;
}

TEST_F(DistanceKernelTest, ScalarAlwaysSupported) {
  const auto kernels = SupportedDistanceKernels();
  ASSERT_FALSE(kernels.empty());
  // The list is ordered best-first, but scalar must always be present.
  EXPECT_NE(std::find(kernels.begin(), kernels.end(), DistanceKernel::kScalar),
            kernels.end());
  for (const DistanceKernel k : kernels) {
    EXPECT_TRUE(SetDistanceKernel(k)) << DistanceKernelName(k);
    EXPECT_EQ(ActiveDistanceKernel(), k);
  }
}

// Every supported variant must agree bitwise with the scalar kernel on every
// dimension from 1 to 257 — covering empty-tail (multiples of 8), every
// possible tail length, and sub-stripe vectors (dim < 8).
TEST_F(DistanceKernelTest, AllVariantsBitIdenticalToScalar) {
  Rng rng(20260805);
  const auto kernels = SupportedDistanceKernels();
  for (std::size_t dim = 1; dim <= 257; ++dim) {
    const std::vector<float> a = RandomVector(rng, dim);
    const std::vector<float> b = RandomVector(rng, dim);
    for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
      ASSERT_TRUE(SetDistanceKernel(DistanceKernel::kScalar));
      const Dist want = ComputeDistance(metric, a.data(), b.data(), dim);
      for (const DistanceKernel k : kernels) {
        ASSERT_TRUE(SetDistanceKernel(k));
        const Dist got = ComputeDistance(metric, a.data(), b.data(), dim);
        // Bitwise comparison: NaN-safe and stricter than ==(-0.0, 0.0).
        EXPECT_EQ(std::memcmp(&want, &got, sizeof(Dist)), 0)
            << DistanceKernelName(k) << " dim=" << dim
            << " metric=" << (metric == Metric::kL2 ? "l2" : "cos")
            << " want=" << want << " got=" << got;
      }
    }
  }
}

// DistanceMany / DistanceRange read the padded, aligned dataset rows; their
// output must match per-pair ComputeDistance on the unpadded logical rows,
// for dimensions whose padded tail is non-empty.
TEST_F(DistanceKernelTest, BatchedMatchesPairwiseOnPaddedRows) {
  Rng rng(7);
  for (const std::size_t dim : {1u, 3u, 7u, 8u, 13u, 96u, 100u}) {
    for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
      Dataset base("pad", dim, metric);
      const std::size_t n = 33;
      for (std::size_t i = 0; i < n; ++i) base.Append(RandomVector(rng, dim));
      EXPECT_EQ(base.padded_dim() % Dataset::kRowAlignFloats, 0u);
      EXPECT_GE(base.padded_dim(), base.dim());

      const std::vector<float> query = RandomVector(rng, dim);
      std::vector<VertexId> ids;
      for (std::size_t i = 0; i < n; i += 3) {
        ids.push_back(static_cast<VertexId>(n - 1 - i));
      }
      for (const DistanceKernel k : SupportedDistanceKernels()) {
        ASSERT_TRUE(SetDistanceKernel(k));
        std::vector<Dist> many(ids.size());
        DistanceMany(base, ids, query, many);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          const Dist want = ComputeDistance(metric, base.Point(ids[i]).data(),
                                            query.data(), dim);
          EXPECT_EQ(std::memcmp(&want, &many[i], sizeof(Dist)), 0)
              << DistanceKernelName(k) << " dim=" << dim << " i=" << i;
        }
        std::vector<Dist> range(n);
        DistanceRange(base, 0, n, query, range);
        for (std::size_t v = 0; v < n; ++v) {
          const Dist want = ComputeDistance(
              metric, base.Point(static_cast<VertexId>(v)).data(),
              query.data(), dim);
          EXPECT_EQ(std::memcmp(&want, &range[v], sizeof(Dist)), 0)
              << DistanceKernelName(k) << " dim=" << dim << " v=" << v;
        }
      }
    }
  }
}

// Padding floats must stay zero after appends so kernels may safely read the
// full padded stripe width when convenient.
TEST_F(DistanceKernelTest, DatasetPaddingIsZero) {
  Rng rng(3);
  Dataset base("pad", 5, Metric::kL2);
  for (std::size_t i = 0; i < 9; ++i) base.Append(RandomVector(rng, 5));
  const float* rows = base.row_data();
  for (std::size_t i = 0; i < base.size(); ++i) {
    for (std::size_t j = base.dim(); j < base.padded_dim(); ++j) {
      EXPECT_EQ(rows[i * base.padded_dim() + j], 0.0f) << i << "," << j;
    }
  }
}

// Whole-pipeline regression: brute-force truth, GANNS search results, recall,
// and the simulated cycle counts must be identical under every kernel
// variant. This is the "host-side-only optimization" guarantee — SIMD choice
// may change wall-clock time but never the simulated device behaviour.
TEST_F(DistanceKernelTest, SearchPipelineInvariantAcrossKernels) {
  const Dataset base =
      GenerateBase(PaperDataset("SIFT1M"), 600, /*seed=*/11);
  const Dataset queries =
      GenerateQueries(PaperDataset("SIFT1M"), 20, 600, /*seed=*/11);

  core::GannsParams params;
  params.k = 10;
  params.l_n = 64;

  ASSERT_TRUE(SetDistanceKernel(DistanceKernel::kScalar));
  const GroundTruth scalar_truth = BruteForceKnn(base, queries, params.k);
  const graph::CpuBuildResult scalar_built = graph::BuildNswCpu(base, {});
  gpusim::Device scalar_device;
  const graph::BatchSearchResult scalar_batch = core::GannsSearchBatch(
      scalar_device, scalar_built.graph, base, queries, params);
  const double scalar_recall =
      MeanRecall(scalar_batch.results, scalar_truth, params.k);

  for (const DistanceKernel k : SupportedDistanceKernels()) {
    SCOPED_TRACE(DistanceKernelName(k));
    ASSERT_TRUE(SetDistanceKernel(k));

    const GroundTruth truth = BruteForceKnn(base, queries, params.k);
    ASSERT_EQ(truth.neighbors, scalar_truth.neighbors);

    const graph::CpuBuildResult built = graph::BuildNswCpu(base, {});
    ASSERT_EQ(built.search_stats.distance_computations,
              scalar_built.search_stats.distance_computations);
    EXPECT_EQ(built.sim_seconds, scalar_built.sim_seconds);

    gpusim::Device device;
    const graph::BatchSearchResult batch =
        core::GannsSearchBatch(device, built.graph, base, queries, params);
    EXPECT_EQ(batch.results, scalar_batch.results);
    EXPECT_EQ(batch.kernel.sim_cycles, scalar_batch.kernel.sim_cycles);
    EXPECT_EQ(batch.kernel.work_total(), scalar_batch.kernel.work_total());
    EXPECT_EQ(batch.sim_seconds, scalar_batch.sim_seconds);
    EXPECT_EQ(MeanRecall(batch.results, truth, params.k), scalar_recall);
  }
}

}  // namespace
}  // namespace data
}  // namespace ganns
