// Tests for the host distance kernels (data/distance.h and the internal
// data/distance_kernels.h).
//
// The determinism contract: both kernel sets — the portable one and the AVX2
// one — partition elements into kDistanceStripes accumulators by index
// modulo the stripe count and fold them through the same fixed combine tree,
// with FP contraction disabled on both kernel translation units. So the two
// sets must return *bit-identical* results on any input — not merely close
// ones — and the whole-pipeline outputs (brute-force truth, GANNS search
// results, and simulated cycle counts) must not depend on which set the CPU
// picked.
//
// Every case reaches both sets through the internal header, so one ctest
// registration covers both. On a CPU without AVX2 the portable half runs and
// the AVX2 half reports itself skipped.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ganns_search.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/distance_kernels.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"

namespace ganns {
namespace data {
namespace {

using internal::KernelSet;

constexpr const char* kNoAvx2 =
    "this CPU (or build) has no AVX2 kernel set; only the portable set ran";

std::vector<float> RandomVector(Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextUniform(-2.0f, 2.0f);
  return v;
}

/// Bitwise float equality: NaN-safe and stricter than ==(-0.0, 0.0).
bool SameBits(Dist a, Dist b) { return std::memcmp(&a, &b, sizeof(Dist)) == 0; }

/// Whether the active set holds exactly the kernels of `set`.
bool IsActive(const KernelSet& set) {
  const KernelSet& active = internal::ActiveKernels();
  return active.l2 == set.l2 && active.dot == set.dot &&
         active.sq8_l2 == set.sq8_l2 && active.sq8_dot == set.sq8_dot;
}

// The CPU picks the set: AVX2 whenever the CPU has it, else portable.
TEST(KernelSetTest, ActiveSetIsPickedByCpu) {
  const KernelSet* avx2 = internal::Avx2Kernels();
  const KernelSet& want = avx2 != nullptr ? *avx2 : internal::kPortableKernels;
  EXPECT_TRUE(IsActive(want)) << internal::ActiveKernels().name;
  {
    const internal::ScopedKernelSet portable(internal::kPortableKernels);
    EXPECT_TRUE(IsActive(internal::kPortableKernels));
  }
  EXPECT_TRUE(IsActive(want));
}

// The AVX2 set must agree bitwise with the portable set on every dimension
// from 1 to 257 — covering empty-tail (multiples of 8), every possible tail
// length, and sub-stripe vectors (dim < 8) — for all four kernels.
TEST(KernelSetTest, Avx2BitIdenticalToPortable) {
  const KernelSet* avx2 = internal::Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << kNoAvx2;
  const KernelSet& portable = internal::kPortableKernels;
  Rng rng(20260805);
  for (std::size_t dim = 1; dim <= 257; ++dim) {
    const std::vector<float> a = RandomVector(rng, dim);
    const std::vector<float> b = RandomVector(rng, dim);
    std::vector<std::uint8_t> code(dim);
    std::vector<float> min(dim);
    std::vector<float> scale(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      code[i] = static_cast<std::uint8_t>(rng.NextBounded(256));
      min[i] = rng.NextUniform(-2.0f, 0.0f);
      scale[i] = rng.NextUniform(0.0f, 4.0f / 255.0f);
    }
    const struct {
      const char* kernel;
      Dist want;
      Dist got;
    } cases[] = {
        {"l2", portable.l2(a.data(), b.data(), dim),
         avx2->l2(a.data(), b.data(), dim)},
        {"dot", portable.dot(a.data(), b.data(), dim),
         avx2->dot(a.data(), b.data(), dim)},
        {"sq8_l2",
         portable.sq8_l2(a.data(), code.data(), min.data(), scale.data(), dim),
         avx2->sq8_l2(a.data(), code.data(), min.data(), scale.data(), dim)},
        {"sq8_dot",
         portable.sq8_dot(a.data(), code.data(), min.data(), scale.data(),
                          dim),
         avx2->sq8_dot(a.data(), code.data(), min.data(), scale.data(), dim)},
    };
    for (const auto& c : cases) {
      EXPECT_TRUE(SameBits(c.want, c.got))
          << c.kernel << " dim=" << dim << " want=" << c.want
          << " got=" << c.got;
    }
  }
}

// DistanceMany / DistanceRange read the padded, aligned dataset rows; under
// either set their output must match the portable pairwise kernel on the
// unpadded logical rows, for dimensions whose padded tail is non-empty.
TEST(KernelSetTest, BatchedMatchesPortableOnPaddedRows) {
  std::vector<const KernelSet*> sets = {&internal::kPortableKernels};
  if (internal::Avx2Kernels() != nullptr) {
    sets.push_back(internal::Avx2Kernels());
  }
  Rng rng(7);
  for (const std::size_t dim : {1u, 3u, 7u, 8u, 13u, 96u, 100u}) {
    for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
      Dataset base("pad", dim, metric);
      const std::size_t n = 33;
      for (std::size_t i = 0; i < n; ++i) base.Append(RandomVector(rng, dim));
      EXPECT_EQ(base.padded_dim() % Dataset::kRowAlignFloats, 0u);
      EXPECT_GE(base.padded_dim(), base.dim());

      const std::vector<float> query = RandomVector(rng, dim);
      const auto want = [&](VertexId v) {
        const float* row = base.Point(v).data();
        return metric == Metric::kL2
                   ? internal::kPortableKernels.l2(row, query.data(), dim)
                   : 1.0f - internal::kPortableKernels.dot(row, query.data(),
                                                           dim);
      };
      std::vector<VertexId> ids;
      for (std::size_t i = 0; i < n; i += 3) {
        ids.push_back(static_cast<VertexId>(n - 1 - i));
      }
      for (const KernelSet* set : sets) {
        const internal::ScopedKernelSet scoped(*set);
        std::vector<Dist> many(ids.size());
        DistanceMany(base, ids, query, many);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          EXPECT_TRUE(SameBits(want(ids[i]), many[i]))
              << set->name << " dim=" << dim << " i=" << i;
        }
        std::vector<Dist> range(n);
        DistanceRange(base, 0, n, query, range);
        for (std::size_t v = 0; v < n; ++v) {
          EXPECT_TRUE(SameBits(want(static_cast<VertexId>(v)), range[v]))
              << set->name << " dim=" << dim << " v=" << v;
        }
      }
    }
  }
  if (sets.size() == 1) GTEST_SKIP() << kNoAvx2;
}

// Padding floats must stay zero after appends so kernels may safely read the
// full padded stripe width when convenient.
TEST(KernelSetTest, DatasetPaddingIsZero) {
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
// and the simulated cycle counts must be identical under both kernel sets.
// This is the "host-side-only optimization" guarantee — the kernel set may
// change wall-clock time but never the simulated device behaviour.
TEST(KernelSetTest, SearchPipelineInvariantAcrossKernelSets) {
  const Dataset base =
      GenerateBase(PaperDataset("SIFT1M"), 600, /*seed=*/11);
  const Dataset queries =
      GenerateQueries(PaperDataset("SIFT1M"), 20, 600, /*seed=*/11);

  core::GannsParams params;
  params.k = 10;
  params.l_n = 64;

  struct Run {
    GroundTruth truth;
    graph::CpuBuildResult built;
    graph::BatchSearchResult batch;
    double recall = 0;
  };
  const auto run_under = [&](const KernelSet& set) {
    const internal::ScopedKernelSet scoped(set);
    GroundTruth truth = BruteForceKnn(base, queries, params.k);
    graph::CpuBuildResult built = graph::BuildNswCpu(base, {});
    gpusim::Device device;
    graph::BatchSearchResult batch =
        core::GannsSearchBatch(device, built.graph, base, queries, params);
    const double recall = MeanRecall(batch.results, truth, params.k);
    return Run{std::move(truth), std::move(built), std::move(batch), recall};
  };

  const Run portable = run_under(internal::kPortableKernels);
  EXPECT_GT(portable.recall, 0.9);
  const KernelSet* avx2 = internal::Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << kNoAvx2;
  const Run fast = run_under(*avx2);

  ASSERT_EQ(fast.truth.neighbors, portable.truth.neighbors);
  ASSERT_EQ(fast.built.search_stats.distance_computations,
            portable.built.search_stats.distance_computations);
  EXPECT_EQ(fast.built.sim_seconds, portable.built.sim_seconds);
  EXPECT_EQ(fast.batch.results, portable.batch.results);
  EXPECT_EQ(fast.batch.kernel.sim_cycles, portable.batch.kernel.sim_cycles);
  EXPECT_EQ(fast.batch.kernel.work_total(),
            portable.batch.kernel.work_total());
  EXPECT_EQ(fast.batch.sim_seconds, portable.batch.sim_seconds);
  EXPECT_EQ(fast.recall, portable.recall);
}

}  // namespace
}  // namespace data
}  // namespace ganns
