// Tests for the visited-structure variants behind SONG's candidates
// locating stage (§III-A design space).

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "song/song_search.h"
#include "song/visited.h"

namespace ganns {
namespace song {
namespace {

gpusim::CostParams Params() { return gpusim::CostParams{}; }

TEST(VisitedSetTest, HashBoundedSupportsRemoval) {
  auto set = MakeVisitedSet(VisitedKind::kHashBounded, 16, 1000, Params());
  EXPECT_TRUE(set->Insert(5));
  EXPECT_FALSE(set->Insert(5));
  set->Remove(5);
  EXPECT_TRUE(set->Insert(5));  // forgotten, re-insertable
  EXPECT_GT(set->cycles(), 0);
}

TEST(VisitedSetTest, HashUnboundedIgnoresRemoval) {
  auto set = MakeVisitedSet(VisitedKind::kHashUnbounded, 16, 1000, Params());
  EXPECT_TRUE(set->Insert(5));
  set->Remove(5);
  EXPECT_FALSE(set->Insert(5));  // still remembered
}

TEST(VisitedSetTest, BitmapIsExactOverUniverse) {
  auto set = MakeVisitedSet(VisitedKind::kBitmap, 16, 4096, Params());
  Rng rng(3);
  std::vector<bool> reference(4096, false);
  for (int i = 0; i < 10000; ++i) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(4096));
    const bool fresh = !reference[v];
    reference[v] = true;
    EXPECT_EQ(set->Insert(v), fresh);
  }
}

TEST(VisitedSetTest, BitmapProbesCostMoreThanHashProbes) {
  // Both sized for the stream, so the hash never rebuilds and the per-probe
  // prices are compared directly.
  auto bitmap = MakeVisitedSet(VisitedKind::kBitmap, 128, 4096, Params());
  auto hash = MakeVisitedSet(VisitedKind::kHashBounded, 128, 4096, Params());
  for (VertexId v = 0; v < 100; ++v) {
    bitmap->Insert(v);
    hash->Insert(v);
  }
  // The uncoalesced global accesses make the bitmap the expensive option —
  // the paper's reason for rejecting it.
  EXPECT_GT(bitmap->cycles(), 2 * hash->cycles());
}

TEST(VisitedSetTest, BloomNeverForgetsAndHasLowFalsePositiveRate) {
  auto set = MakeVisitedSet(VisitedKind::kBloom, 64, 1 << 20, Params());
  // No false negatives: everything inserted is remembered.
  for (VertexId v = 0; v < 200; ++v) {
    set->Insert(v * 97 + 13);
  }
  std::size_t repeated_fresh = 0;
  for (VertexId v = 0; v < 200; ++v) {
    if (set->Insert(v * 97 + 13)) ++repeated_fresh;
  }
  EXPECT_EQ(repeated_fresh, 0u);

  // False positives are rare while the stream stays within the sizing hint.
  // (Insert fills the filter as it probes, so the whole stream counts
  // toward the fill level — the saturation drawback of using a bloom filter
  // as a long search's visited set.)
  auto sized_set = MakeVisitedSet(VisitedKind::kBloom, 600, 1 << 20, Params());
  std::size_t false_positives = 0;
  for (VertexId v = 0; v < 600; ++v) {
    if (!sized_set->Insert(v * 131 + 7)) ++false_positives;
  }
  EXPECT_LT(false_positives, 30u);  // < 5% over 600 distinct inserts
}

TEST(VisitedSetTest, SongRunsWithEveryVariant) {
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 600, 5);
  const data::Dataset queries =
      data::GenerateQueries(data::PaperDataset("SIFT1M"), 20, 600, 5);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, 10);
  const graph::CpuBuildResult built = graph::BuildNswCpu(base, {});
  gpusim::Device device;

  for (const VisitedKind kind :
       {VisitedKind::kHashBounded, VisitedKind::kHashUnbounded,
        VisitedKind::kBloom, VisitedKind::kBitmap}) {
    SongParams params;
    params.k = 10;
    params.queue_size = 64;
    params.visited = kind;
    const auto batch = SongSearchBatch(device, built.graph, base, queries,
                                       params);
    EXPECT_GE(data::MeanRecall(batch.results, truth, 10), 0.7)
        << VisitedKindName(kind);
  }
}

TEST(VisitedSetTest, UnboundedHashComputesFewerDistancesThanBounded) {
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 5);
  const graph::CpuBuildResult built = graph::BuildNswCpu(base, {});
  gpusim::Device device;

  std::uint64_t bounded_distances = 0;
  std::uint64_t unbounded_distances = 0;
  for (VertexId q = 0; q < 20; ++q) {
    SongParams params;
    params.k = 10;
    params.queue_size = 64;
    SongQueryProfile profile;
    gpusim::BlockContext block_a(0, 32, 48 * 1024, &device.spec().cost);
    SongSearchOne(block_a, built.graph, base, base.Point(q), params, 0,
                  &profile);
    bounded_distances += profile.distance_computations;
    params.visited = VisitedKind::kHashUnbounded;
    gpusim::BlockContext block_b(0, 32, 48 * 1024, &device.spec().cost);
    SongSearchOne(block_b, built.graph, base, base.Point(q), params, 0,
                  &profile);
    unbounded_distances += profile.distance_computations;
  }
  // Forgetting evictees (bounded) forces re-computation.
  EXPECT_GT(bounded_distances, unbounded_distances);
}

}  // namespace
}  // namespace song
}  // namespace ganns
