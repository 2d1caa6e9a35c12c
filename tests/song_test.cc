// Unit and property tests for the SONG baseline: the min-max heap, the
// bounded max-heap, the open-addressing hash set, and the three-stage
// search kernel's equivalence with the CPU reference search.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "song/bounded_max_heap.h"
#include "song/minmax_heap.h"
#include "song/open_hash.h"
#include "song/song_search.h"

namespace ganns {
namespace song {
namespace {

graph::Neighbor N(float dist, VertexId id) { return {dist, id}; }

TEST(MinMaxHeapTest, MinAndMaxTrackExtremes) {
  MinMaxHeap heap(10);
  heap.InsertBounded(N(5, 1));
  heap.InsertBounded(N(1, 2));
  heap.InsertBounded(N(9, 3));
  heap.InsertBounded(N(3, 4));
  EXPECT_EQ(heap.Min().id, 2u);
  EXPECT_EQ(heap.Max().id, 3u);
  heap.PopMin();
  EXPECT_EQ(heap.Min().id, 4u);
  heap.PopMax();
  EXPECT_EQ(heap.Max().id, 1u);
  EXPECT_EQ(heap.size(), 2u);
}

TEST(MinMaxHeapTest, BoundedInsertEvictsMaxOnlyWhenBetter) {
  MinMaxHeap heap(3);
  heap.InsertBounded(N(1, 1));
  heap.InsertBounded(N(2, 2));
  heap.InsertBounded(N(3, 3));
  EXPECT_TRUE(heap.full());
  // Worse than the max: rejected.
  EXPECT_FALSE(heap.InsertBounded(N(4, 4)));
  EXPECT_EQ(heap.Max().id, 3u);
  // Better than the max: replaces it.
  EXPECT_TRUE(heap.InsertBounded(N(1.5f, 5)));
  EXPECT_EQ(heap.Max().id, 2u);
  EXPECT_EQ(heap.size(), 3u);
}

TEST(MinMaxHeapTest, OpsCounterGrows) {
  MinMaxHeap heap(8);
  const std::size_t before = heap.ops();
  for (int i = 0; i < 8; ++i) heap.InsertBounded(N(static_cast<float>(i), i));
  EXPECT_GT(heap.ops(), before);
}

struct HeapCase {
  std::uint64_t seed;
  std::size_t capacity;
  int operations;
};

class MinMaxHeapProperty : public ::testing::TestWithParam<HeapCase> {};

// Randomized differential test against a std::multiset reference.
TEST_P(MinMaxHeapProperty, MatchesOrderedSetReference) {
  const auto [seed, capacity, operations] = GetParam();
  Rng rng(seed);
  MinMaxHeap heap(capacity);
  std::multiset<graph::Neighbor> reference;

  for (int op = 0; op < operations; ++op) {
    const int choice = static_cast<int>(rng.NextBounded(10));
    if (choice < 6) {
      const graph::Neighbor x =
          N(static_cast<float>(rng.NextBounded(50)),
            static_cast<VertexId>(rng.NextBounded(1000)));
      // Bounded insert semantics mirrored on the reference.
      if (reference.size() == capacity) {
        auto last = std::prev(reference.end());
        if (x < *last) {
          reference.erase(last);
          reference.insert(x);
          EXPECT_TRUE(heap.InsertBounded(x));
        } else {
          EXPECT_FALSE(heap.InsertBounded(x));
        }
      } else {
        EXPECT_TRUE(heap.InsertBounded(x));
        reference.insert(x);
      }
    } else if (choice < 8) {
      if (reference.empty()) continue;
      EXPECT_EQ(heap.Min(), *reference.begin());
      heap.PopMin();
      reference.erase(reference.begin());
    } else {
      if (reference.empty()) continue;
      EXPECT_EQ(heap.Max(), *std::prev(reference.end()));
      heap.PopMax();
      reference.erase(std::prev(reference.end()));
    }
    ASSERT_EQ(heap.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(heap.Min(), *reference.begin());
      ASSERT_EQ(heap.Max(), *std::prev(reference.end()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRuns, MinMaxHeapProperty,
    ::testing::Values(HeapCase{1, 1, 300}, HeapCase{2, 2, 300},
                      HeapCase{3, 3, 500}, HeapCase{4, 7, 500},
                      HeapCase{5, 16, 1000}, HeapCase{6, 64, 2000},
                      HeapCase{7, 5, 1000}, HeapCase{8, 33, 1500}));

TEST(BoundedMaxHeapTest, KeepsBestEntriesUpToCapacity) {
  BoundedMaxHeap heap(3);
  EXPECT_TRUE(heap.InsertBounded(N(5, 1)));
  EXPECT_TRUE(heap.InsertBounded(N(3, 2)));
  EXPECT_TRUE(heap.InsertBounded(N(7, 3)));
  EXPECT_EQ(heap.Max().id, 3u);
  EXPECT_FALSE(heap.InsertBounded(N(9, 4)));  // worse than worst
  EXPECT_TRUE(heap.InsertBounded(N(1, 5)));   // evicts id 3
  const auto sorted = heap.SortedAscending();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 5u);
  EXPECT_EQ(sorted[1].id, 2u);
  EXPECT_EQ(sorted[2].id, 1u);
}

class BoundedMaxHeapProperty : public ::testing::TestWithParam<HeapCase> {};

TEST_P(BoundedMaxHeapProperty, KeepsExactlyTheSmallestK) {
  const auto [seed, capacity, operations] = GetParam();
  Rng rng(seed);
  BoundedMaxHeap heap(capacity);
  std::vector<graph::Neighbor> all;
  for (int i = 0; i < operations; ++i) {
    const graph::Neighbor x =
        N(static_cast<float>(rng.NextBounded(10000)),
          static_cast<VertexId>(i));
    heap.InsertBounded(x);
    all.push_back(x);
  }
  std::sort(all.begin(), all.end());
  all.resize(std::min<std::size_t>(capacity, all.size()));
  EXPECT_EQ(heap.SortedAscending(), all);
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRuns, BoundedMaxHeapProperty,
    ::testing::Values(HeapCase{11, 1, 100}, HeapCase{12, 4, 200},
                      HeapCase{13, 10, 500}, HeapCase{14, 64, 1000},
                      HeapCase{15, 100, 100}));

TEST(OpenHashSetTest, InsertAndContains) {
  OpenHashSet set(8);
  EXPECT_FALSE(set.Contains(5));
  EXPECT_TRUE(set.Insert(5));
  EXPECT_FALSE(set.Insert(5));
  EXPECT_TRUE(set.Contains(5));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_GT(set.ops(), 0u);
}

TEST(OpenHashSetTest, GrowsPastInitialCapacityWithoutLosingElements) {
  OpenHashSet set(2);
  const std::size_t initial_capacity = set.capacity();
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_TRUE(set.Insert(v * 7 + 1));
  }
  EXPECT_GT(set.capacity(), initial_capacity);
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_TRUE(set.Contains(v * 7 + 1));
    EXPECT_FALSE(set.Contains(v * 7 + 2));
  }
}

TEST(OpenHashSetTest, MatchesStdSetOnRandomStream) {
  Rng rng(99);
  OpenHashSet set(16);
  std::set<VertexId> reference;
  for (int i = 0; i < 5000; ++i) {
    const VertexId v = static_cast<VertexId>(rng.NextBounded(800));
    EXPECT_EQ(set.Insert(v), reference.insert(v).second);
  }
  EXPECT_EQ(set.size(), reference.size());
}

// ---- SONG search kernel behaviour. ----

class SongSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 4));
    built_ = std::make_unique<graph::CpuBuildResult>(
        graph::BuildNswCpu(*base_, {}));
  }
  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<graph::CpuBuildResult> built_;
};

TEST_F(SongSearchTest, AgreesWithCpuBeamSearchAtSameBudget) {
  // SONG is Algorithm 1 with bounded structures; with a roomy queue its
  // recall must match the CPU reference within noise.
  const data::Dataset queries = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 40, 800, 4);
  const data::GroundTruth truth = data::BruteForceKnn(*base_, queries, 10);

  gpusim::Device device;
  SongParams params;
  params.k = 10;
  params.queue_size = 64;
  const auto batch = SongSearchBatch(device, built_->graph, *base_, queries,
                                     params);

  std::vector<std::vector<VertexId>> cpu_results(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const auto& n :
         graph::BeamSearch(built_->graph, *base_, queries.Point(q), 10, 64, 0)) {
      cpu_results[q].push_back(n.id);
    }
  }
  const double song_recall = data::MeanRecall(batch.results, truth, 10);
  const double cpu_recall = data::MeanRecall(cpu_results, truth, 10);
  EXPECT_NEAR(song_recall, cpu_recall, 0.05);
}

TEST_F(SongSearchTest, DeterministicAcrossRuns) {
  gpusim::Device device;
  SongParams params;
  params.k = 5;
  params.queue_size = 32;
  gpusim::BlockContext block_a(0, 32, 48 * 1024, &device.spec().cost);
  gpusim::BlockContext block_b(0, 32, 48 * 1024, &device.spec().cost);
  const auto a = SongSearchOne(block_a, built_->graph, *base_,
                               base_->Point(42), params, 0);
  const auto b = SongSearchOne(block_b, built_->graph, *base_,
                               base_->Point(42), params, 0);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(block_a.cost().total_cycles(), block_b.cost().total_cycles());
}

TEST_F(SongSearchTest, LargerQueueRaisesRecallAndCost) {
  const data::Dataset queries = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 40, 800, 4);
  const data::GroundTruth truth = data::BruteForceKnn(*base_, queries, 10);
  gpusim::Device device;

  SongParams small;
  small.k = 10;
  small.queue_size = 10;
  const auto batch_small =
      SongSearchBatch(device, built_->graph, *base_, queries, small);

  SongParams large;
  large.k = 10;
  large.queue_size = 128;
  const auto batch_large =
      SongSearchBatch(device, built_->graph, *base_, queries, large);

  EXPECT_GT(data::MeanRecall(batch_large.results, truth, 10),
            data::MeanRecall(batch_small.results, truth, 10) - 1e-9);
  EXPECT_GT(batch_large.sim_seconds, batch_small.sim_seconds);
}

TEST_F(SongSearchTest, DataStructureOpsDominateOnHostLane) {
  // The motivating observation (Figure 7): SONG's serial data-structure
  // maintenance is the bottleneck on moderate-dimension data.
  gpusim::Device device;
  SongParams params;
  params.k = 10;
  params.queue_size = 64;
  const data::Dataset queries = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 20, 800, 4);
  const auto batch =
      SongSearchBatch(device, built_->graph, *base_, queries, params);
  const double ds = batch.kernel.work_cycles[static_cast<int>(
      gpusim::CostCategory::kDataStructure)];
  EXPECT_GT(ds / batch.kernel.work_total(), 0.5);
}

TEST_F(SongSearchTest, StatsAreConsistent) {
  gpusim::Device device;
  SongParams params;
  params.k = 10;
  params.queue_size = 32;
  SongQueryProfile profile;
  gpusim::BlockContext block(0, 32, 48 * 1024, &device.spec().cost);
  const auto found = SongSearchOne(block, built_->graph, *base_,
                                   base_->Point(7), params, 0, &profile);
  EXPECT_LE(found.size(), params.k);
  EXPECT_GT(profile.hops, 0u);
  EXPECT_GE(profile.distance_computations, profile.hops);
  EXPECT_GT(profile.host_ops, 0u);
}

}  // namespace
}  // namespace song
}  // namespace ganns
