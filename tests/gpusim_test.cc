// Unit and property tests for the SIMT simulator substrate: warp
// primitives, cost accounting, shared-memory limits, device scheduling, and
// the bitonic sort/merge networks.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gpusim/bitonic.h"
#include "gpusim/block.h"
#include "gpusim/device.h"
#include "gpusim/warp.h"
#include "graph/beam_search.h"

namespace ganns {
namespace gpusim {
namespace {

TEST(WarpTest, StepsForRoundsUpToLaneMultiples) {
  CostModel cost;
  Warp warp(32, &cost);
  EXPECT_EQ(warp.StepsFor(0), 0);
  EXPECT_EQ(warp.StepsFor(1), 1);
  EXPECT_EQ(warp.StepsFor(32), 1);
  EXPECT_EQ(warp.StepsFor(33), 2);
  EXPECT_EQ(warp.StepsFor(64), 2);

  Warp narrow(4, &cost);
  EXPECT_EQ(narrow.StepsFor(32), 8);
}

TEST(WarpTest, BallotSyncSetsBitsForTrueLanes) {
  CostModel cost;
  Warp warp(32, &cost);
  const std::uint32_t mask =
      warp.BallotSync(8, [](int lane) { return lane % 3 == 0; });
  EXPECT_EQ(mask, 0b01001001u);
}

TEST(WarpTest, BallotSyncEmptyAndFull) {
  CostModel cost;
  Warp warp(32, &cost);
  EXPECT_EQ(warp.BallotSync(0, [](int) { return true; }), 0u);
  EXPECT_EQ(warp.BallotSync(32, [](int) { return true; }), 0xffffffffu);
}

TEST(WarpTest, FfsReturnsLowestSetBit) {
  EXPECT_EQ(Warp::Ffs(0), -1);
  EXPECT_EQ(Warp::Ffs(1), 0);
  EXPECT_EQ(Warp::Ffs(0b1000), 3);
  EXPECT_EQ(Warp::Ffs(0x80000000u), 31);
  EXPECT_EQ(Warp::Ffs(0b0110), 1);
}

TEST(WarpTest, ParallelForVisitsEveryIndexAndChargesSteps) {
  CostModel cost;
  Warp warp(8, &cost);
  std::vector<int> seen(20, 0);
  warp.ParallelFor(20, CostCategory::kOther, 1.0,
                   [&](std::size_t i) { seen[i]++; });
  for (int count : seen) EXPECT_EQ(count, 1);
  // ceil(20 / 8) = 3 steps of 1 cycle.
  EXPECT_DOUBLE_EQ(cost.cycles(CostCategory::kOther), 3.0);
}

TEST(WarpTest, ChargeDistanceScalesWithLanesAndDim) {
  CostModel cost32;
  Warp warp32(32, &cost32);
  warp32.ChargeDistance(128);

  CostModel cost4;
  Warp warp4(4, &cost4);
  warp4.ChargeDistance(128);

  // Fewer lanes => strictly more distance cycles (the Figure 10 effect).
  EXPECT_GT(cost4.cycles(CostCategory::kDistance),
            cost32.cycles(CostCategory::kDistance));
}

TEST(WarpTest, HostOpsDoNotAmortizeOverLanes) {
  CostModel cost32;
  Warp warp32(32, &cost32);
  warp32.ChargeHostOps(100, CostCategory::kDataStructure);

  CostModel cost1;
  Warp warp1(1, &cost1);
  warp1.ChargeHostOps(100, CostCategory::kDataStructure);

  // SONG's serial bottleneck: identical cost regardless of warp width.
  EXPECT_DOUBLE_EQ(cost32.cycles(CostCategory::kDataStructure),
                   cost1.cycles(CostCategory::kDataStructure));
}

TEST(CostModelTest, ChargesAccumulateByCategoryAndMerge) {
  CostModel a;
  a.Charge(CostCategory::kDistance, 10);
  a.Charge(CostCategory::kDistance, 5);
  a.Charge(CostCategory::kOther, 1);
  EXPECT_DOUBLE_EQ(a.cycles(CostCategory::kDistance), 15);
  EXPECT_DOUBLE_EQ(a.total_cycles(), 16);

  CostModel b;
  b.Charge(CostCategory::kDataStructure, 4);
  a.Add(b);
  EXPECT_DOUBLE_EQ(a.total_cycles(), 20);
  a.Reset();
  EXPECT_DOUBLE_EQ(a.total_cycles(), 0);
}

TEST(BlockTest, AllocSharedTracksUsageAndResets) {
  CostParams params;
  BlockContext block(0, 32, 1024, &params);
  auto ints = block.AllocShared<std::uint32_t>(64);
  EXPECT_EQ(ints.size(), 64u);
  EXPECT_EQ(block.shared_used(), 256u);
  // Freshly allocated shared memory is zero-initialized.
  for (std::uint32_t v : ints) EXPECT_EQ(v, 0u);
  block.ResetShared();
  EXPECT_EQ(block.shared_used(), 0u);
}

TEST(BlockDeathTest, SharedMemoryOverflowIsFatal) {
  CostParams params;
  BlockContext block(0, 32, 128, &params);
  EXPECT_DEATH(block.AllocShared<std::uint32_t>(64),
               "shared memory overflow");
}

TEST(DeviceTest, LaunchRunsEveryBlockOnceWithOwnId) {
  Device device;
  std::vector<int> counts(50, 0);
  const KernelStats stats = device.Launch(50, 32, [&](BlockContext& block) {
    counts[block.block_id()]++;
  });
  for (int c : counts) EXPECT_EQ(c, 1);
  EXPECT_EQ(stats.grid_size, 50);
  // Even empty blocks pay the launch overhead.
  EXPECT_GE(stats.sim_cycles, device.spec().cost.launch_overhead);
}

TEST(DeviceTest, KernelDurationIsMaxOverSlotsNotSum) {
  DeviceSpec spec;
  spec.concurrent_blocks = 4;
  spec.cost.launch_overhead = 0;
  Device device(spec);
  // 8 blocks, each charging 100 cycles: 4 slots * 2 blocks = 200 cycles.
  const KernelStats stats = device.Launch(8, 32, [&](BlockContext& block) {
    block.cost().Charge(CostCategory::kOther, 100);
  });
  EXPECT_DOUBLE_EQ(stats.sim_cycles, 200.0);
  EXPECT_DOUBLE_EQ(stats.work_total(), 800.0);
}

TEST(DeviceTest, TimelineAccumulatesAcrossLaunchesUntilReset) {
  DeviceSpec spec;
  spec.cost.launch_overhead = 10;
  Device device(spec);
  device.Launch(1, 32, [](BlockContext& block) {
    block.cost().Charge(CostCategory::kDistance, 90);
  });
  device.Launch(1, 32, [](BlockContext& block) {
    block.cost().Charge(CostCategory::kDataStructure, 40);
  });
  EXPECT_DOUBLE_EQ(device.timeline_cycles(), 90 + 40 + 2 * 10);
  EXPECT_DOUBLE_EQ(device.timeline_work(CostCategory::kDistance), 90);
  EXPECT_DOUBLE_EQ(device.timeline_work(CostCategory::kDataStructure), 40);
  device.ResetTimeline();
  EXPECT_DOUBLE_EQ(device.timeline_cycles(), 0);
}

TEST(DeviceTest, CyclesToSecondsUsesClock) {
  DeviceSpec spec;
  spec.clock_ghz = 2.0;
  Device device(spec);
  EXPECT_DOUBLE_EQ(device.CyclesToSeconds(4e9), 2.0);
}

TEST(BitonicTest, NextPow2) {
  EXPECT_EQ(NextPow2(0), 1u);
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(32), 32u);
  EXPECT_EQ(NextPow2(33), 64u);
}

// ---- Property tests: the bitonic networks against std::sort. ----

struct BitonicCase {
  std::size_t size;
  std::uint64_t seed;
};

class BitonicSortProperty : public ::testing::TestWithParam<BitonicCase> {};

TEST_P(BitonicSortProperty, SortsExactlyLikeStdSort) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint64_t> values(size);
  for (auto& v : values) v = rng.NextBounded(1000);  // many duplicates

  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());

  CostModel cost;
  Warp warp(32, &cost);
  BitonicSort(warp, std::span<std::uint64_t>(values),
              [](std::uint64_t a, std::uint64_t b) { return a < b; },
              CostCategory::kDataStructure);
  EXPECT_EQ(values, expected);
  if (size > 1) {
    EXPECT_GT(cost.cycles(CostCategory::kDataStructure), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwoSizes, BitonicSortProperty,
    ::testing::Values(BitonicCase{1, 1}, BitonicCase{2, 2}, BitonicCase{4, 3},
                      BitonicCase{8, 4}, BitonicCase{16, 5},
                      BitonicCase{32, 6}, BitonicCase{64, 7},
                      BitonicCase{128, 8}, BitonicCase{256, 9},
                      BitonicCase{1024, 10}));

TEST(BitonicDeathTest, NonPowerOfTwoSortIsFatal) {
  CostModel cost;
  Warp warp(32, &cost);
  std::vector<int> values(3);
  EXPECT_DEATH(BitonicSort(warp, std::span<int>(values),
                           [](int a, int b) { return a < b; },
                           CostCategory::kOther),
               "not a power of two");
}

class BitonicMergeProperty : public ::testing::TestWithParam<BitonicCase> {};

TEST_P(BitonicMergeProperty, MergeKeepsSmallestInA) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  // Two independently sorted sequences of different lengths.
  const std::size_t a_size = size;
  const std::size_t b_size = std::max<std::size_t>(1, size / 2 + 1);
  std::vector<std::uint64_t> a(a_size);
  std::vector<std::uint64_t> b(b_size);
  for (auto& v : a) v = rng.NextBounded(500);
  for (auto& v : b) v = rng.NextBounded(500);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());

  std::vector<std::uint64_t> merged;
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  std::sort(merged.begin(), merged.end());
  merged.resize(a_size);  // expected: smallest a_size of the union

  CostModel cost;
  Warp warp(32, &cost);
  std::vector<std::uint64_t> scratch(
      2 * NextPow2(std::max(a_size, b_size)));
  MergeSortedKeepFirst(warp, std::span<std::uint64_t>(a),
                       std::span<const std::uint64_t>(b),
                       std::span<std::uint64_t>(scratch),
                       [](std::uint64_t x, std::uint64_t y) { return x < y; },
                       CostCategory::kDataStructure);
  EXPECT_EQ(a, merged);
}

INSTANTIATE_TEST_SUITE_P(
    VariousSizes, BitonicMergeProperty,
    ::testing::Values(BitonicCase{1, 11}, BitonicCase{2, 12},
                      BitonicCase{5, 13}, BitonicCase{8, 14},
                      BitonicCase{16, 15}, BitonicCase{31, 16},
                      BitonicCase{32, 17}, BitonicCase{64, 18},
                      BitonicCase{100, 19}, BitonicCase{128, 20}));

TEST(BitonicMergeTest, EmptyBLeavesAUntouched) {
  CostModel cost;
  Warp warp(32, &cost);
  std::vector<int> a = {1, 2, 3, 4};
  std::vector<int> b;
  std::vector<int> scratch(8, 0);
  MergeSortedKeepFirst(warp, std::span<int>(a), std::span<const int>(b),
                       std::span<int>(scratch),
                       [](int x, int y) { return x < y; },
                       CostCategory::kOther);
  EXPECT_EQ(a, (std::vector<int>{1, 2, 3, 4}));
}


// ---- Network oracle: the compare-exchange bitonic network. ----
// The primitives above charge the network's schedule but compute with
// std::sort and a two-pointer merge. These are the network itself, executed
// compare-exchange for compare-exchange with its per-stage charges; under a
// strict total order (ties identical) both must agree byte for byte on the
// output and bit for bit on every cost category.

template <typename T, typename Less>
void NetworkSort(Warp& warp, std::span<T> data, Less less,
                 CostCategory category) {
  const std::size_t len = data.size();
  if (len <= 1) return;
  const double per_pair = warp.params().alu_step + 2 * warp.params().shared_access;
  for (std::size_t k = 2; k <= len; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      for (std::size_t i = 0; i < len; ++i) {
        const std::size_t partner = i ^ j;
        if (partner <= i) continue;
        const bool ascending = (i & k) == 0;
        if (less(data[partner], data[i]) == ascending) {
          std::swap(data[i], data[partner]);
        }
      }
      warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
    }
  }
}

template <typename T, typename Less>
void NetworkMerge(Warp& warp, std::span<T> data, Less less,
                  CostCategory category) {
  const std::size_t len = data.size();
  if (len <= 1) return;
  const double per_pair = warp.params().alu_step + 2 * warp.params().shared_access;
  for (std::size_t j = len >> 1; j > 0; j >>= 1) {
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t partner = i ^ j;
      if (partner <= i) continue;
      if (less(data[partner], data[i])) std::swap(data[i], data[partner]);
    }
    warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
  }
}

/// [a ascending, sentinel pad][b reversed, sentinel pad at the front] is one
/// bitonic sequence; merging it and keeping the first |a| is the update.
template <typename T, typename Less>
void NetworkMergeKeepFirst(Warp& warp, std::span<T> a, std::span<const T> b,
                           const T& sentinel, Less less,
                           CostCategory category) {
  const std::size_t half = NextPow2(std::max(a.size(), b.size()));
  std::vector<T> buffer(2 * half);
  for (std::size_t i = 0; i < half; ++i) {
    buffer[i] = i < a.size() ? a[i] : sentinel;
    const std::size_t src = half - 1 - i;
    buffer[half + i] = src < b.size() ? b[src] : sentinel;
  }
  warp.cost().Charge(category,
                     warp.StepsFor(buffer.size()) * warp.params().shared_access);
  NetworkMerge(warp, std::span<T>(buffer), less, category);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = buffer[i];
  warp.cost().Charge(category,
                     warp.StepsFor(a.size()) * warp.params().shared_access);
}

void ExpectSameCycles(const CostModel& got, const CostModel& want) {
  for (int c = 0; c < kNumCostCategories; ++c) {
    const auto category = static_cast<CostCategory>(c);
    EXPECT_EQ(got.cycles(category), want.cycles(category)) << "category " << c;
  }
}

constexpr auto kU64Less = [](std::uint64_t x, std::uint64_t y) { return x < y; };
constexpr auto kNeighborLess = [](const graph::Neighbor& x,
                                  const graph::Neighbor& y) { return x < y; };

/// Runs the primitive and the network on the same inputs with `lanes`-wide
/// warps and compares outputs and charges.
template <typename T, typename Less>
void ExpectSortMatchesNetwork(std::vector<T> values, Less less, int lanes) {
  std::vector<T> expected = values;
  CostModel want;
  Warp oracle(lanes, &want);
  NetworkSort(oracle, std::span<T>(expected), less, CostCategory::kDataStructure);
  CostModel got;
  Warp warp(lanes, &got);
  BitonicSort(warp, std::span<T>(values), less, CostCategory::kDataStructure);
  EXPECT_EQ(values, expected);
  ExpectSameCycles(got, want);
}

template <typename T, typename Less>
void ExpectMergeMatchesNetwork(std::vector<T> a, std::vector<T> b,
                               const T& sentinel, Less less, int lanes) {
  std::sort(a.begin(), a.end(), less);
  std::sort(b.begin(), b.end(), less);
  std::vector<T> expected = a;
  CostModel want;
  Warp oracle(lanes, &want);
  NetworkMergeKeepFirst(oracle, std::span<T>(expected),
                        std::span<const T>(b), sentinel, less,
                        CostCategory::kDataStructure);
  CostModel got;
  Warp warp(lanes, &got);
  std::vector<T> scratch(2 * NextPow2(std::max(a.size(), b.size())));
  MergeSortedKeepFirst(warp, std::span<T>(a), std::span<const T>(b),
                       std::span<T>(scratch), less,
                       CostCategory::kDataStructure);
  EXPECT_EQ(a, expected) << "|a|=" << a.size() << " |b|=" << b.size();
  ExpectSameCycles(got, want);
}

std::vector<std::uint64_t> RandomValues(Rng& rng, std::size_t n,
                                        std::uint64_t bound) {
  std::vector<std::uint64_t> values(n);
  for (auto& v : values) v = rng.NextBounded(bound);
  return values;
}

std::vector<graph::Neighbor> RandomNeighbors(Rng& rng, std::size_t n) {
  std::vector<graph::Neighbor> values(n);
  for (auto& v : values) {
    // Few distinct distances and ids: many (dist, id) ties, each identical.
    v = {static_cast<Dist>(rng.NextBounded(8)) * 0.5f,
         static_cast<VertexId>(rng.NextBounded(16))};
  }
  return values;
}

constexpr std::uint64_t kU64Sentinel = ~std::uint64_t{0};

TEST(BitonicOracleTest, SortMatchesNetworkOnRandomSizes) {
  Rng rng(101);
  for (std::size_t len = 1; len <= 1024; len <<= 1) {
    for (const int lanes : {32, 4}) {
      ExpectSortMatchesNetwork(RandomValues(rng, len, ~std::uint64_t{0} >> 1),
                               kU64Less, lanes);
      ExpectSortMatchesNetwork(RandomValues(rng, len, 3), kU64Less, lanes);
      ExpectSortMatchesNetwork(RandomNeighbors(rng, len), kNeighborLess, lanes);
    }
  }
}

TEST(BitonicOracleTest, SortMatchesNetworkWithSentinelPadding) {
  Rng rng(102);
  for (std::size_t len = 2; len <= 256; len <<= 1) {
    std::vector<std::uint64_t> values = RandomValues(rng, len, 100);
    std::fill(values.begin() + len / 3, values.end(), kU64Sentinel);
    ExpectSortMatchesNetwork(values, kU64Less, 32);
  }
}

TEST(BitonicOracleTest, MergeMatchesNetworkOnRandomSizes) {
  Rng rng(103);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t a_size = 1 + rng.NextBounded(1024);
    const std::size_t b_size = 1 + rng.NextBounded(1024);
    const int lanes = trial % 2 == 0 ? 32 : 4;
    ExpectMergeMatchesNetwork(RandomValues(rng, a_size, 1 << 20),
                              RandomValues(rng, b_size, 1 << 20),
                              kU64Sentinel, kU64Less, lanes);
  }
}

TEST(BitonicOracleTest, MergeMatchesNetworkOnIdenticalDuplicates) {
  Rng rng(104);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t a_size = 1 + rng.NextBounded(300);
    const std::size_t b_size = 1 + rng.NextBounded(300);
    ExpectMergeMatchesNetwork(RandomValues(rng, a_size, 2),
                              RandomValues(rng, b_size, 2), kU64Sentinel,
                              kU64Less, 32);
  }
}

TEST(BitonicOracleTest, MergeMatchesNetworkOnNeighborPairs) {
  Rng rng(105);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t a_size = 1 + rng.NextBounded(200);
    const std::size_t b_size = 1 + rng.NextBounded(200);
    ExpectMergeMatchesNetwork(RandomNeighbors(rng, a_size),
                              RandomNeighbors(rng, b_size), graph::Neighbor{},
                              kNeighborLess, 32);
  }
}

TEST(BitonicOracleTest, MergeMatchesNetworkWithSentinelTails) {
  // The search kernel's N carries sentinel slots past its valid prefix, and
  // T carries them past the degree: sentinels on both sides of the merge.
  Rng rng(106);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t a_size = 1 + rng.NextBounded(128);
    const std::size_t b_size = 1 + rng.NextBounded(64);
    std::vector<std::uint64_t> a = RandomValues(rng, a_size, 500);
    std::vector<std::uint64_t> b = RandomValues(rng, b_size, 500);
    std::fill(a.begin() + rng.NextBounded(a_size + 1), a.end(), kU64Sentinel);
    std::fill(b.begin() + rng.NextBounded(b_size + 1), b.end(), kU64Sentinel);
    ExpectMergeMatchesNetwork(a, b, kU64Sentinel, kU64Less, 32);
  }
}

TEST(BitonicOracleTest, MergeMatchesNetworkOnEmptyAndLongB) {
  Rng rng(107);
  for (const std::size_t a_size : {1, 7, 32, 100}) {
    ExpectMergeMatchesNetwork(RandomValues(rng, a_size, 50),
                              std::vector<std::uint64_t>{}, kU64Sentinel,
                              kU64Less, 32);
    ExpectMergeMatchesNetwork(RandomValues(rng, a_size, 50),
                              RandomValues(rng, 4 * a_size + 3, 50),
                              kU64Sentinel, kU64Less, 32);
  }
  ExpectMergeMatchesNetwork(std::vector<std::uint64_t>{},
                            RandomValues(rng, 9, 50), kU64Sentinel, kU64Less,
                            32);
}

}  // namespace
}  // namespace gpusim
}  // namespace ganns
