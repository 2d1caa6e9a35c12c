// Property tests for the multi-block device algorithms: the work-efficient
// parallel prefix sum and the cross-block global bitonic sort, validated
// against the serial references.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/prefix_sum.h"
#include "common/random.h"
#include "gpusim/device.h"
#include "gpusim/global_sort.h"
#include "gpusim/scan.h"

namespace ganns {
namespace gpusim {
namespace {

struct ScanCase {
  std::size_t size;
  std::uint64_t seed;
};

class GlobalScanProperty : public ::testing::TestWithParam<ScanCase> {};

TEST_P(GlobalScanProperty, MatchesSerialReference) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint32_t> in(size);
  for (auto& v : in) v = static_cast<std::uint32_t>(rng.NextBounded(5));

  std::vector<std::uint32_t> expected(size);
  const std::uint32_t expected_total =
      ExclusivePrefixSum(in, std::span<std::uint32_t>(expected));

  Device device;
  std::vector<std::uint32_t> out(size);
  const std::uint32_t total = GlobalExclusiveScan(
      device, in, std::span<std::uint32_t>(out), 32,
      CostCategory::kDataStructure);
  EXPECT_EQ(total, expected_total);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GlobalScanProperty,
    ::testing::Values(ScanCase{1, 1}, ScanCase{7, 2}, ScanCase{512, 3},
                      ScanCase{513, 4}, ScanCase{1000, 5},
                      ScanCase{4096, 6}, ScanCase{100000, 7},
                      ScanCase{1 << 18, 8}));

TEST(GlobalScanTest, EmptyInput) {
  Device device;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(GlobalExclusiveScan(device, {}, std::span<std::uint32_t>(out), 32,
                                CostCategory::kOther),
            0u);
}

TEST(GlobalScanTest, InPlaceAliasing) {
  Device device;
  std::vector<std::uint32_t> data = {1, 2, 3, 4, 5};
  GlobalExclusiveScan(device, data, std::span<std::uint32_t>(data), 32,
                      CostCategory::kOther);
  EXPECT_EQ(data, (std::vector<std::uint32_t>{0, 1, 3, 6, 10}));
}

TEST(GlobalScanTest, ChargesDeviceTime) {
  Device device;
  device.ResetTimeline();
  std::vector<std::uint32_t> data(10000, 1);
  GlobalExclusiveScan(device, data, std::span<std::uint32_t>(data), 32,
                      CostCategory::kDataStructure);
  EXPECT_GT(device.timeline_work(CostCategory::kDataStructure), 0);
}

class GlobalSortProperty : public ::testing::TestWithParam<ScanCase> {};

TEST_P(GlobalSortProperty, MatchesStdSort) {
  const auto [size, seed] = GetParam();
  Rng rng(seed);
  std::vector<std::uint64_t> data(size);
  for (auto& v : data) v = rng.NextBounded(size / 2 + 2);  // duplicates

  std::vector<std::uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  Device device;
  GlobalBitonicSort(device, std::span<std::uint64_t>(data),
                    [](std::uint64_t a, std::uint64_t b) { return a < b; },
                    32, CostCategory::kDataStructure);
  EXPECT_EQ(data, expected);
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwoSizes, GlobalSortProperty,
    ::testing::Values(ScanCase{1, 11}, ScanCase{2, 12}, ScanCase{64, 13},
                      ScanCase{1024, 14},    // exactly one tile
                      ScanCase{2048, 15},    // two tiles: global stages kick in
                      ScanCase{8192, 16}, ScanCase{1 << 15, 17},
                      ScanCase{1 << 17, 18}));

/// Simulated cycles of one GlobalBitonicSort of `data` on a fresh default
/// device.
double SortCycles(std::vector<std::uint64_t> data) {
  Device device;
  device.ResetTimeline();
  GlobalBitonicSort(device, std::span<std::uint64_t>(data),
                    [](std::uint64_t a, std::uint64_t b) { return a < b; },
                    32, CostCategory::kDataStructure);
  return device.timeline_cycles();
}

// Pins the sort's simulated schedule, so a host-side rewrite of the network
// (compute with std::sort, charge the compare-exchange stages) must
// reproduce it exactly. The network is data-oblivious: sorted, reversed and
// random inputs of one size charge identical cycles.
TEST(GlobalSortSchedule, PinnedCyclesAreDataOblivious) {
  struct Pin {
    std::size_t size;
    double cycles;
  };
  for (const Pin pin : {Pin{1024, 26960}, Pin{2048, 32080}, Pin{1 << 15, 73200}}) {
    SCOPED_TRACE(pin.size);
    std::vector<std::uint64_t> sorted(pin.size);
    for (std::size_t i = 0; i < pin.size; ++i) sorted[i] = i;
    std::vector<std::uint64_t> reversed(sorted.rbegin(), sorted.rend());
    Rng rng(pin.size);
    std::vector<std::uint64_t> random(pin.size);
    for (auto& v : random) v = rng.NextU64();

    const double cycles = SortCycles(sorted);
    EXPECT_EQ(cycles, pin.cycles);
    EXPECT_EQ(SortCycles(reversed), cycles);
    EXPECT_EQ(SortCycles(random), cycles);
  }
}

TEST(GlobalSortDeathTest, NonPowerOfTwoIsFatal) {
  Device device;
  std::vector<int> data(100);
  EXPECT_DEATH(GlobalBitonicSort(device, std::span<int>(data),
                                 [](int a, int b) { return a < b; }, 32,
                                 CostCategory::kOther),
               "not a power of two");
}

TEST(GlobalSortTest, MoreBlocksReduceSimTimeOfLargeSorts) {
  // The cross-block sort parallelizes: a device with more concurrent slots
  // finishes the same network in less simulated time.
  std::vector<std::uint64_t> a(1 << 16);
  Rng rng(9);
  for (auto& v : a) v = rng.NextU64();
  std::vector<std::uint64_t> b = a;

  DeviceSpec narrow_spec;
  narrow_spec.concurrent_blocks = 2;
  Device narrow(narrow_spec);
  narrow.ResetTimeline();
  GlobalBitonicSort(narrow, std::span<std::uint64_t>(a),
                    [](std::uint64_t x, std::uint64_t y) { return x < y; },
                    32, CostCategory::kOther);

  Device wide;  // default: 1280 slots
  wide.ResetTimeline();
  GlobalBitonicSort(wide, std::span<std::uint64_t>(b),
                    [](std::uint64_t x, std::uint64_t y) { return x < y; },
                    32, CostCategory::kOther);

  EXPECT_EQ(a, b);
  EXPECT_GT(narrow.timeline_cycles(), 2 * wide.timeline_cycles());
}

}  // namespace
}  // namespace gpusim
}  // namespace ganns
