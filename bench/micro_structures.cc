// Google-benchmark microbenchmarks for the per-iteration primitives whose
// relative host-time costs underlie the cost model: the serial heap/hash
// operations SONG's host lane executes vs. the data-parallel bitonic
// networks GANNS uses, plus the raw distance kernel. These measure *host*
// nanoseconds (not simulated cycles): they document that the structures
// behave as designed, independent of the cost model.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "data/dataset.h"
#include "gpusim/bitonic.h"
#include "gpusim/warp.h"
#include "song/bounded_max_heap.h"
#include "song/minmax_heap.h"
#include "song/open_hash.h"

namespace ganns {
namespace {

void BM_MinMaxHeapInsertPop(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    song::MinMaxHeap heap(capacity);
    for (std::size_t i = 0; i < 2 * capacity; ++i) {
      heap.InsertBounded({static_cast<Dist>(rng.NextBounded(1000)),
                          static_cast<VertexId>(i)});
    }
    while (!heap.empty()) heap.PopMin();
    benchmark::DoNotOptimize(heap.ops());
  }
  state.SetItemsProcessed(state.iterations() * 3 * state.range(0));
}
BENCHMARK(BM_MinMaxHeapInsertPop)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundedMaxHeapInsert(benchmark::State& state) {
  const std::size_t capacity = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    song::BoundedMaxHeap heap(capacity);
    for (std::size_t i = 0; i < 4 * capacity; ++i) {
      heap.InsertBounded({static_cast<Dist>(rng.NextBounded(1000)),
                          static_cast<VertexId>(i)});
    }
    benchmark::DoNotOptimize(heap.ops());
  }
  state.SetItemsProcessed(state.iterations() * 4 * state.range(0));
}
BENCHMARK(BM_BoundedMaxHeapInsert)->Arg(16)->Arg(64)->Arg(256);

void BM_OpenHashInsertContains(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    song::OpenHashSet set(64);
    for (int i = 0; i < 1024; ++i) {
      set.Insert(static_cast<VertexId>(rng.NextBounded(4096)));
    }
    for (int i = 0; i < 1024; ++i) {
      benchmark::DoNotOptimize(
          set.Contains(static_cast<VertexId>(rng.NextBounded(4096))));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_OpenHashInsertContains);

void BM_BitonicSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<std::uint32_t> data(n);
  gpusim::CostModel cost;
  gpusim::Warp warp(32, &cost);
  for (auto _ : state) {
    for (auto& v : data) v = static_cast<std::uint32_t>(rng.NextU64());
    gpusim::BitonicSort(warp, std::span<std::uint32_t>(data),
                        [](std::uint32_t a, std::uint32_t b) { return a < b; },
                        gpusim::CostCategory::kDataStructure);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BitonicSort)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_BitonicMergeKeepFirst(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<std::uint32_t> a(n);
  std::vector<std::uint32_t> b(n);
  std::vector<std::uint32_t> scratch(2 * gpusim::NextPow2(n));
  gpusim::CostModel cost;
  gpusim::Warp warp(32, &cost);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = static_cast<std::uint32_t>(i * 2);
      b[i] = static_cast<std::uint32_t>(rng.NextBounded(2 * n));
    }
    std::sort(b.begin(), b.end());
    gpusim::MergeSortedKeepFirst(
        warp, std::span<std::uint32_t>(a), std::span<const std::uint32_t>(b),
        std::span<std::uint32_t>(scratch),
        [](std::uint32_t x, std::uint32_t y) { return x < y; },
        gpusim::CostCategory::kDataStructure);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_BitonicMergeKeepFirst)->Arg(32)->Arg(64)->Arg(128);

void BM_ExactDistance(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<float> a(dim);
  std::vector<float> b(dim);
  for (auto& v : a) v = rng.NextUniform(-1, 1);
  for (auto& v : b) v = rng.NextUniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        data::ExactDistance(data::Metric::kL2, a, b));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_ExactDistance)->Arg(32)->Arg(128)->Arg(960);

}  // namespace
}  // namespace ganns

BENCHMARK_MAIN();
