// Unit tests for the common utilities: deterministic RNG, prefix sums, the
// host thread pool (including nested calls that share it), the shared
// k-way merge's edge cases, the artifact file writer, the bulk file reader
// and all-or-nothing file replacement.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file.h"
#include "common/kway_merge.h"
#include "common/prefix_sum.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/beam_search.h"

namespace ganns {
namespace {

TEST(TextFileTest, WritesExactBytesAndFailsOnMissingDirectory) {
  const std::string path = ::testing::TempDir() + "ganns_text_file_test.txt";
  const std::string text = std::string("line one\nline\0two\n", 18);
  ASSERT_TRUE(WriteTextFile(path, text));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  EXPECT_EQ(read.str(), text);

  // An unopenable path reports failure instead of silently dropping data.
  EXPECT_FALSE(WriteTextFile(
      ::testing::TempDir() + "ganns_missing_dir/nested/out.txt", text));
}

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream read;
  read << in.rdbuf();
  return read.str();
}

// A range of more than three chunks, starting mid-file after a buffered
// header read, arrives byte-exact; the stream then sits just past it, and a
// range past the end of the file fails.
TEST(BulkReadTest, ReadsChunksAcrossThePoolAndMovesPastTheRange) {
  const std::size_t size = 3 * kReadChunkBytes + 12345;
  std::vector<unsigned char> bytes(16 + size + 8);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + i / 4099);
  }
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::rewind(file);

  unsigned char header[16];
  ASSERT_EQ(std::fread(header, 1, sizeof(header), file), sizeof(header));
  EXPECT_EQ(BytesLeft(file), size + 8);
  std::vector<unsigned char> got(size);
  ASSERT_TRUE(ReadBulk(file, got.data(), size));
  EXPECT_TRUE(std::equal(got.begin(), got.end(), bytes.begin() + 16));
  EXPECT_EQ(BytesLeft(file), 8u);
  unsigned char tail[8];
  ASSERT_EQ(std::fread(tail, 1, sizeof(tail), file), sizeof(tail));
  EXPECT_TRUE(std::equal(tail, tail + 8, bytes.end() - 8));
  EXPECT_EQ(BytesLeft(file), 0u);

  std::rewind(file);
  std::vector<unsigned char> past(bytes.size() + 1);
  EXPECT_FALSE(ReadBulk(file, past.data(), past.size()));
  std::fclose(file);
}

// Replacement is all or nothing: a failing writer leaves every target as
// it was and no temporary behind; a succeeding one replaces them all.
TEST(ReplaceFilesTest, ReplacesAllOrKeepsEveryTarget) {
  const std::string dir = ::testing::TempDir();
  const std::vector<std::string> paths = {dir + "ganns_replace_a",
                                          dir + "ganns_replace_b"};
  for (const std::string& path : paths) ASSERT_TRUE(WriteTextFile(path, "old"));
  const auto writer = [](std::size_t fail_at) {
    return [fail_at](std::size_t i, const std::string& tmp) {
      return WriteTextFile(tmp, "new") && i != fail_at;
    };
  };
  for (const std::size_t fail_at : {std::size_t{0}, std::size_t{1}}) {
    EXPECT_FALSE(ReplaceFiles(paths, writer(fail_at)));
    for (const std::string& path : paths) {
      EXPECT_EQ(ReadWhole(path), "old");
      EXPECT_FALSE(std::ifstream(path + ".tmp" + std::to_string(::getpid())))
          << "temporary left behind";
    }
  }
  EXPECT_TRUE(ReplaceFiles(paths, writer(paths.size())));
  for (const std::string& path : paths) {
    EXPECT_EQ(ReadWhole(path), "new");
    std::remove(path.c_str());
  }
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, GaussianHasRoughlyUnitMoments) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(PrefixSumTest, ExclusiveMatchesDefinition) {
  const std::vector<std::uint32_t> in = {3, 0, 1, 5, 2};
  std::vector<std::uint32_t> out(in.size());
  const std::uint32_t total =
      ExclusivePrefixSum(std::span<const std::uint32_t>(in),
                         std::span<std::uint32_t>(out));
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 3, 3, 4, 9}));
}

TEST(PrefixSumTest, InclusiveMatchesDefinition) {
  const std::vector<std::uint32_t> in = {3, 0, 1, 5, 2};
  std::vector<std::uint32_t> out(in.size());
  const std::uint32_t total =
      InclusivePrefixSum(std::span<const std::uint32_t>(in),
                         std::span<std::uint32_t>(out));
  EXPECT_EQ(total, 11u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 3, 4, 9, 11}));
}

TEST(PrefixSumTest, EmptyInput) {
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ExclusivePrefixSum({}, std::span<std::uint32_t>(out)), 0u);
}

TEST(PrefixSumTest, InPlaceAliasingWorks) {
  std::vector<std::uint32_t> data = {1, 2, 3, 4};
  InclusivePrefixSum(std::span<const std::uint32_t>(data),
                     std::span<std::uint32_t>(data));
  EXPECT_EQ(data, (std::vector<std::uint32_t>{1, 3, 6, 10}));
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(1000, [&](std::size_t i) { counts[i]++; });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, HandlesZeroAndSmallN) {
  ThreadPool pool(8);
  // Atomic: the three indices may run on three threads at once.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolTest, ResultsIndependentOfPoolSize) {
  // Aggregation by index must give the same result for 1 or many workers.
  const std::size_t n = 500;
  std::vector<double> a(n);
  std::vector<double> b(n);
  ThreadPool single(1);
  ThreadPool many(7);
  single.ParallelFor(n, [&](std::size_t i) { a[i] = std::sqrt(i * 3.5); });
  many.ParallelFor(n, [&](std::size_t i) { b[i] = std::sqrt(i * 3.5); });
  EXPECT_EQ(a, b);
}

// GANNS_THREADS sizes the global pool; any value but a positive integer
// is rejected by name instead of silently falling back.
TEST(GlobalPoolSizeTest, ReadsGanssThreadsOrRejectsItByName) {
  const char* saved = std::getenv("GANNS_THREADS");
  const std::optional<std::string> restore =
      saved != nullptr ? std::optional<std::string>(saved) : std::nullopt;
  ::unsetenv("GANNS_THREADS");
  EXPECT_GE(ThreadPool::GlobalSize(), 1u);
  ::setenv("GANNS_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::GlobalSize(), 3u);
  ::setenv("GANNS_THREADS", "16", 1);
  EXPECT_EQ(ThreadPool::GlobalSize(), 16u);

  for (const char* bad :
       {"0", "-2", "abc", "4x", "", " 4", "99999999999999999999999"}) {
    ::setenv("GANNS_THREADS", bad, 1);
    EXPECT_DEATH(ThreadPool::GlobalSize(),
                 "GANNS_THREADS must be a positive integer")
        << "value '" << bad << "'";
  }
  if (restore.has_value()) {
    ::setenv("GANNS_THREADS", restore->c_str(), 1);
  } else {
    ::unsetenv("GANNS_THREADS");
  }
}

// Meeting point for `parties` threads. Arrive() returns true once all of
// them have arrived, or false when `kRendezvousTimeout` passes first — so a
// schedule that runs the parties one after another fails instead of hanging.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  bool Arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == parties_) {
      all_arrived_.notify_all();
      return true;
    }
    return all_arrived_.wait_for(lock, kRendezvousTimeout,
                                 [this] { return arrived_ >= parties_; });
  }

 private:
  static constexpr std::chrono::seconds kRendezvousTimeout{10};
  const int parties_;
  int arrived_ = 0;
  std::mutex mutex_;
  std::condition_variable all_arrived_;
};

TEST(ThreadPoolNestingTest, NestedCallsRunInParallel) {
  ThreadPool pool(4);
  // The outer rendezvous puts the two outer indices on different threads,
  // so at least one of them is a worker. Inside each, the two inner indices
  // must also meet: a nested call run inline on its worker would reach the
  // inner rendezvous once and time out.
  Rendezvous outer(2);
  Rendezvous inner[] = {Rendezvous(2), Rendezvous(2)};
  std::atomic<int> missed{0};
  pool.ParallelFor(2, [&](std::size_t i) {
    if (!outer.Arrive()) missed.fetch_add(1);
    pool.ParallelFor(2, [&](std::size_t) {
      if (!inner[i].Arrive()) missed.fetch_add(1);
    });
  });
  EXPECT_EQ(missed.load(), 0);
}

TEST(ThreadPoolNestingTest, DeepNestingOnSaturatedPoolVisitsEachIndexOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kMiddle = 5;
  constexpr std::size_t kInner = 7;
  constexpr std::size_t kCallers = 3;
  // Several external callers run the same three-level nest at once, so
  // every worker is busy — mostly blocked inside nested calls — while more
  // nested work keeps arriving.
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kOuter * kMiddle * kInner);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(kOuter, [&](std::size_t a) {
        pool.ParallelFor(kMiddle, [&](std::size_t b) {
          pool.ParallelFor(kInner, [&](std::size_t d) {
            std::this_thread::sleep_for(std::chrono::microseconds(10));
            hits[c][(a * kMiddle + b) * kInner + d].fetch_add(1);
          });
        });
      });
    });
  }
  for (auto& caller : callers) caller.join();
  for (const auto& h : hits) {
    for (const auto& count : h) EXPECT_EQ(count.load(), 1);
  }
}

TEST(ThreadPoolNestingTest, LateHelperNeverTouchesFinishedCall) {
  ThreadPool pool(4);
  // Pin all four workers plus one external thread on a gate: five indices,
  // each held by the thread blocked in it.
  constexpr std::size_t kBlockers = 5;
  std::promise<void> gate;
  const std::shared_future<void> gate_open = gate.get_future().share();
  std::atomic<std::size_t> blocked{0};
  std::thread blocker([&] {
    pool.ParallelFor(kBlockers, [&](std::size_t) {
      blocked.fetch_add(1);
      gate_open.wait();
    });
  });
  while (blocked.load() < kBlockers) std::this_thread::yield();

  // No worker is free, so this caller drains every index itself and returns
  // while the call's helper tasks are still queued. The loop body then dies
  // before any of those helpers runs. A scheduler that waited for its
  // helpers would never return here; the timeout turns that into a failure.
  constexpr std::size_t kN = 16;
  std::vector<int> visits(kN, 0);
  std::atomic<bool> all_on_caller{true};
  std::promise<void> returned;
  std::thread caller([&] {
    const std::thread::id self = std::this_thread::get_id();
    auto fn = std::make_unique<std::function<void(std::size_t)>>(
        [&](std::size_t i) {
          ++visits[i];
          if (std::this_thread::get_id() != self) all_on_caller = false;
        });
    pool.ParallelFor(kN, *fn);
    fn.reset();
    returned.set_value();
  });
  const bool returned_first = returned.get_future().wait_for(
      std::chrono::seconds(10)) == std::future_status::ready;

  gate.set_value();  // the workers now reach the stale helpers
  blocker.join();
  caller.join();
  EXPECT_TRUE(returned_first);
  EXPECT_TRUE(all_on_caller);
  for (const int v : visits) EXPECT_EQ(v, 1);
}

// ---------------------------------------------------------------------------
// common/kway_merge.h edge cases (the randomized property lives in
// cluster_test.cc; these pin the boundary behaviors down individually)
// ---------------------------------------------------------------------------

graph::Neighbor Nbr(float dist, VertexId id) {
  graph::Neighbor neighbor;
  neighbor.dist = dist;
  neighbor.id = id;
  return neighbor;
}

TEST(KWayMergeEdgeTest, ZeroListsYieldEmpty) {
  const std::vector<std::vector<graph::Neighbor>> rows;
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 10).empty());
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 0).empty());
}

TEST(KWayMergeEdgeTest, AllEmptyListsYieldEmpty) {
  const std::vector<std::vector<graph::Neighbor>> rows(4);
  EXPECT_TRUE(common::MergeTopK<graph::Neighbor>(rows, 10).empty());
}

TEST(KWayMergeEdgeTest, SingleListPassesThroughTruncated) {
  std::vector<std::vector<graph::Neighbor>> rows(1);
  for (VertexId id = 0; id < 5; ++id) {
    rows[0].push_back(Nbr(static_cast<float>(id), id));
  }
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 5), rows[0]);
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 99), rows[0]);
  const auto truncated = common::MergeTopK<graph::Neighbor>(rows, 3);
  ASSERT_EQ(truncated.size(), 3u);
  EXPECT_EQ(truncated[2], rows[0][2]);
}

// Equal distances across sources are the case the total-order contract
// exists for: ids are globally unique, so (dist, id) still never ties and
// the merged order is the ascending-id order within each distance class —
// regardless of which source holds which id.
TEST(KWayMergeEdgeTest, EqualDistancesBreakTiesById) {
  std::vector<std::vector<graph::Neighbor>> rows(3);
  rows[0] = {Nbr(1.0f, 4), Nbr(2.0f, 1)};
  rows[1] = {Nbr(1.0f, 2), Nbr(2.0f, 5)};
  rows[2] = {Nbr(1.0f, 0), Nbr(1.0f, 7)};
  const auto merged = common::MergeTopK<graph::Neighbor>(rows, 6);
  const std::vector<graph::Neighbor> expect = {Nbr(1.0f, 0), Nbr(1.0f, 2),
                                               Nbr(1.0f, 4), Nbr(1.0f, 7),
                                               Nbr(2.0f, 1), Nbr(2.0f, 5)};
  EXPECT_EQ(merged, expect);
  // Source order must not matter (pure function of the input sets).
  std::swap(rows[0], rows[2]);
  EXPECT_EQ(common::MergeTopK<graph::Neighbor>(rows, 6), expect);
}

}  // namespace
}  // namespace ganns
