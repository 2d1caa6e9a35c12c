// Tests for the online serving subsystem (src/serve): the deterministic
// sharded merge, the bounded queue / micro-batcher concurrency, admission
// control, deadline enforcement, graceful shutdown, and shard persistence.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <future>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/kway_merge.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/hnsw.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/flight_recorder.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/serve_engine.h"
#include "serve/shard_router.h"

namespace ganns {
namespace serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 600;
  static constexpr std::size_t kQueries = 20;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), kN, 11));
    queries_ = std::make_unique<data::Dataset>(
        data::GenerateQueries(data::PaperDataset("SIFT1M"), kQueries, kN, 11));
  }

  QueryRequest MakeRequest(std::size_t q, std::size_t budget) const {
    QueryRequest request;
    request.id = q;
    const auto point = queries_->Point(static_cast<VertexId>(q));
    request.query.assign(point.begin(), point.end());
    request.k = kK;
    request.budget = budget;
    return request;
  }

  std::vector<RoutedQuery> RoutedQueries(std::size_t budget) const {
    std::vector<RoutedQuery> routed(kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      routed[q].query = queries_->Point(static_cast<VertexId>(q));
      routed[q].k = kK;
      routed[q].budget = budget;
    }
    return routed;
  }

  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<data::Dataset> queries_;
};

TEST(TopKMergeTest, MergesDisjointSortedRows) {
  const std::vector<std::vector<graph::Neighbor>> rows = {
      {{0.1f, 0}, {0.5f, 2}},
      {{0.2f, 10}, {0.5f, 11}, {0.9f, 12}},
      {},
  };
  const auto merged = common::MergeTopK<graph::Neighbor>(rows, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 0u);
  EXPECT_EQ(merged[1].id, 10u);
  // Equal distances break ties by id: 2 < 11.
  EXPECT_EQ(merged[2].id, 2u);
  EXPECT_EQ(merged[3].id, 11u);
}

// (a) With an exhaustive budget (every shard can visit its whole slice),
// the sharded merge must equal brute-force ground truth exactly — and
// therefore any two shard counts are bit-identical to each other.
TEST_F(ServeTest, ShardedMergeMatchesSingleShardGroundTruth) {
  const data::GroundTruth truth = data::BruteForceKnn(*base_, *queries_, kK);
  // Per-shard budget >= shard size for both shard counts (1024 for n=1,
  // 341 for n=3), so every shard's beam covers its whole slice — while
  // staying inside the kernel's simulated shared-memory limit.
  const std::size_t exhaustive = 1024;
  const auto routed = RoutedQueries(exhaustive);

  std::vector<std::vector<std::vector<graph::Neighbor>>> per_count;
  for (const std::size_t shards : {1u, 3u}) {
    ShardedIndex index = ShardedIndex::Build(*base_, shards, {});
    per_count.push_back(index.SearchBatch(routed, core::SearchKernel::kGanns));
    ASSERT_EQ(per_count.back().size(), kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const auto& row = per_count.back()[q];
      ASSERT_EQ(row.size(), kK) << "shards=" << shards << " q=" << q;
      for (std::size_t i = 0; i < kK; ++i) {
        EXPECT_EQ(row[i].id, truth.neighbors[q][i])
            << "shards=" << shards << " q=" << q << " rank=" << i;
      }
    }
  }
  EXPECT_EQ(per_count[0], per_count[1]);
}

// Batched concurrent execution must be bit-identical to the single-threaded
// index-ordered reference, at a non-exhaustive budget where approximation
// (but not scheduling) shapes the result.
TEST_F(ServeTest, BatchExecutionMatchesSerialReference) {
  ShardedIndex index = ShardedIndex::Build(*base_, 3, {});
  const auto routed = RoutedQueries(64);
  const auto batched = index.SearchBatch(routed, core::SearchKernel::kGanns);
  const auto serial = index.SearchSerial(routed, core::SearchKernel::kGanns);
  EXPECT_EQ(batched, serial);

  // Host scheduling never leaks into simulated time: two stats-collecting
  // runs of the same batch charge identical cycles and per-query hardness,
  // however the pool interleaved the shards' blocks.
  RouteStats first;
  RouteStats second;
  EXPECT_EQ(index.SearchBatch(routed, core::SearchKernel::kGanns, &first),
            serial);
  EXPECT_EQ(index.SearchBatch(routed, core::SearchKernel::kGanns, &second),
            serial);
  EXPECT_GT(first.sim_cycles, 0.0);
  EXPECT_EQ(first.sim_cycles, second.sim_cycles);
  ASSERT_EQ(first.shards.size(), second.shards.size());
  for (std::size_t s = 0; s < first.shards.size(); ++s) {
    EXPECT_EQ(first.shards[s].sim_cycles, second.shards[s].sim_cycles);
  }
  ASSERT_EQ(first.hardness.size(), routed.size());
  ASSERT_EQ(second.hardness.size(), routed.size());
  for (std::size_t q = 0; q < routed.size(); ++q) {
    const graph::QueryHardness& a = first.hardness[q];
    const graph::QueryHardness& b = second.hardness[q];
    EXPECT_EQ(a.entry_distance, b.entry_distance) << "q=" << q;
    EXPECT_EQ(a.early_fanout, b.early_fanout) << "q=" << q;
    EXPECT_EQ(a.visited, b.visited) << "q=" << q;
    EXPECT_EQ(a.budget, b.budget) << "q=" << q;
  }
}

// (b) Concurrent submitters racing into the engine get exactly the answers
// the offline router computes; batching composition never leaks into
// results.
TEST_F(ServeTest, ConcurrentSubmittersGetDeterministicResults) {
  constexpr std::size_t kSubmitters = 4;
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  const auto expected =
      index.SearchSerial(RoutedQueries(64), core::SearchKernel::kGanns);

  ServeOptions options;
  options.max_batch = 7;  // force batches that mix submitter streams
  ServeEngine engine(index, options);
  engine.Start();

  std::vector<std::future<QueryResponse>> futures(kQueries);
  std::mutex futures_mutex;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t q = t; q < kQueries; q += kSubmitters) {
        auto future = engine.Submit(MakeRequest(q, 64));
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures[q] = std::move(future);
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  for (std::size_t q = 0; q < kQueries; ++q) {
    const QueryResponse response = futures[q].get();
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.id, q);
    EXPECT_EQ(response.neighbors, expected[q]) << "q=" << q;
    EXPECT_GE(response.batch_size, 1u);
  }
  engine.Shutdown();
  EXPECT_EQ(engine.counters().served, kQueries);

  // Paced arrivals, the light-load end of an open loop: one request in
  // flight at a time, so the window flushes every batch at size 1. The
  // answers and the served count must not change.
  ServeEngine paced(index, ServeOptions{});
  paced.Start();
  for (std::size_t q = 0; q < kQueries; ++q) {
    const QueryResponse response = paced.Submit(MakeRequest(q, 64)).get();
    EXPECT_EQ(response.status, StatusCode::kOk);
    EXPECT_EQ(response.batch_size, 1u);
    EXPECT_EQ(response.neighbors, expected[q]) << "q=" << q;
  }
  paced.Shutdown();
  EXPECT_EQ(paced.counters().served, kQueries);
}

// (c) Admission control: beyond queue_capacity pending requests,
// submissions are rejected immediately with kRejected. Submitting before
// Start() makes the fill deterministic.
TEST_F(ServeTest, AdmissionControlRejectsAtCapacity) {
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeOptions options;
  options.queue_capacity = 3;
  ServeEngine engine(index, options);

  std::vector<std::future<QueryResponse>> futures;
  for (std::size_t q = 0; q < 8; ++q) {
    futures.push_back(engine.Submit(MakeRequest(q, 64)));
  }
  // The overflow futures are already resolved, before the engine even runs.
  for (std::size_t q = options.queue_capacity; q < 8; ++q) {
    ASSERT_EQ(futures[q].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[q].get().status, StatusCode::kRejected);
  }

  engine.Start();
  for (std::size_t q = 0; q < options.queue_capacity; ++q) {
    EXPECT_EQ(futures[q].get().status, StatusCode::kOk);
  }
  engine.Shutdown();
  const ServeCounters counters = engine.counters();
  EXPECT_EQ(counters.admitted, options.queue_capacity);
  EXPECT_EQ(counters.rejected, 8 - options.queue_capacity);
  EXPECT_EQ(counters.served, options.queue_capacity);
}

// (d) A request whose deadline passed while it queued is answered
// kDeadlineExceeded and never dispatched to a kernel.
TEST_F(ServeTest, ExpiredRequestsNeverReachAKernel) {
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  const std::uint64_t searches_before = index.kernel_queries();

  ServeEngine engine(index, {});
  std::vector<std::future<QueryResponse>> futures;
  for (std::size_t q = 0; q < 5; ++q) {
    QueryRequest request = MakeRequest(q, 64);
    request.deadline = ServeClock::now() - std::chrono::milliseconds(1);
    futures.push_back(engine.Submit(std::move(request)));
  }
  engine.Start();
  for (auto& future : futures) {
    const QueryResponse response = future.get();
    EXPECT_EQ(response.status, StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(response.neighbors.empty());
    EXPECT_EQ(response.batch_size, 0u);
  }
  engine.Shutdown();
  EXPECT_EQ(index.kernel_queries(), searches_before);
  EXPECT_EQ(engine.counters().expired, 5u);
  EXPECT_EQ(engine.counters().served, 0u);
}

// (e) Shutdown closes admission but drains everything already accepted;
// submissions after shutdown resolve immediately with kShutdown.
TEST_F(ServeTest, ShutdownDrainsInFlightWork) {
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeEngine engine(index, {});
  std::vector<std::future<QueryResponse>> futures;
  for (std::size_t q = 0; q < kQueries; ++q) {
    futures.push_back(engine.Submit(MakeRequest(q, 64)));
  }
  engine.Start();
  engine.Shutdown();  // close + drain + join

  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(future.get().status, StatusCode::kOk);
  }
  EXPECT_EQ(engine.counters().served, kQueries);

  auto late = engine.Submit(MakeRequest(0, 64));
  ASSERT_EQ(late.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(late.get().status, StatusCode::kShutdown);
}

TEST_F(ServeTest, ShardPersistenceRoundtrip) {
  const std::string prefix = ::testing::TempDir() + "/serve_shards";
  ShardedIndex built = ShardedIndex::Build(*base_, 2, {});
  const auto routed = RoutedQueries(64);
  const auto before = built.SearchBatch(routed, core::SearchKernel::kGanns);
  ASSERT_TRUE(built.SaveShards(prefix));

  auto loaded = ShardedIndex::LoadShards(prefix, *base_, 2, {});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->SearchBatch(routed, core::SearchKernel::kGanns), before);

  // Truncation is detected, not crashed on.
  ASSERT_EQ(std::remove((prefix + ".shard1").c_str()), 0);
  std::FILE* stub = std::fopen((prefix + ".shard1").c_str(), "wb");
  ASSERT_NE(stub, nullptr);
  std::fputs("short", stub);
  std::fclose(stub);
  EXPECT_FALSE(ShardedIndex::LoadShards(prefix, *base_, 2, {}).has_value());
  std::remove((prefix + ".shard0").c_str());
  std::remove((prefix + ".shard1").c_str());
}

TEST_F(ServeTest, HnswGraphStreamRoundtrip) {
  graph::HnswParams params;
  const graph::HnswGraph built =
      std::move(graph::BuildHnswCpu(*base_, params).graph);
  const std::string path = ::testing::TempDir() + "/hnsw.bin";
  ASSERT_TRUE(built.SaveTo(path));

  const auto loaded = graph::HnswGraph::LoadFrom(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_vertices(), built.num_vertices());
  EXPECT_EQ(loaded->max_level(), built.max_level());
  EXPECT_EQ(loaded->entry(), built.entry());
  for (VertexId v = 0; v < static_cast<VertexId>(kN); ++v) {
    ASSERT_EQ(loaded->level(v), built.level(v)) << "v=" << v;
  }
  for (int l = 0; l <= built.max_level(); ++l) {
    for (VertexId v = 0; v < static_cast<VertexId>(kN); ++v) {
      if (built.level(v) < l) continue;
      const auto a = built.layer(l).Neighbors(v);
      const auto b = loaded->layer(l).Neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "l=" << l << " v=" << v;
    }
  }

  // A truncated file is rejected cleanly.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  std::FILE* stub = std::fopen(path.c_str(), "wb");
  const std::uint64_t magic_only = 0x57534e4847ULL;
  std::fwrite(&magic_only, sizeof(magic_only), 1, stub);
  std::fclose(stub);
  EXPECT_FALSE(graph::HnswGraph::LoadFrom(path).has_value());
  std::remove(path.c_str());
}

TEST(BoundedQueueTest, PushPopCloseSemantics) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.Push(1), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.Push(2), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.Push(3), BoundedQueue<int>::PushResult::kFull);

  queue.Close();
  EXPECT_EQ(queue.Push(4), BoundedQueue<int>::PushResult::kClosed);

  int out = 0;
  EXPECT_EQ(queue.Pop(out), BoundedQueue<int>::PopResult::kItem);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(queue.Pop(out), BoundedQueue<int>::PopResult::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(queue.Pop(out), BoundedQueue<int>::PopResult::kClosed);
}

TEST(BoundedQueueTest, RejectionsAreCounted) {
  BoundedQueue<int> queue(2);
  EXPECT_EQ(queue.dropped(), 0u);
  EXPECT_EQ(queue.Push(1), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.Push(2), BoundedQueue<int>::PushResult::kOk);
  EXPECT_EQ(queue.Push(3), BoundedQueue<int>::PushResult::kFull);
  EXPECT_EQ(queue.Push(4), BoundedQueue<int>::PushResult::kFull);
  EXPECT_EQ(queue.dropped(), 2u);

  int out = 0;
  EXPECT_EQ(queue.Pop(out), BoundedQueue<int>::PopResult::kItem);
  EXPECT_EQ(queue.Push(5), BoundedQueue<int>::PushResult::kOk);
  queue.Close();
  // Closed is a lifecycle outcome, not an admission loss: not a drop.
  EXPECT_EQ(queue.Push(6), BoundedQueue<int>::PushResult::kClosed);
  EXPECT_EQ(queue.dropped(), 2u);
}

TEST(MicroBatcherTest, FlushesOnSizeCap) {
  BoundedQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(queue.Push(i), BoundedQueue<int>::PushResult::kOk);
  MicroBatcher<int> batcher(queue, 4, std::chrono::microseconds(0));
  EXPECT_EQ(batcher.NextBatch().size(), 4u);
  EXPECT_EQ(batcher.NextBatch().size(), 4u);
  EXPECT_EQ(batcher.NextBatch().size(), 2u);  // greedy drain of the rest
  queue.Close();
  EXPECT_TRUE(batcher.NextBatch().empty());
}

TEST(MicroBatcherTest, WindowBoundsTheWait) {
  BoundedQueue<int> queue(16);
  ASSERT_EQ(queue.Push(42), BoundedQueue<int>::PushResult::kOk);
  MicroBatcher<int> batcher(queue, 8, std::chrono::microseconds(2000));
  const auto start = ServeClock::now();
  const auto batch = batcher.NextBatch();
  const auto waited = ServeClock::now() - start;
  EXPECT_EQ(batch.size(), 1u);  // window expired with one request
  EXPECT_GE(waited, std::chrono::microseconds(1500));
}

// ---------------------------------------------------------------------------
// Request-level tracing and SLO accounting.
// ---------------------------------------------------------------------------

TEST(ParseTraceSampleTest, AcceptsBothFormsAndRejectsGarbage) {
  EXPECT_EQ(ParseTraceSample(nullptr), 1u);
  EXPECT_EQ(ParseTraceSample(""), 1u);
  EXPECT_EQ(ParseTraceSample("0"), 1u);
  EXPECT_EQ(ParseTraceSample("junk"), 1u);
  EXPECT_EQ(ParseTraceSample("7"), 7u);
  EXPECT_EQ(ParseTraceSample("1/16"), 16u);
}

/// Saves and restores the process-wide tracing/metrics switches and clears
/// the global recorder/registry, so assertions see only this test's events.
class ServeTraceTest : public ServeTest {
 protected:
  void SetUp() override {
    ServeTest::SetUp();
    was_tracing_ = obs::TracingEnabled();
    was_metrics_ = obs::MetricsEnabled();
    obs::TraceRecorder::Global().Clear();
    obs::MetricsRegistry::Global().Reset();
  }

  void TearDown() override {
    obs::SetTracingEnabled(was_tracing_);
    obs::SetMetricsEnabled(was_metrics_);
    obs::TraceRecorder::Global().Clear();
  }

  /// Submits requests 0..count-1 before Start — with the default max_batch
  /// of 32 they form one deterministic batch — then drains and returns the
  /// responses in id order.
  std::vector<QueryResponse> RunAll(ServeEngine& engine, std::size_t count) {
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(count);
    for (std::size_t q = 0; q < count; ++q) {
      futures.push_back(engine.Submit(MakeRequest(q, 64)));
    }
    engine.Start();
    engine.Shutdown();
    std::vector<QueryResponse> responses;
    responses.reserve(count);
    for (auto& future : futures) responses.push_back(future.get());
    return responses;
  }

  /// Recorded events on per-request tracks of the serving process, keyed by
  /// track id.
  static std::map<std::int32_t, std::vector<obs::TraceEvent>> RequestTracks() {
    std::map<std::int32_t, std::vector<obs::TraceEvent>> tracks;
    for (const obs::TraceEvent& event : obs::TraceRecorder::Global().Snapshot()) {
      if (event.pid == obs::kServePid &&
          event.tid >= obs::kServeRequestTrackBase) {
        tracks[event.tid].push_back(event);
      }
    }
    return tracks;
  }

  static std::size_t CountByName(const std::vector<obs::TraceEvent>& events,
                                 std::string_view name) {
    std::size_t count = 0;
    for (const obs::TraceEvent& event : events) {
      if (obs::NameOf(event.name) == name) ++count;
    }
    return count;
  }

  bool was_tracing_ = false;
  bool was_metrics_ = false;
};

// Every served request resolves to exactly one complete span tree on its own
// track: a serve.request root carrying the id, with queue-wait, batch
// formation, shard fan-out (one child per shard), and merge nested inside.
TEST_F(ServeTraceTest, TracedRequestsYieldCompleteSpanTrees) {
  obs::SetTracingEnabled(true);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeEngine engine(index, {});
  const auto responses = RunAll(engine, kQueries);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, StatusCode::kOk);
  }

  const auto tracks = RequestTracks();
  ASSERT_EQ(tracks.size(), kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    const auto it = tracks.find(obs::ServeRequestTrack(q));
    ASSERT_NE(it, tracks.end()) << "q=" << q;
    const auto& events = it->second;

    const obs::TraceEvent* root = nullptr;
    for (const obs::TraceEvent& event : events) {
      if (obs::NameOf(event.name) == "serve.request") {
        EXPECT_EQ(root, nullptr) << "duplicate root, q=" << q;
        root = &event;
      }
    }
    ASSERT_NE(root, nullptr) << "q=" << q;
    EXPECT_EQ(root->arg, static_cast<std::int64_t>(q));

    EXPECT_EQ(CountByName(events, "serve.queue_wait"), 1u) << "q=" << q;
    EXPECT_EQ(CountByName(events, "serve.batch_form"), 1u) << "q=" << q;
    EXPECT_EQ(CountByName(events, "serve.shard_fanout"), 1u) << "q=" << q;
    EXPECT_EQ(CountByName(events, "serve.shard_search"), 2u) << "q=" << q;
    EXPECT_EQ(CountByName(events, "serve.merge"), 1u) << "q=" << q;
    // Every stage nests inside the root's [submit, done] interval.
    for (const obs::TraceEvent& event : events) {
      EXPECT_GE(event.ts, root->ts - 0.1);
      EXPECT_LE(event.ts + event.dur, root->ts + root->dur + 0.1);
    }
  }
}

// Requests that never reach a kernel close their tree with a terminal
// instant (serve.expired / serve.rejected) and never emit fan-out, shard, or
// merge spans.
TEST_F(ServeTraceTest, TerminalRequestsEmitTerminalSpansOnly) {
  obs::SetTracingEnabled(true);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});

  {
    ServeEngine engine(index, {});
    std::vector<std::future<QueryResponse>> futures;
    for (std::size_t q = 0; q < 5; ++q) {
      QueryRequest request = MakeRequest(q, 64);
      request.deadline = ServeClock::now() - std::chrono::milliseconds(1);
      futures.push_back(engine.Submit(std::move(request)));
    }
    engine.Start();
    engine.Shutdown();
    for (auto& future : futures) {
      EXPECT_EQ(future.get().status, StatusCode::kDeadlineExceeded);
    }

    const auto tracks = RequestTracks();
    ASSERT_EQ(tracks.size(), 5u);
    for (const auto& [tid, events] : tracks) {
      EXPECT_EQ(CountByName(events, "serve.request"), 1u);
      EXPECT_EQ(CountByName(events, "serve.expired"), 1u);
      EXPECT_EQ(CountByName(events, "serve.shard_fanout"), 0u);
      EXPECT_EQ(CountByName(events, "serve.shard_search"), 0u);
      EXPECT_EQ(CountByName(events, "serve.merge"), 0u);
    }
  }

  obs::TraceRecorder::Global().Clear();
  {
    ServeOptions options;
    options.queue_capacity = 3;
    ServeEngine engine(index, options);
    std::vector<std::future<QueryResponse>> futures;
    for (std::size_t q = 0; q < 8; ++q) {
      futures.push_back(engine.Submit(MakeRequest(q, 64)));
    }
    engine.Start();
    engine.Shutdown();

    const auto tracks = RequestTracks();
    for (std::size_t q = options.queue_capacity; q < 8; ++q) {
      EXPECT_EQ(futures[q].get().status, StatusCode::kRejected);
      const auto it = tracks.find(obs::ServeRequestTrack(q));
      ASSERT_NE(it, tracks.end()) << "q=" << q;
      EXPECT_EQ(CountByName(it->second, "serve.request"), 1u);
      EXPECT_EQ(CountByName(it->second, "serve.rejected"), 1u);
      EXPECT_EQ(CountByName(it->second, "serve.shard_search"), 0u);
      EXPECT_EQ(CountByName(it->second, "serve.merge"), 0u);
    }
  }
}

// Sampling is a pure function of the request id: with trace_sample = 3,
// exactly the ids divisible by 3 own span trees.
TEST_F(ServeTraceTest, TraceSamplingIsDeterministicByRequestId) {
  obs::SetTracingEnabled(true);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeOptions options;
  options.trace_sample = 3;
  ServeEngine engine(index, options);
  RunAll(engine, kQueries);

  const auto tracks = RequestTracks();
  for (std::size_t q = 0; q < kQueries; ++q) {
    const bool sampled = q % 3 == 0;
    EXPECT_EQ(tracks.count(obs::ServeRequestTrack(q)), sampled ? 1u : 0u)
        << "q=" << q;
  }
  EXPECT_EQ(tracks.size(), (kQueries + 2) / 3);
}

// Instrumentation observes, it never participates: enabling tracing and
// metrics changes neither the neighbors any request receives nor the
// simulated cycle total the batch is charged.
TEST_F(ServeTraceTest, InstrumentationChargesNoCyclesAndPreservesResults) {
  // Disable before Build too: under GANNS_TRACING=1 construction kernels
  // would otherwise fill the recorder before the baseline run.
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});

  std::vector<std::vector<graph::Neighbor>> baseline;
  double baseline_sim_seconds = 0;
  {
    ServeEngine engine(index, {});
    for (const auto& response : RunAll(engine, kQueries)) {
      ASSERT_EQ(response.status, StatusCode::kOk);
      baseline.push_back(response.neighbors);
    }
    baseline_sim_seconds = engine.total_sim_seconds();
  }
  EXPECT_EQ(obs::TraceRecorder::Global().size(), 0u);

  obs::SetTracingEnabled(true);
  obs::SetMetricsEnabled(true);
  {
    ServeEngine engine(index, {});
    const auto responses = RunAll(engine, kQueries);
    ASSERT_EQ(responses.size(), baseline.size());
    for (std::size_t q = 0; q < responses.size(); ++q) {
      EXPECT_EQ(responses[q].neighbors, baseline[q]) << "q=" << q;
    }
    // Same batch composition => bit-identical simulated device time.
    EXPECT_EQ(engine.total_sim_seconds(), baseline_sim_seconds);
  }
  EXPECT_GT(obs::TraceRecorder::Global().size(), 0u);
}

// The serve.latency_us HDR histogram reports exactly the documented
// nearest-rank quantiles of the recorded (truncated) response latencies, and
// its exemplars link the tail back to real request ids.
TEST_F(ServeTraceTest, ServeLatencyHdrMatchesOfflineQuantiles) {
  obs::SetMetricsEnabled(true);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeEngine engine(index, {});
  const auto responses = RunAll(engine, kQueries);

  std::vector<std::uint64_t> latencies;
  std::map<std::uint64_t, std::uint64_t> latency_by_id;
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, StatusCode::kOk);
    const auto truncated =
        static_cast<std::uint64_t>(std::max(0.0, response.latency_us));
    latencies.push_back(truncated);
    latency_by_id[response.id] = truncated;
  }
  std::sort(latencies.begin(), latencies.end());

  const obs::HdrHistogram& hdr =
      obs::MetricsRegistry::Global().GetHdr("serve.latency_us");
  EXPECT_EQ(hdr.count(), kQueries);
  for (const double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies.size())));
    if (rank < 1) rank = 1;
    const std::uint64_t expected = std::min(
        obs::HdrHistogram::HighestEquivalent(latencies[rank - 1]),
        latencies.back());
    EXPECT_EQ(hdr.ValueAtQuantile(q), expected) << "q=" << q;
  }

  const auto exemplars = hdr.exemplars();
  ASSERT_FALSE(exemplars.empty());
  EXPECT_EQ(exemplars[0].value, latencies.back());
  for (const auto& exemplar : exemplars) {
    ASSERT_TRUE(latency_by_id.count(exemplar.id)) << exemplar.id;
    EXPECT_EQ(latency_by_id[exemplar.id], exemplar.value);
  }
}

// The engine publishes queue saturation (depth / capacity) next to the
// depth gauge: the serve time-series reads it as its queue_gauge.
TEST_F(ServeTraceTest, QueueSaturationGaugeIsDepthOverCapacity) {
  obs::SetMetricsEnabled(true);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeOptions options;
  options.queue_capacity = 4;
  ServeEngine engine(index, options);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();

  std::vector<std::future<QueryResponse>> futures;
  for (std::size_t q = 0; q < 3; ++q) {
    futures.push_back(engine.Submit(MakeRequest(q, 64)));
  }
  EXPECT_DOUBLE_EQ(registry.GetGauge("serve.queue_depth").value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("serve.queue_saturation").value(), 0.75);

  engine.Start();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status, StatusCode::kOk);
  }
  engine.Shutdown();
  // The batcher drained the queue, and saturation followed the depth down.
  EXPECT_DOUBLE_EQ(registry.GetGauge("serve.queue_saturation").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Tail-based flight recorder.
// ---------------------------------------------------------------------------

/// Isolates the process-wide flight recorder: saves and restores its
/// configuration and enabled state, and clears its rings around every test.
class FlightRecorderTest : public ServeTraceTest {
 protected:
  void SetUp() override {
    ServeTraceTest::SetUp();
    FlightRecorder& recorder = FlightRecorder::Global();
    was_enabled_ = recorder.enabled();
    old_options_ = recorder.options();
    recorder.SetEnabled(false);
    recorder.Clear();
  }

  void TearDown() override {
    FlightRecorder& recorder = FlightRecorder::Global();
    recorder.SetEnabled(was_enabled_);
    recorder.Clear();
    recorder.Configure(old_options_);
    ServeTraceTest::TearDown();
  }

  static FlightRequest MakeRecord(std::uint64_t id, StatusCode status,
                                  double latency_us,
                                  std::uint64_t deadline_us) {
    FlightRequest record;
    record.id = id;
    record.status = status;
    record.latency_us = latency_us;
    record.deadline_us = deadline_us;
    return record;
  }

  bool was_enabled_ = false;
  FlightRecorderOptions old_options_;
};

TEST_F(FlightRecorderTest, ViolationRuleMatchesContract) {
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorderOptions options;
  options.deadline_fraction = 0.5;
  options.default_deadline_us = 0;
  recorder.Configure(options);
  recorder.SetEnabled(true);

  recorder.RecordRequest(MakeRecord(1, StatusCode::kOk, 400, 1000));
  recorder.RecordRequest(MakeRecord(2, StatusCode::kOk, 600, 1000));
  recorder.RecordRequest(MakeRecord(3, StatusCode::kRejected, 0, 0));
  recorder.RecordRequest(MakeRecord(4, StatusCode::kDeadlineExceeded, 0, 0));
  // Shutdown is a lifecycle outcome, never a violation — even when slow.
  recorder.RecordRequest(MakeRecord(5, StatusCode::kShutdown, 1e9, 1));
  // No deadline and no default budget: served requests cannot violate.
  recorder.RecordRequest(MakeRecord(6, StatusCode::kOk, 1e9, 0));

  const FlightCounters counters = recorder.counters();
  EXPECT_EQ(counters.recorded, 6u);
  EXPECT_EQ(counters.violators, 3u);
  EXPECT_EQ(counters.persisted, 3u);
  const std::vector<FlightRequest> violators = recorder.Violators();
  ASSERT_EQ(violators.size(), 3u);
  EXPECT_EQ(violators[0].id, 2u);  // over the 0.5 * 1000us fraction
  EXPECT_EQ(violators[1].id, 3u);  // rejected: always a tail event
  EXPECT_EQ(violators[2].id, 4u);  // expired: always a tail event

  // A default budget makes deadline-less served requests eligible again.
  options.default_deadline_us = 100;
  recorder.Configure(options);
  recorder.RecordRequest(MakeRecord(7, StatusCode::kOk, 60, 0));
  EXPECT_EQ(recorder.counters().violators, 4u);
}

TEST_F(FlightRecorderTest, EveryBoundedBufferCountsItsEvictions) {
  obs::SetMetricsEnabled(true);
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorderOptions options;
  options.request_capacity = 2;
  options.batch_capacity = 1;
  options.deadline_fraction = 0.5;
  recorder.Configure(options);
  recorder.SetEnabled(true);

  // 5 non-violators through a 2-slot request ring: 3 evictions.
  for (std::uint64_t id = 1; id <= 5; ++id) {
    recorder.RecordRequest(MakeRecord(id, StatusCode::kOk, 1, 1000));
  }
  // 2 batch contexts through a 1-slot batch ring: 1 eviction.
  for (std::uint64_t seq = 1; seq <= 2; ++seq) {
    FlightBatch batch;
    batch.seq = seq;
    recorder.RecordBatch(std::move(batch));
  }
  // 5 violators against a persisted list capped at request_capacity = 2.
  for (std::uint64_t id = 10; id <= 14; ++id) {
    recorder.RecordRequest(MakeRecord(id, StatusCode::kRejected, 0, 0));
  }

  const FlightCounters counters = recorder.counters();
  EXPECT_EQ(counters.recorded, 10u);
  EXPECT_EQ(counters.overwritten, 8u);
  EXPECT_EQ(counters.batches, 2u);
  EXPECT_EQ(counters.batches_overwritten, 1u);
  EXPECT_EQ(counters.violators, 5u);
  EXPECT_EQ(counters.persisted, 2u);
  EXPECT_EQ(counters.persisted_dropped, 3u);

  // The evictions mirror into the registry, so the cumulative views and the
  // time-series windows expose the loss too.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("serve.flight.overwritten").value(), 8u);
  EXPECT_EQ(registry.GetCounter("serve.flight.batches_overwritten").value(),
            1u);
}

// The tail path end to end: with head-sampling off and an SLO every request
// busts, each served request must land in the flight dump with its complete
// span tree and hardness record, retroactively flushed into the trace.
TEST_F(FlightRecorderTest, EnginePersistsViolatorsWithSpansAndHardness) {
  obs::SetTracingEnabled(false);  // tail-only: no head sampling anywhere
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorderOptions options;
  options.deadline_fraction = 1e-9;
  options.default_deadline_us = 1;
  recorder.Configure(options);
  recorder.SetEnabled(true);

  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeEngine engine(index, {});
  const auto responses = RunAll(engine, kQueries);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, StatusCode::kOk);
  }

  const FlightCounters counters = recorder.counters();
  EXPECT_EQ(counters.recorded, kQueries);
  EXPECT_EQ(counters.violators, kQueries);
  EXPECT_EQ(counters.persisted, kQueries);
  EXPECT_EQ(counters.batches, 1u);  // kQueries < max_batch: one batch

  const std::vector<FlightRequest> violators = recorder.Violators();
  ASSERT_EQ(violators.size(), kQueries);
  for (const FlightRequest& violator : violators) {
    EXPECT_GT(violator.latency_us, 0.0) << violator.id;
    EXPECT_EQ(violator.batch_seq, 1u);
    EXPECT_EQ(violator.batch_size, kQueries);
    EXPECT_FALSE(violator.sampled);  // tracing off: tail-only capture
    ASSERT_TRUE(violator.hardness_valid) << violator.id;
    EXPECT_GT(violator.hardness.budget, 0u);
    EXPECT_GE(violator.hardness.visited, 1u);
    // Full journey: root + queue_wait + batch_form + shard_fanout +
    // 2x shard_search + merge — exactly what head sampling would emit.
    EXPECT_EQ(violator.spans.size(), 7u) << violator.id;
    std::size_t roots = 0;
    for (const obs::TraceEvent& span : violator.spans) {
      if (obs::NameOf(span.name) == "serve.request") ++roots;
    }
    EXPECT_EQ(roots, 1u) << violator.id;
  }

  // Retroactive flush: every violator's tree is now in the trace recorder
  // even though no request was head-sampled.
  EXPECT_EQ(RequestTracks().size(), kQueries);

  // Hardness-vs-latency exemplars: one line per ring request, all violators.
  const std::string jsonl = recorder.HardnessJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'),
            static_cast<std::ptrdiff_t>(kQueries));
  EXPECT_NE(jsonl.find("\"violator\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"entry_distance\":"), std::string::npos);

  // The dump carries all four sections schema_check flight validates.
  const std::string dump = recorder.ToJson();
  for (const char* section :
       {"\"options\":", "\"counters\":", "\"violators\":", "\"batches\":"}) {
    EXPECT_NE(dump.find(section), std::string::npos) << section;
  }
}

// Head sampling and the flight recorder share one span tree per request; a
// violator that live tracing already recorded must not be flushed again —
// the exported trace keeps exactly one serve.request root per track.
TEST_F(FlightRecorderTest, HeadSampledViolatorsAreNotDoubleFlushed) {
  obs::SetTracingEnabled(true);
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorderOptions options;
  options.deadline_fraction = 1e-9;
  options.default_deadline_us = 1;
  recorder.Configure(options);
  recorder.SetEnabled(true);

  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeOptions serve_options;
  serve_options.trace_sample = 2;  // even ids head-sampled, odd ids not
  ServeEngine engine(index, serve_options);
  RunAll(engine, kQueries);

  const auto tracks = RequestTracks();
  ASSERT_EQ(tracks.size(), kQueries);  // sampled + tail-flushed together
  for (const auto& [tid, events] : tracks) {
    EXPECT_EQ(CountByName(events, "serve.request"), 1u) << "tid=" << tid;
    EXPECT_EQ(CountByName(events, "serve.merge"), 1u) << "tid=" << tid;
  }
  for (const FlightRequest& violator : recorder.Violators()) {
    EXPECT_EQ(violator.sampled, violator.id % 2 == 0) << violator.id;
  }
}

// Flight recording must not move results: neighbors are bit-identical with
// the recorder on and off (it observes wall time, never simulated cycles).
TEST_F(FlightRecorderTest, RecordingDoesNotChangeResults) {
  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  FlightRecorder& recorder = FlightRecorder::Global();
  FlightRecorderOptions options;
  options.deadline_fraction = 1e-9;
  options.default_deadline_us = 1;
  recorder.Configure(options);

  const auto run = [&](bool enabled) {
    recorder.SetEnabled(enabled);
    ServeEngine engine(index, {});
    std::vector<QueryResponse> responses = RunAll(engine, kQueries);
    std::sort(responses.begin(), responses.end(),
              [](const QueryResponse& a, const QueryResponse& b) {
                return a.id < b.id;
              });
    return responses;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(recorder.counters().persisted, kQueries);

  ASSERT_EQ(off.size(), on.size());
  for (std::size_t q = 0; q < off.size(); ++q) {
    EXPECT_EQ(off[q].neighbors, on[q].neighbors) << "q=" << q;
  }
}

// ---------------------------------------------------------------------------
// Index lifecycle: online insert/delete, epoch snapshots, compaction.

class LifecycleTest : public ServeTest {
 protected:
  static ShardBuildOptions MutableOptions(bool host_updates,
                                          bool auto_compact) {
    ShardBuildOptions options;
    options.update.host_updates = host_updates;
    options.update.auto_compact = auto_compact;
    return options;
  }

  /// Brute-force oracle over an explicit survivor set: searches the index
  /// at an exhaustive budget and asserts the returned global ids equal the
  /// k nearest among `live` (a gid -> vector map).
  void ExpectMatchesSurvivors(
      ShardedIndex& index,
      const std::map<VertexId, std::vector<float>>& live) {
    data::Dataset survivors("survivors", base_->dim(), base_->metric());
    std::vector<VertexId> gid_of;
    survivors.Reserve(live.size());
    for (const auto& [gid, point] : live) {
      survivors.Append(point);
      gid_of.push_back(gid);
    }
    const data::GroundTruth truth =
        data::BruteForceKnn(survivors, *queries_, kK);
    const auto results =
        index.SearchBatch(RoutedQueries(1024), core::SearchKernel::kGanns);
    ASSERT_EQ(results.size(), kQueries);
    for (std::size_t q = 0; q < kQueries; ++q) {
      ASSERT_EQ(results[q].size(), std::min(kK, live.size())) << "q=" << q;
      for (std::size_t i = 0; i < results[q].size(); ++i) {
        EXPECT_EQ(results[q][i].id, gid_of[truth.neighbors[q][i]])
            << "q=" << q << " rank=" << i;
      }
    }
  }

  /// A deterministic mixed insert/remove interleaving applied to `index`,
  /// mirrored into `live`. Returns the ids inserted (in order).
  std::vector<VertexId> ApplyMixedWorkload(
      ShardedIndex& index, std::map<VertexId, std::vector<float>>& live) {
    const data::Dataset extra = data::GenerateBase(
        data::PaperDataset("SIFT1M"), 24, 29);
    std::vector<VertexId> inserted;
    std::size_t next_extra = 0;
    for (std::size_t i = 0; i < 48; ++i) {
      if (i % 2 == 0) {
        // Spread removals over initial ids and earlier inserts.
        const VertexId victim =
            (i % 4 == 0 || inserted.size() < 3)
                ? static_cast<VertexId>((i * 131) % kN)
                : inserted[(i / 2) % inserted.size()];
        const bool was_live = live.erase(victim) > 0;
        EXPECT_EQ(index.Remove(victim), was_live) << "victim=" << victim;
      } else {
        const auto point = extra.Point(static_cast<VertexId>(next_extra++));
        const auto gid = index.Insert(point);
        if (!gid.has_value()) {
          ADD_FAILURE() << "insert " << i << " found no free capacity";
          return inserted;
        }
        EXPECT_GE(*gid, kN);  // fresh ids extend the global space
        EXPECT_EQ(live.count(*gid), 0u);
        live[*gid] = {point.begin(), point.end()};
        inserted.push_back(*gid);
      }
    }
    return inserted;
  }

  std::map<VertexId, std::vector<float>> InitialLiveSet() const {
    std::map<VertexId, std::vector<float>> live;
    for (VertexId v = 0; v < static_cast<VertexId>(kN); ++v) {
      const auto point = base_->Point(v);
      live[v] = {point.begin(), point.end()};
    }
    return live;
  }
};

// (tentpole oracle) After an arbitrary insert/remove interleaving, search
// at an exhaustive budget returns exactly the brute-force nearest neighbors
// of the surviving point set — on both the charged device path and the host
// path. Double-removes and unknown ids are rejected without side effects.
TEST_F(LifecycleTest, MixedUpdatesMatchBruteForceOracle) {
  for (const bool host_updates : {false, true}) {
    ShardedIndex index =
        ShardedIndex::Build(*base_, 2, MutableOptions(host_updates, false));
    auto live = InitialLiveSet();
    const auto inserted = ApplyMixedWorkload(index, live);

    EXPECT_FALSE(index.Remove(static_cast<VertexId>(kN + 100000)));
    const VertexId gone = inserted[0];
    if (live.count(gone) == 0) EXPECT_FALSE(index.Remove(gone));

    EXPECT_EQ(index.size(), live.size());
    EXPECT_EQ(index.inserts(), inserted.size());
    if (!host_updates) EXPECT_GT(index.update_sim_seconds(), 0.0);
    ExpectMatchesSurvivors(index, live);
  }
}

// Readers never block on writers: a dedicated reader thread streams batches
// (the engine's serialized read path) while this thread applies updates.
// Every batch sees some fully consistent epoch — full rows, no torn graph.
// The TSan gate runs this test under the race detector.
TEST_F(LifecycleTest, WritesDoNotBlockConcurrentReads) {
  ShardedIndex index =
      ShardedIndex::Build(*base_, 2, MutableOptions(false, true));
  const auto routed = RoutedQueries(64);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> batches{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto results =
          index.SearchBatch(routed, core::SearchKernel::kGanns);
      ASSERT_EQ(results.size(), kQueries);
      for (const auto& row : results) ASSERT_EQ(row.size(), kK);
      batches.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const data::Dataset extra =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 20, 31);
  for (std::size_t i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      index.Remove(static_cast<VertexId>((i * 53) % kN));
    } else {
      ASSERT_TRUE(index.Insert(extra.Point(static_cast<VertexId>(i / 2)))
                      .has_value());
    }
  }
  // Let the reader observe the final state at least once more.
  const std::size_t seen = batches.load(std::memory_order_relaxed);
  while (batches.load(std::memory_order_relaxed) <= seen) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(batches.load(std::memory_order_relaxed), 0u);
}

// Background compaction fires once the tombstone fraction crosses the
// threshold, rebuilds the shard over the survivors, and search stays exact.
TEST_F(LifecycleTest, CompactionTriggersAtThreshold) {
  ShardBuildOptions options = MutableOptions(false, true);
  options.update.compact_threshold = 0.2;
  ShardedIndex index = ShardedIndex::Build(*base_, 1, options);
  auto live = InitialLiveSet();

  // Remove 25% of the corpus: crosses the 20% threshold mid-way.
  for (VertexId v = 0; v < static_cast<VertexId>(kN); v += 4) {
    ASSERT_TRUE(index.Remove(v));
    live.erase(v);
  }
  // The compactor may fire mid-workload and consume only the removals seen
  // so far; the settled invariant is that at least one compaction ran and
  // the fraction ends below the threshold (removals after a rebuild stay
  // tombstoned until they cross it again). Generous ceiling: the rebuild
  // takes well under a second here but tens of seconds under the
  // sanitizer gates.
  for (int i = 0; i < 18000 && (index.compactions() == 0 ||
                                index.TombstoneFraction(0) >=
                                    options.update.compact_threshold);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(index.compactions(), 1u);
  EXPECT_LT(index.TombstoneFraction(0), options.update.compact_threshold);
  EXPECT_EQ(index.size(), live.size());
  ExpectMatchesSurvivors(index, live);

  // Post-compaction ids still resolve: removing a survivor works, and the
  // freed slots take new inserts.
  ASSERT_TRUE(index.Remove(1));
  live.erase(1);
  const auto gid = index.Insert(base_->Point(0));
  ASSERT_TRUE(gid.has_value());
  const auto p0 = base_->Point(0);
  live[*gid] = {p0.begin(), p0.end()};
  ExpectMatchesSurvivors(index, live);
}

// A manual compaction is graph-identical to building from scratch over the
// surviving points: same construction pipeline, same parameters, survivors
// repacked in slot order.
TEST_F(LifecycleTest, CompactionMatchesFreshBuildOverSurvivors) {
  ShardedIndex index =
      ShardedIndex::Build(*base_, 1, MutableOptions(false, false));
  data::Dataset survivors("survivors", base_->dim(), base_->metric());
  for (VertexId v = 0; v < static_cast<VertexId>(kN); ++v) {
    if (v % 5 == 0) {
      ASSERT_TRUE(index.Remove(v));
    } else {
      survivors.Append(base_->Point(v));
    }
  }
  ASSERT_TRUE(index.Compact(0));
  EXPECT_FALSE(index.Compact(0));  // nothing left to reclaim

  ShardedIndex fresh =
      ShardedIndex::Build(survivors, 1, MutableOptions(false, false));
  const graph::ProximityGraph& a = index.shard_graph(0);
  const graph::ProximityGraph& b = fresh.shard_graph(0);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (VertexId v = 0; v < static_cast<VertexId>(a.num_vertices()); ++v) {
    ASSERT_EQ(a.Degree(v), b.Degree(v)) << "v=" << v;
    for (std::size_t i = 0; i < a.Degree(v); ++i) {
      ASSERT_EQ(a.Neighbors(v)[i], b.Neighbors(v)[i]) << "v=" << v;
      ASSERT_EQ(a.NeighborDists(v)[i], b.NeighborDists(v)[i]) << "v=" << v;
    }
  }
}

// A live-mutated index (inserts, removes, one compacted shard) survives
// SaveShards/LoadShards bit-exactly: same results, same id space, and the
// write path keeps working on the loaded copy.
TEST_F(LifecycleTest, MutatedShardPersistenceRoundtrip) {
  const std::string prefix = ::testing::TempDir() + "/lifecycle_shards";
  const ShardBuildOptions options = MutableOptions(false, false);
  ShardedIndex index = ShardedIndex::Build(*base_, 2, options);
  auto live = InitialLiveSet();
  const auto inserted = ApplyMixedWorkload(index, live);
  ASSERT_TRUE(index.Compact(0));

  const auto routed = RoutedQueries(1024);
  const auto before = index.SearchBatch(routed, core::SearchKernel::kGanns);
  ASSERT_TRUE(index.SaveShards(prefix));

  auto loaded = ShardedIndex::LoadShards(prefix, *base_, 2, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), index.size());
  EXPECT_EQ(loaded->SearchBatch(routed, core::SearchKernel::kGanns), before);

  // The id map is restored: a surviving inserted point can be removed, a
  // dead one cannot, and new ids never collide with saved ones.
  const VertexId survivor = *std::find_if(
      inserted.begin(), inserted.end(),
      [&](VertexId gid) { return live.count(gid) > 0; });
  EXPECT_TRUE(loaded->Remove(survivor));
  EXPECT_FALSE(loaded->Remove(survivor));
  const auto fresh_gid = loaded->Insert(base_->Point(0));
  ASSERT_TRUE(fresh_gid.has_value());
  EXPECT_EQ(live.count(*fresh_gid), 0u);

  std::remove((prefix + ".shard0").c_str());
  std::remove((prefix + ".shard1").c_str());
}

// A shard drained to zero live points serves empty rows (no kernel launch)
// and revives cleanly on the next insert.
TEST_F(LifecycleTest, EmptyShardServesNothingAndRevives) {
  const data::Dataset small =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 8, 5);
  ShardedIndex index =
      ShardedIndex::Build(small, 1, MutableOptions(false, false));
  for (VertexId v = 0; v < 8; ++v) ASSERT_TRUE(index.Remove(v));
  EXPECT_EQ(index.size(), 0u);

  const std::uint64_t launched = index.kernel_queries();
  std::vector<RoutedQuery> routed(1);
  routed[0].query = queries_->Point(0);
  routed[0].k = kK;
  routed[0].budget = 64;
  const auto empty = index.SearchBatch(routed, core::SearchKernel::kGanns);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty[0].empty());
  EXPECT_EQ(index.kernel_queries(), launched);  // nothing to search

  const auto gid = index.Insert(base_->Point(0));
  ASSERT_TRUE(gid.has_value());
  const auto revived = index.SearchBatch(routed, core::SearchKernel::kGanns);
  ASSERT_EQ(revived.size(), 1u);
  ASSERT_EQ(revived[0].size(), 1u);
  EXPECT_EQ(revived[0][0].id, *gid);
}

// Update latency histograms and the tombstone gauge are wired through the
// metrics registry — and only when metrics collection is enabled.
TEST_F(LifecycleTest, UpdateMetricsAreRecorded) {
  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Global().Reset();
  {
    ShardedIndex index =
        ShardedIndex::Build(*base_, 1, MutableOptions(false, false));
    ASSERT_TRUE(index.Insert(base_->Point(0)).has_value());
    ASSERT_TRUE(index.Remove(0));
    ASSERT_TRUE(index.Compact(0));
    auto& registry = obs::MetricsRegistry::Global();
    EXPECT_EQ(registry.GetHdr("update.insert_latency_us").count(), 1u);
    EXPECT_EQ(registry.GetHdr("update.remove_latency_us").count(), 1u);
    EXPECT_EQ(registry.GetCounter("serve.compactions").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.GetGauge("serve.tombstone_fraction").value(),
                     0.0);
  }
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().Reset();
}

}  // namespace
}  // namespace serve
}  // namespace ganns
