// Tests for the online serving subsystem (src/serve): the deterministic
// sharded merge, the bounded queue / micro-batcher concurrency, admission
// control, deadline enforcement, graceful shutdown, and shard persistence.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file.h"
#include "common/kway_merge.h"
#include "data/ground_truth.h"
#include "data/quantize.h"
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

  using Bytes = std::vector<char>;

  static Bytes ReadBytes(const std::string& path) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    Bytes bytes;
    if (file == nullptr) return bytes;
    char buf[1 << 14];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(file);
    return bytes;
  }

  static void WriteBytes(const std::string& path, const Bytes& bytes) {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
    std::fclose(file);
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

// The shard rows reader, over a file of more than three read chunks: dim 8
// rows arrive in place, dim 5 rows are spread to their padded stride. Both
// must equal row-by-row Append, read whole or in two calls that continue
// where the first stopped, and a short file, ending in the first chunk or
// mid-row inside a later one, must leave exactly its complete rows. It runs
// with the persistence cases (the serve_persistence stress entries and the
// sanitizer gates), since every shard load reads its rows through it.
TEST(DatasetTest, ReadRowsMatchesAppendAndStopsAtLastCompleteRow) {
  for (const std::size_t dim : {std::size_t{5}, std::size_t{8}}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const std::size_t rows = 3 * kReadChunkBytes / (dim * sizeof(float)) + 7;
    std::vector<float> flat(rows * dim);
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat[i] = static_cast<float>(i % 1000003) + 0.5f;
    }
    data::Dataset want("want", dim, data::Metric::kL2);
    for (std::size_t r = 0; r < rows; ++r) {
      want.Append(std::span<const float>(flat).subspan(r * dim, dim));
    }
    const std::vector<float> all(want.values().begin(), want.values().end());
    const std::size_t later_chunk_end =
        (2 * kReadChunkBytes + 1000) / sizeof(float) + dim / 2;
    for (const std::size_t stored :
         {rows * dim, dim * 2 + dim / 2, later_chunk_end}) {
      SCOPED_TRACE("stored floats " + std::to_string(stored));
      std::FILE* file = std::tmpfile();
      ASSERT_NE(file, nullptr);
      ASSERT_EQ(std::fwrite(flat.data(), sizeof(float), stored, file), stored);
      const std::size_t complete = stored / dim;
      for (const std::size_t first_call : {rows, rows / 3}) {
        std::rewind(file);
        data::Dataset got("got", dim, data::Metric::kL2);
        std::size_t read = got.ReadRows(file, first_call);
        if (first_call < rows) read += got.ReadRows(file, rows - first_call);
        EXPECT_EQ(read, complete);
        EXPECT_EQ(got.size(), complete);
        EXPECT_TRUE(std::equal(got.values().begin(), got.values().end(),
                               all.begin(),
                               all.begin() + complete * want.padded_dim()));
      }
      std::fclose(file);
    }
  }
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

// HNSW shards share the GSH3 container: a two-shard hierarchy, exact and
// sq8, reloads with default (NSW, float) options — kind and compression
// come from the files — and answers identically.
TEST_F(ServeTest, HnswShardPersistenceRoundtrip) {
  const std::string prefix = ::testing::TempDir() + "/hnsw_shards";
  const auto routed = RoutedQueries(64);
  for (const data::Precision precision :
       {data::Precision::kFloat32, data::Precision::kSq8}) {
    SCOPED_TRACE(data::PrecisionName(precision));
    ShardBuildOptions options;
    options.kind = core::GraphKind::kHnsw;
    options.quantize.precision = precision;
    ShardedIndex built = ShardedIndex::Build(*base_, 2, options);
    const auto before = built.SearchBatch(routed, core::SearchKernel::kGanns);
    ASSERT_TRUE(built.SaveShards(prefix));

    std::string error;
    auto loaded = ShardedIndex::LoadShards(prefix, *base_, 2, {}, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->size(), kN);
    EXPECT_EQ(loaded->resident_bytes_per_vector(),
              built.resident_bytes_per_vector());
    EXPECT_EQ(loaded->SearchBatch(routed, core::SearchKernel::kGanns),
              before);
  }
  std::remove((prefix + ".shard0").c_str());
  std::remove((prefix + ".shard1").c_str());
}

// Shards whose bulk sections each span more than one read chunk: the id
// and dist rows of every graph layer, the vector rows and the sq8 codes
// (the gid map, at 4 bytes a slot, stays inside one). NSW, HNSW and sq8
// indexes of two shards load bit-identical to what was saved: saving the
// loaded index again writes the same bytes (every row, graph cell, degree,
// state, gid and code), and it answers the same.
TEST_F(ServeTest, ShardPersistenceOfMultiChunkSectionsIsBitIdentical) {
  constexpr std::size_t kShards = 2;
  const std::size_t per_shard = kReadChunkBytes / (32 * sizeof(VertexId)) + 200;
  const data::Dataset base = data::GenerateBase(
      data::PaperDataset("SIFT1M"), kShards * per_shard, 11);
  const std::string saved = ::testing::TempDir() + "/chunked_saved";
  const std::string again = ::testing::TempDir() + "/chunked_again";
  const auto routed = RoutedQueries(64);
  struct Case {
    const char* name;
    core::GraphKind kind;
    data::Precision precision;
  };
  const Case cases[] = {
      {"nsw", core::GraphKind::kNsw, data::Precision::kFloat32},
      {"hnsw", core::GraphKind::kHnsw, data::Precision::kFloat32},
      {"nsw sq8", core::GraphKind::kNsw, data::Precision::kSq8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ShardBuildOptions options;
    options.kind = c.kind;
    options.quantize.precision = c.precision;
    ShardedIndex built = ShardedIndex::Build(base, kShards, options);
    ASSERT_EQ(options.nsw.d_max, 32u);
    const auto before = built.SearchBatch(routed, core::SearchKernel::kGanns);
    ASSERT_TRUE(built.SaveShards(saved));

    std::string error;
    auto loaded = ShardedIndex::LoadShards(saved, base, kShards, {}, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(loaded->SearchBatch(routed, core::SearchKernel::kGanns), before);
    ASSERT_TRUE(loaded->SaveShards(again));
    for (std::size_t s = 0; s < kShards; ++s) {
      const std::string suffix = ".shard" + std::to_string(s);
      const Bytes bytes = ReadBytes(saved + suffix);
      EXPECT_GT(bytes.size(), 4 * kReadChunkBytes);
      EXPECT_TRUE(bytes == ReadBytes(again + suffix)) << "shard " << s;
      std::remove((saved + suffix).c_str());
      std::remove((again + suffix).c_str());
    }
  }
}

// Regression: HNSW shard files used to be bare graph records with no
// geometry, so a corpus of another dimension loaded without error (an exact
// index then answered nonsense; an sq8 one aborted on its first search).
// The GSH3 header now names the mismatch for both.
TEST_F(ServeTest, HnswShardRejectsMismatchedCorpus) {
  const std::string prefix = ::testing::TempDir() + "/hnsw_geometry";
  const data::Dataset other =
      data::GenerateBase(data::PaperDataset("UQ_V"), kN, 11);
  ASSERT_NE(other.dim(), base_->dim());
  for (const data::Precision precision :
       {data::Precision::kFloat32, data::Precision::kSq8}) {
    SCOPED_TRACE(data::PrecisionName(precision));
    ShardBuildOptions options;
    options.kind = core::GraphKind::kHnsw;
    options.quantize.precision = precision;
    ASSERT_TRUE(ShardedIndex::Build(*base_, 2, options).SaveShards(prefix));

    std::string error;
    EXPECT_FALSE(
        ShardedIndex::LoadShards(prefix, other, 2, options, &error)
            .has_value());
    const std::string want =
        "shard file '" + prefix + ".shard0': shard header: geometry mismatch";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
  }
  std::remove((prefix + ".shard0").c_str());
  std::remove((prefix + ".shard1").c_str());
}

// One index has one graph kind: shard files of different kinds under one
// prefix fail naming the odd file and both kinds.
TEST_F(ServeTest, MixedKindShardFilesAreNamedError) {
  const std::string nsw = ::testing::TempDir() + "/mixed_nsw";
  const std::string hnsw = ::testing::TempDir() + "/mixed_hnsw";
  ShardBuildOptions hnsw_options;
  hnsw_options.kind = core::GraphKind::kHnsw;
  ASSERT_TRUE(ShardedIndex::Build(*base_, 2, {}).SaveShards(nsw));
  ASSERT_TRUE(ShardedIndex::Build(*base_, 2, hnsw_options).SaveShards(hnsw));
  ASSERT_EQ(std::rename((hnsw + ".shard1").c_str(), (nsw + ".shard1").c_str()),
            0);

  std::string error;
  EXPECT_FALSE(
      ShardedIndex::LoadShards(nsw, *base_, 2, {}, &error).has_value());
  EXPECT_EQ(error, "shard file '" + nsw +
                       ".shard1': graph kind HNSW differs from shard 0's NSW");
  std::remove((nsw + ".shard0").c_str());
  std::remove((nsw + ".shard1").c_str());
  std::remove((hnsw + ".shard0").c_str());
}

// Byte-level surgery on saved shard containers: each section of the GSH3
// layout (header, graph record, global id map, vector rows, trailing
// quantization section) is corrupted in shard 0, shard 1, or both, and
// LoadShards must fail with an error naming the file and the section.
// The shards load concurrently, so the "both" cases also pin that the
// lowest-numbered failing shard's error wins, not the first to finish.
class CorruptShardTest : public ServeTest {
 protected:
  static std::uint64_t Word(const Bytes& bytes, std::size_t i) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i * sizeof(word), sizeof(word));
    return word;
  }

  static void SetWord(Bytes& bytes, std::size_t i, std::uint64_t word) {
    std::memcpy(bytes.data() + i * sizeof(word), &word, sizeof(word));
  }
};

TEST_F(CorruptShardTest, EverySectionFailsNamingFileAndSection) {
  const std::string exact_prefix = ::testing::TempDir() + "/corrupt_exact";
  const std::string quant_prefix = ::testing::TempDir() + "/corrupt_quant";
  const std::string prefix = ::testing::TempDir() + "/corrupt_case";
  ShardBuildOptions quantized;
  quantized.quantize.precision = data::Precision::kPq;
  quantized.quantize.pq_subspaces = 16;
  quantized.quantize.pq_centroids = 32;
  ASSERT_TRUE(ShardedIndex::Build(*base_, 2, {}).SaveShards(exact_prefix));
  ASSERT_TRUE(
      ShardedIndex::Build(*base_, 2, quantized).SaveShards(quant_prefix));

  // Section boundaries of each pristine file. The quantized container is
  // the exact one plus a trailing section (quantization never changes the
  // graph), so the exact file's size is where that section starts.
  constexpr std::size_t kHeaderBytes = 8 * sizeof(std::uint64_t);
  const std::size_t row_bytes = base_->dim() * sizeof(float);
  struct Layout {
    Bytes exact, quant;
    std::size_t rows = 0, ids_at = 0, rows_at = 0;
  };
  Layout layout[2];
  for (int s = 0; s < 2; ++s) {
    const std::string suffix = ".shard" + std::to_string(s);
    Layout& l = layout[s];
    l.exact = ReadBytes(exact_prefix + suffix);
    l.quant = ReadBytes(quant_prefix + suffix);
    std::remove((exact_prefix + suffix).c_str());
    std::remove((quant_prefix + suffix).c_str());
    ASSERT_GT(l.quant.size(), l.exact.size());
    ASSERT_TRUE(std::equal(l.exact.begin(), l.exact.end(), l.quant.begin()));
    l.rows = Word(l.exact, 7);
    ASSERT_EQ(l.rows, kN / 2);
    l.rows_at = l.exact.size() - l.rows * row_bytes;
    l.ids_at = l.rows_at - l.rows * sizeof(VertexId);
    ASSERT_GT(l.ids_at, kHeaderBytes);
  }

  struct Section {
    const char* name;
    std::string (*message)(const Layout&);  // expected section text
    Bytes (*corrupt)(const Layout&, std::size_t row_bytes);
  };
  const Section sections[] = {
      {"bad magic",
       [](const Layout&) -> std::string { return "unknown magic word"; },
       [](const Layout& l, std::size_t) {
         Bytes b = l.exact;
         std::memset(b.data(), 'X', sizeof(std::uint64_t));
         return b;
       }},
      {"truncated header",
       [](const Layout&) -> std::string { return "shard header: truncated"; },
       [](const Layout& l, std::size_t) {
         return Bytes(l.exact.begin(), l.exact.begin() + 40);
       }},
      {"geometry mismatch",
       [](const Layout&) -> std::string {
         return "shard header: geometry mismatch";
       },
       [](const Layout& l, std::size_t) {
         Bytes b = l.exact;
         b[2 * sizeof(std::uint64_t)] += 1;  // shard offset word
         return b;
       }},
      {"truncated graph record",
       [](const Layout&) -> std::string { return "graph record: truncated"; },
       [](const Layout& l, std::size_t) {
         const std::size_t graph_bytes = l.ids_at - kHeaderBytes;
         return Bytes(l.exact.begin(),
                      l.exact.begin() + kHeaderBytes + graph_bytes / 2);
       }},
      {"bare graph record",
       [](const Layout&) -> std::string { return "unknown magic word"; },
       [](const Layout& l, std::size_t) {
         // The graph record alone, as pre-container shard files were saved.
         return Bytes(l.exact.begin() + kHeaderBytes,
                      l.exact.begin() + l.ids_at);
       }},
      {"v1 graph record",
       [](const Layout&) -> std::string {
         return "graph record: truncated, corrupt";
       },
       [](const Layout& l, std::size_t) {
         // The same graph in the retired v1 layout: a 4-word header
         // {magic, 1, vertices, d_max}, ids, dists and degrees, no capacity
         // or state bytes.
         Bytes b = l.exact;
         b.erase(b.begin() + l.ids_at - l.rows, b.begin() + l.ids_at);
         b.erase(b.begin() + kHeaderBytes + 4 * sizeof(std::uint64_t),
                 b.begin() + kHeaderBytes + 8 * sizeof(std::uint64_t));
         SetWord(b, 8 + 1, 1);
         return b;
       }},
      {"free-listed slot",
       [](const Layout&) -> std::string {
         return "graph record: truncated, corrupt";
       },
       [](const Layout& l, std::size_t) {
         // The last slot released onto a free list, as the record's free
         // count and state byte 0 once described: one live vertex fewer,
         // free count 1, and the slot's id after the state bytes.
         Bytes b = l.exact;
         SetWord(b, 8 + 5, Word(b, 8 + 5) - 1);
         SetWord(b, 8 + 7, 1);
         b[l.ids_at - 1] = 0;
         const VertexId freed = static_cast<VertexId>(l.rows - 1);
         const char* freed_bytes = reinterpret_cast<const char*>(&freed);
         b.insert(b.begin() + l.ids_at, freed_bytes,
                  freed_bytes + sizeof(freed));
         return b;
       }},
      {"state byte 0",
       [](const Layout&) -> std::string {
         return "graph record: truncated, corrupt";
       },
       [](const Layout& l, std::size_t) {
         Bytes b = l.exact;
         b[l.ids_at - 1] = 0;  // the last slot's state byte
         return b;
       }},
      {"absurd graph capacity",
       [](const Layout&) -> std::string {
         return "graph record: truncated, corrupt";
       },
       [](const Layout& l, std::size_t) {
         // The graph record's capacity word (header word 4), claiming a
         // reservation no process could hold.
         Bytes b = l.exact;
         const std::uint64_t capacity = std::uint64_t{1} << 36;
         std::memcpy(b.data() + kHeaderBytes + 4 * sizeof(std::uint64_t),
                     &capacity, sizeof(capacity));
         return b;
       }},
      {"truncated global id map",
       [](const Layout&) -> std::string {
         return "global id map: truncated";
       },
       [](const Layout& l, std::size_t) {
         return Bytes(l.exact.begin(),
                      l.exact.begin() + l.ids_at +
                          l.rows * sizeof(VertexId) / 2);
       }},
      {"rows cut mid-row",
       [](const Layout& l) {
         return "vector rows: truncated at row " +
                std::to_string(l.rows / 3) + " of " + std::to_string(l.rows);
       },
       [](const Layout& l, std::size_t row_bytes) {
         return Bytes(l.exact.begin(), l.exact.begin() + l.rows_at +
                                           (l.rows / 3) * row_bytes +
                                           row_bytes / 2);
       }},
      {"corrupt quantization section",
       [](const Layout&) -> std::string {
         return "quantization section: truncated header";
       },
       [](const Layout& l, std::size_t) {
         return Bytes(l.quant.begin(), l.quant.begin() + l.exact.size() + 12);
       }},
  };

  const auto path = [&](int s) {
    return prefix + ".shard" + std::to_string(s);
  };
  enum Target { kShard0, kShard1, kBoth, kBothShard1BadMagic };
  for (const Section& section : sections) {
    for (const Target target : {kShard0, kShard1, kBoth, kBothShard1BadMagic}) {
      SCOPED_TRACE(std::string(section.name) + ", target " +
                   std::to_string(static_cast<int>(target)));
      const bool hit0 = target != kShard1;
      const bool hit1 = target == kShard1 || target == kBoth;
      WriteBytes(path(0), hit0 ? section.corrupt(layout[0], row_bytes)
                               : layout[0].exact);
      Bytes shard1 = hit1 ? section.corrupt(layout[1], row_bytes)
                          : layout[1].exact;
      if (target == kBothShard1BadMagic) {
        std::memset(shard1.data(), 'X', sizeof(std::uint64_t));
      }
      WriteBytes(path(1), shard1);

      std::string error;
      EXPECT_FALSE(
          ShardedIndex::LoadShards(prefix, *base_, 2, {}, &error).has_value());
      const int named = hit0 ? 0 : 1;
      const std::string want = "shard file '" + path(named) +
                               "': " + section.message(layout[named]);
      EXPECT_EQ(error.substr(0, want.size()), want) << error;
    }
  }
  std::remove(path(0).c_str());
  std::remove(path(1).c_str());
}

// The HNSW record header is held to the graph record's limits before
// anything is allocated: a vertex count or degree no process could hold
// gives the named graph record error instead of bad_alloc.
TEST_F(CorruptShardTest, AbsurdHnswHeaderIsNamedError) {
  const std::string prefix = ::testing::TempDir() + "/corrupt_hnsw";
  const std::string path = prefix + ".shard0";
  ShardBuildOptions options;
  options.kind = core::GraphKind::kHnsw;
  ASSERT_TRUE(ShardedIndex::Build(*base_, 1, options).SaveShards(prefix));
  const Bytes pristine = ReadBytes(path);
  // The HNSW record follows the 8-word shard header: {magic, version,
  // vertices, d_max, layers, entry}.
  ASSERT_EQ(Word(pristine, 8), graph::HnswGraph::kRecordMagic);
  ASSERT_EQ(Word(pristine, 8 + 2), kN);
  struct Case {
    const char* name;
    std::size_t word;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"vertex count 2^40", 2, std::uint64_t{1} << 40},
      {"degree 2^40", 3, std::uint64_t{1} << 40},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Bytes b = pristine;
    SetWord(b, 8 + c.word, c.value);
    WriteBytes(path, b);
    std::string error;
    EXPECT_FALSE(
        ShardedIndex::LoadShards(prefix, *base_, 1, options, &error)
            .has_value());
    const std::string want =
        "shard file '" + path + "': graph record: truncated, corrupt";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
  }
  std::remove(path.c_str());
}

// Headers claiming 1 GiB of graph cells, HNSW levels, vector rows or codes,
// or the largest PQ codebook, in a file of under 4 KB: each reader checks
// the claim against the bytes left in the file before allocating, so it
// gives its named error (the rows reader its complete-row prefix) and the
// peak RSS barely moves.
TEST_F(CorruptShardTest, OversizedHeadersFailBeforeAllocating) {
  const auto peak_rss_mb = [] {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  };
  constexpr std::size_t kFileBytes = 4000;
  constexpr std::uint64_t kGiB = std::uint64_t{1} << 30;
  const std::string nsw_prefix = ::testing::TempDir() + "/oversized_nsw";
  const std::string hnsw_prefix = ::testing::TempDir() + "/oversized_hnsw";
  ShardBuildOptions hnsw_options;
  hnsw_options.kind = core::GraphKind::kHnsw;
  ASSERT_TRUE(ShardedIndex::Build(*base_, 1, {}).SaveShards(nsw_prefix));
  ASSERT_TRUE(
      ShardedIndex::Build(*base_, 1, hnsw_options).SaveShards(hnsw_prefix));
  const Bytes nsw = ReadBytes(nsw_prefix + ".shard0");
  const Bytes hnsw = ReadBytes(hnsw_prefix + ".shard0");
  std::remove((nsw_prefix + ".shard0").c_str());
  std::remove((hnsw_prefix + ".shard0").c_str());

  // NSW graph record after the 8-word shard header: {magic, version,
  // vertices, d_max, capacity, live, tombstones, free}. 2^23 vertices at
  // d_max 32 are 2^28 cells: 1 GiB of ids, 1 GiB of dists.
  ASSERT_EQ(Word(nsw, 8 + 3), 32u);
  Bytes cells(nsw.begin(), nsw.begin() + kFileBytes);
  for (const std::size_t word : {2, 4, 5}) {
    SetWord(cells, 8 + word, kGiB / (32 * sizeof(VertexId)));
  }
  // HNSW record: {magic, version, vertices, d_max, layers, entry}; 2^30
  // vertices at d_max 1 are a 1 GiB level array.
  ASSERT_EQ(Word(hnsw, 8), graph::HnswGraph::kRecordMagic);
  Bytes levels(hnsw.begin(), hnsw.begin() + kFileBytes);
  SetWord(levels, 8 + 2, kGiB);
  SetWord(levels, 8 + 3, 1);

  const std::string path = ::testing::TempDir() + "/oversized.shard0";
  const std::string prefix = ::testing::TempDir() + "/oversized";
  for (const auto& [name, bytes] :
       {std::pair<const char*, const Bytes*>{"graph cells", &cells},
        std::pair<const char*, const Bytes*>{"hnsw levels", &levels}}) {
    SCOPED_TRACE(name);
    WriteBytes(path, *bytes);
    const double rss_before = peak_rss_mb();
    std::string error;
    EXPECT_FALSE(
        ShardedIndex::LoadShards(prefix, *base_, 1, {}, &error).has_value());
    EXPECT_LT(peak_rss_mb() - rss_before, 256.0);
    const std::string want =
        "shard file '" + path + "': graph record: truncated, corrupt";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
  }
  std::remove(path.c_str());

  // Rows: 2^21 rows of 128 floats asked of a file holding 7.5 of them.
  {
    SCOPED_TRACE("vector rows");
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    const std::size_t row_bytes = base_->dim() * sizeof(float);
    ASSERT_EQ(std::fwrite(base_->values().data(), 1, row_bytes * 15 / 2, file),
              row_bytes * 15 / 2);
    std::rewind(file);
    data::Dataset rows("rows", base_->dim(), base_->metric());
    const double rss_before = peak_rss_mb();
    EXPECT_EQ(rows.ReadRows(file, kGiB / row_bytes), 7u);
    EXPECT_LT(peak_rss_mb() - rss_before, 256.0);
    std::fclose(file);
  }

  // Codes: an sq8 section whose count claims 1 GiB of codes, cut to 4 KB.
  {
    SCOPED_TRACE("quantization codes");
    data::QuantizerOptions sq8;
    sq8.precision = data::Precision::kSq8;
    const data::Quantizer quantizer = data::Quantizer::Train(*base_, sq8);
    const data::QuantizedCodes codes =
        data::QuantizedCodes::EncodeAll(quantizer, *base_);
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(data::WriteQuantizedSection(file, quantizer, codes));
    // The code count is the word just before the code array.
    const long count_at =
        std::ftell(file) - static_cast<long>(codes.resident_bytes()) - 8;
    const std::uint64_t claimed = kGiB / quantizer.code_bytes();
    ASSERT_EQ(std::fseek(file, count_at, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&claimed, sizeof(claimed), 1, file), 1u);
    ASSERT_EQ(ftruncate(fileno(file), kFileBytes), 0);
    std::rewind(file);
    const double rss_before = peak_rss_mb();
    std::string error;
    EXPECT_FALSE(
        data::ReadQuantizedSection(file, SIZE_MAX, &error).has_value());
    EXPECT_LT(peak_rss_mb() - rss_before, 256.0);
    const std::string want = "quantization section: truncated code array";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
    std::fclose(file);
  }

  // Codebook: a pq record header claiming 256 centroids at dim 65536 (a
  // 64 MiB codebook, the most the header limits allow), cut to 64 bytes of
  // payload.
  {
    SCOPED_TRACE("pq codebook");
    const std::uint64_t header[8] = {0x544e5147534e4e47ULL,  // "GNNSGQNT"
                                     1, 65536, 2, 16, 256, 4, 0};
    const float payload[16] = {};
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, file), 1u);
    ASSERT_EQ(std::fwrite(payload, sizeof(payload), 1, file), 1u);
    std::rewind(file);
    const double rss_before = peak_rss_mb();
    std::string error;
    EXPECT_FALSE(
        data::ReadQuantizedSection(file, SIZE_MAX, &error).has_value());
    EXPECT_LT(peak_rss_mb() - rss_before, 256.0);
    const std::string want =
        "quantization section: truncated pq codebook payload";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
    std::fclose(file);
  }
}

// A save whose final flush fails reports it and leaves the previous index
// whole: each shard is written under `<path>.tmp<pid>` first, here a symlink
// to /dev/full, and the index is small enough that stdio buffers every byte
// until the close. The shard saved before stays byte-identical, and the
// temporary is removed.
TEST_F(ServeTest, ShardSaveReportsFailedFlush) {
  if (std::FILE* full = std::fopen("/dev/full", "wb")) {
    std::fclose(full);
  } else {
    GTEST_SKIP() << "/dev/full is not available";
  }
  const std::string prefix = ::testing::TempDir() + "/full_disk";
  const std::string path = prefix + ".shard0";
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  const auto tiny = [](float shift) {
    data::Dataset rows("tiny", 4, data::Metric::kL2);
    for (int i = 0; i < 8; ++i) {
      const float row[4] = {static_cast<float>(i) + shift,
                            static_cast<float>(i % 3),
                            static_cast<float>(i % 2), 1.0f};
      rows.Append(row);
    }
    return rows;
  };
  std::remove(tmp.c_str());
  ASSERT_TRUE(ShardedIndex::Build(tiny(0), 1, {}).SaveShards(prefix));
  const Bytes previous = ReadBytes(path);
  ASSERT_FALSE(previous.empty());

  ASSERT_EQ(symlink("/dev/full", tmp.c_str()), 0);
  EXPECT_FALSE(ShardedIndex::Build(tiny(0.5f), 1, {}).SaveShards(prefix));
  EXPECT_EQ(ReadBytes(path), previous);
  struct stat info;
  EXPECT_NE(lstat(tmp.c_str(), &info), 0) << "temporary left behind";
  std::remove(tmp.c_str());
  std::remove(path.c_str());
}

// A loaded index resolves global ids exactly like the index it was saved
// from, although its id map keeps only the entries the offset arithmetic
// would miss. Pristine: the same removals succeed once and then fail, and
// the next insert draws the same id. After a compaction moved shard 0's
// survivors to lower slots: every id removes alike on both copies.
TEST_F(ServeTest, ShardPersistenceIdMapMatchesBuiltIndex) {
  const std::string prefix = ::testing::TempDir() + "/id_map_shards";
  ShardBuildOptions options;
  options.update.auto_compact = false;
  const auto save_and_load = [&](const ShardedIndex& index) {
    EXPECT_TRUE(index.SaveShards(prefix));
    auto loaded = ShardedIndex::LoadShards(prefix, *base_, 2, options);
    std::remove((prefix + ".shard0").c_str());
    std::remove((prefix + ".shard1").c_str());
    return loaded;
  };
  ShardedIndex built = ShardedIndex::Build(*base_, 2, options);
  auto loaded = save_and_load(built);
  ASSERT_TRUE(loaded.has_value());

  const VertexId sample[] = {0, 1, 137, 298, 299, 300, 301, 455, 598, 599};
  for (ShardedIndex* index : {&built, &*loaded}) {
    for (const VertexId gid : sample) {
      EXPECT_TRUE(index->Remove(gid)) << "gid=" << gid;
      EXPECT_FALSE(index->Remove(gid)) << "gid=" << gid;
    }
    EXPECT_FALSE(index->Remove(static_cast<VertexId>(kN)));  // never issued
  }
  const auto built_gid = built.Insert(queries_->Point(0));
  const auto loaded_gid = loaded->Insert(queries_->Point(0));
  ASSERT_TRUE(built_gid.has_value());
  ASSERT_TRUE(loaded_gid.has_value());
  EXPECT_EQ(*loaded_gid, *built_gid);
  EXPECT_EQ(*built_gid, static_cast<VertexId>(kN));
  const auto routed = RoutedQueries(64);
  EXPECT_EQ(loaded->SearchBatch(routed, core::SearchKernel::kGanns),
            built.SearchBatch(routed, core::SearchKernel::kGanns));

  ASSERT_TRUE(built.Compact(0));
  auto compacted = save_and_load(built);
  ASSERT_TRUE(compacted.has_value());
  for (VertexId gid = 0; gid <= kN + 1; ++gid) {
    EXPECT_EQ(compacted->Remove(gid), built.Remove(gid)) << "gid=" << gid;
  }
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

// Requests that never reach a kernel take the flight path served ones do:
// one engine run yields a rejected, an expired and a shutdown record, each
// with its status, deadline budget and terminal span tree (root + terminal
// instant, plus the queue wait for the request that queued).
TEST_F(FlightRecorderTest, EngineRecordsTerminalOutcomes) {
  obs::SetTracingEnabled(false);
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(FlightRecorderOptions{});
  recorder.SetEnabled(true);

  ShardedIndex index = ShardedIndex::Build(*base_, 2, {});
  ServeOptions options;
  options.queue_capacity = 1;
  ServeEngine engine(index, options);
  // Before Start: id 0 fills the queue and expires there, id 1 is rejected.
  QueryRequest expiring = MakeRequest(0, 64);
  expiring.deadline = ServeClock::now() + std::chrono::milliseconds(20);
  auto expired = engine.Submit(std::move(expiring));
  QueryRequest overflow = MakeRequest(1, 64);
  overflow.deadline = ServeClock::now() + std::chrono::seconds(10);
  auto rejected = engine.Submit(std::move(overflow));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  engine.Start();
  engine.Shutdown();
  auto shut_out = engine.Submit(MakeRequest(2, 64));
  EXPECT_EQ(expired.get().status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rejected.get().status, StatusCode::kRejected);
  EXPECT_EQ(shut_out.get().status, StatusCode::kShutdown);

  const FlightCounters counters = recorder.counters();
  EXPECT_EQ(counters.recorded, 3u);
  EXPECT_EQ(counters.violators, 2u);  // shutdown is never a violation
  std::map<std::uint64_t, FlightRequest> by_id;
  for (FlightRequest& record : recorder.Recent()) {
    by_id.emplace(record.id, std::move(record));
  }
  ASSERT_EQ(by_id.size(), 3u);
  const auto names = [](const FlightRequest& record) {
    std::vector<std::string_view> out;
    for (const obs::TraceEvent& span : record.spans) {
      out.push_back(obs::NameOf(span.name));
    }
    return out;
  };

  const FlightRequest& exp = by_id.at(0);
  EXPECT_EQ(exp.status, StatusCode::kDeadlineExceeded);
  EXPECT_GT(exp.deadline_us, 0u);
  EXPECT_LE(exp.deadline_us, 20000u);
  EXPECT_GE(exp.queue_wait_us, 20000.0);
  EXPECT_EQ(exp.latency_us, exp.queue_wait_us);
  EXPECT_TRUE(exp.violator);
  EXPECT_EQ(names(exp), (std::vector<std::string_view>{
                            "serve.request", "serve.queue_wait",
                            "serve.expired"}));

  const FlightRequest& rej = by_id.at(1);
  EXPECT_EQ(rej.status, StatusCode::kRejected);
  EXPECT_GT(rej.deadline_us, 9000000u);
  EXPECT_LE(rej.deadline_us, 10000000u);
  EXPECT_EQ(rej.queue_wait_us, 0.0);
  EXPECT_TRUE(rej.violator);
  EXPECT_EQ(names(rej), (std::vector<std::string_view>{"serve.request",
                                                       "serve.rejected"}));

  const FlightRequest& shut = by_id.at(2);
  EXPECT_EQ(shut.status, StatusCode::kShutdown);
  EXPECT_EQ(shut.deadline_us, 0u);  // submitted without a deadline
  EXPECT_FALSE(shut.violator);
  EXPECT_EQ(names(shut), (std::vector<std::string_view>{"serve.request",
                                                        "serve.shutdown"}));

  for (const auto& [id, record] : by_id) {
    ASSERT_FALSE(record.spans.empty());
    EXPECT_EQ(record.spans.front().arg, static_cast<std::int64_t>(id));
    EXPECT_EQ(record.spans.back().dur, 0.0) << id;  // terminal instant
    EXPECT_FALSE(record.sampled);
    EXPECT_EQ(record.batch_seq, 0u);  // never reached a batch
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
  static ShardBuildOptions MutableOptions(bool auto_compact) {
    ShardBuildOptions options;
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

  /// Queries each of `points` at an exhaustive budget and expects the id
  /// it was inserted under (gids[i] for points.Point(i)) ranked first.
  static void ExpectInsertedFoundFirst(ShardedIndex& index,
                                       const data::Dataset& points,
                                       const std::vector<VertexId>& gids) {
    std::vector<RoutedQuery> routed(gids.size());
    for (std::size_t i = 0; i < gids.size(); ++i) {
      routed[i].query = points.Point(static_cast<VertexId>(i));
      routed[i].k = kK;
      routed[i].budget = 1024;
    }
    const auto rows = index.SearchBatch(routed, core::SearchKernel::kGanns);
    for (std::size_t i = 0; i < gids.size(); ++i) {
      ASSERT_FALSE(rows[i].empty()) << "insert " << i;
      EXPECT_EQ(rows[i][0].id, gids[i]) << "insert " << i;
    }
  }

  /// A saved GSH3 shard file split into its sections with the public
  /// readers: header words, graph record, global id map, vector rows and
  /// the optional quantization section.
  struct ShardFile {
    std::uint64_t header[8] = {};
    std::optional<graph::ProximityGraph> graph;
    std::vector<VertexId> gids;
    std::optional<data::Dataset> rows;
    std::optional<data::QuantizedStore> store;
  };

  static ShardFile ReadShardFile(const std::string& path) {
    ShardFile file;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return file;
    EXPECT_EQ(std::fread(file.header, sizeof(file.header), 1, f), 1u);
    file.graph = graph::ProximityGraph::ReadFrom(f);
    EXPECT_TRUE(file.graph.has_value()) << path;
    const std::size_t num_rows = file.header[7];
    file.gids.resize(num_rows);
    EXPECT_EQ(std::fread(file.gids.data(), sizeof(VertexId), num_rows, f),
              num_rows);
    // Header words 5 and 6 are the corpus dim and metric.
    file.rows.emplace("rows", file.header[5],
                      static_cast<data::Metric>(file.header[6]));
    EXPECT_EQ(file.rows->ReadRows(f, num_rows), num_rows);
    std::string error;
    file.store = data::ReadQuantizedSection(f, num_rows, &error);
    EXPECT_TRUE(error.empty()) << error;
    std::fclose(f);
    return file;
  }

  /// Every live slot's saved code equals a fresh encode of its saved row.
  static void ExpectCodesMatchFreshEncode(const ShardFile& file) {
    ASSERT_TRUE(file.store.has_value());
    const data::QuantizedCodes fresh =
        data::QuantizedCodes::EncodeAll(file.store->quantizer, *file.rows);
    for (VertexId slot = 0; slot < file.rows->size(); ++slot) {
      if (!file.graph->IsLive(slot)) continue;
      EXPECT_EQ(std::memcmp(file.store->codes.code(slot), fresh.code(slot),
                            fresh.code_bytes()),
                0)
          << "slot " << slot;
    }
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
// of the surviving point set. Double-removes and unknown ids are rejected
// without side effects.
TEST_F(LifecycleTest, MixedUpdatesMatchBruteForceOracle) {
  ShardedIndex index = ShardedIndex::Build(*base_, 2, MutableOptions(false));
  auto live = InitialLiveSet();
  const auto inserted = ApplyMixedWorkload(index, live);

  EXPECT_FALSE(index.Remove(static_cast<VertexId>(kN + 100000)));
  const VertexId gone = inserted[0];
  if (live.count(gone) == 0) {
    EXPECT_FALSE(index.Remove(gone));
  }

  EXPECT_EQ(index.size(), live.size());
  EXPECT_EQ(index.inserts(), inserted.size());
  EXPECT_GT(index.update_sim_seconds(), 0.0);
  ExpectMatchesSurvivors(index, live);
}

// Readers never block on writers: a dedicated reader thread streams batches
// (the engine's serialized read path) while this thread applies updates.
// Every batch sees some fully consistent epoch — full rows, no torn graph.
// The TSan gate runs this test under the race detector.
TEST_F(LifecycleTest, WritesDoNotBlockConcurrentReads) {
  ShardedIndex index =
      ShardedIndex::Build(*base_, 2, MutableOptions(true));
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
  ShardBuildOptions options = MutableOptions(true);
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
      ShardedIndex::Build(*base_, 1, MutableOptions(false));
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
      ShardedIndex::Build(survivors, 1, MutableOptions(false));
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
  const ShardBuildOptions options = MutableOptions(false);
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

// Compaction repacks a shard's survivors into its lowest slots and keeps
// its capacity, so later inserts take slots the compaction released. Each
// inserted point is found first when queried, an exact shard answers like
// brute force over the survivors, and a compressed shard's codes stay those
// of a fresh encode of its rows.
TEST_F(LifecycleTest, InsertsAfterCompactTakeReleasedSlots) {
  const std::string prefix = ::testing::TempDir() + "/compact_insert";
  const data::Dataset extra =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 12, 31);
  for (const data::Precision precision :
       {data::Precision::kFloat32, data::Precision::kSq8}) {
    SCOPED_TRACE(data::PrecisionName(precision));
    ShardBuildOptions options = MutableOptions(false);
    options.quantize.precision = precision;
    ShardedIndex index = ShardedIndex::Build(*base_, 1, options);
    auto live = InitialLiveSet();
    for (VertexId v = 0; v < static_cast<VertexId>(kN); v += 10) {
      ASSERT_TRUE(index.Remove(v));
      live.erase(v);
    }
    ASSERT_TRUE(index.Compact(0));

    std::vector<VertexId> inserted;
    for (VertexId i = 0; i < static_cast<VertexId>(extra.size()); ++i) {
      const auto gid = index.Insert(extra.Point(i));
      ASSERT_TRUE(gid.has_value());
      live[*gid] = {extra.Point(i).begin(), extra.Point(i).end()};
      inserted.push_back(*gid);
    }
    ExpectInsertedFoundFirst(index, extra, inserted);
    if (precision == data::Precision::kFloat32) {
      ExpectMatchesSurvivors(index, live);
    }

    ASSERT_TRUE(index.SaveShards(prefix));
    const ShardFile file = ReadShardFile(prefix + ".shard0");
    // Survivors and inserts fill slots [0, live): all below the slot count
    // before the compaction.
    EXPECT_EQ(file.header[7], live.size());
    EXPECT_LT(live.size(), kN);
    if (precision != data::Precision::kFloat32) {
      ExpectCodesMatchFreshEncode(file);
    }
  }
  std::remove((prefix + ".shard0").c_str());
}

// An insert into a cosine index is normalized like the corpus: the saved
// row is the unit vector, not the scaled input, and querying the scaled
// input finds the inserted point first.
TEST_F(LifecycleTest, CosineInsertIsNormalized) {
  const std::string prefix = ::testing::TempDir() + "/cosine_insert";
  const data::Dataset corpus =
      data::GenerateBase(data::PaperDataset("GloVe200"), 300, 13);
  const data::Dataset extra =
      data::GenerateBase(data::PaperDataset("GloVe200"), 1, 41);
  ASSERT_EQ(corpus.metric(), data::Metric::kCosine);
  ShardedIndex index = ShardedIndex::Build(corpus, 1, MutableOptions(false));

  // extra's row is already a unit vector; scaling it moves it off the
  // sphere, and normalizing the scaled copy brings it back.
  std::vector<float> scaled(extra.Point(0).begin(), extra.Point(0).end());
  for (float& x : scaled) x *= 3.5f;
  std::vector<float> unit = scaled;
  double norm_sq = 0;
  for (const float x : unit) norm_sq += double{x} * x;
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : unit) x *= inv;

  const auto gid = index.Insert(scaled);
  ASSERT_TRUE(gid.has_value());
  std::vector<RoutedQuery> routed(1);
  routed[0].query = scaled;
  routed[0].k = kK;
  routed[0].budget = 1024;
  const auto rows = index.SearchBatch(routed, core::SearchKernel::kGanns);
  ASSERT_FALSE(rows[0].empty());
  EXPECT_EQ(rows[0][0].id, *gid);

  ASSERT_TRUE(index.SaveShards(prefix));
  const ShardFile file = ReadShardFile(prefix + ".shard0");
  ASSERT_EQ(file.header[7], corpus.size() + 1);
  EXPECT_EQ(file.gids.back(), *gid);
  const auto saved = file.rows->Point(static_cast<VertexId>(corpus.size()));
  EXPECT_TRUE(std::equal(saved.begin(), saved.end(), unit.begin()));
  for (std::size_t d = 0; d < unit.size(); ++d) {
    EXPECT_NEAR(saved[d], extra.Point(0)[d], 1e-6) << "d=" << d;
  }
  std::remove((prefix + ".shard0").c_str());
}

// A shard drained to zero live points serves empty rows (no kernel launch)
// and revives cleanly on the next insert.
TEST_F(LifecycleTest, EmptyShardServesNothingAndRevives) {
  const data::Dataset small =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 8, 5);
  ShardedIndex index =
      ShardedIndex::Build(small, 1, MutableOptions(false));
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
        ShardedIndex::Build(*base_, 1, MutableOptions(false));
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
