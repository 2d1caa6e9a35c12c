// Tests for the single-GPU index — a one-shard ShardedIndex — through the
// public API: build, batched and single-query search, HNSW mode, both
// construction kernels, cosine corpora, and shard-file round trips.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "serve/shard_router.h"

namespace ganns {
namespace serve {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 1200;
  static constexpr std::size_t kK = 10;

  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), kN, 8));
    queries_ = std::make_unique<data::Dataset>(
        data::GenerateQueries(data::PaperDataset("SIFT1M"), 25, kN, 8));
    truth_ = std::make_unique<data::GroundTruth>(
        data::BruteForceKnn(*base_, *queries_, kK));
  }

  /// Every query at k = kK and the default visited budget (64).
  static std::vector<RoutedQuery> Batch(const data::Dataset& queries) {
    std::vector<RoutedQuery> batch(queries.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      batch[q].query = queries.Point(static_cast<VertexId>(q));
      batch[q].k = kK;
    }
    return batch;
  }

  std::vector<std::vector<graph::Neighbor>> Search(ShardedIndex& index) const {
    return index.SearchBatch(Batch(*queries_), core::SearchKernel::kGanns);
  }

  double Recall(const std::vector<std::vector<graph::Neighbor>>& rows) const {
    std::vector<std::vector<VertexId>> ids(rows.size());
    for (std::size_t q = 0; q < rows.size(); ++q) {
      for (const auto& n : rows[q]) ids[q].push_back(n.id);
    }
    return data::MeanRecall(ids, *truth_, kK);
  }

  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<data::Dataset> queries_;
  std::unique_ptr<data::GroundTruth> truth_;
};

TEST_F(IndexTest, BuildAndSearchNsw) {
  ShardedIndex index = ShardedIndex::Build(*base_, 1, {});
  EXPECT_GT(index.build_sim_seconds(), 0);

  RouteStats stats;
  const auto rows = index.SearchBatch(Batch(*queries_),
                                      core::SearchKernel::kGanns, &stats);
  ASSERT_EQ(rows.size(), queries_->size());
  EXPECT_GE(Recall(rows), 0.85);
  EXPECT_GT(stats.sim_seconds, 0);
}

TEST_F(IndexTest, BuildAndSearchHnsw) {
  ShardBuildOptions options;
  options.kind = core::GraphKind::kHnsw;
  ShardedIndex index = ShardedIndex::Build(*base_, 1, options);
  EXPECT_GT(index.build_sim_seconds(), 0);
  EXPECT_GE(Recall(Search(index)), 0.85);
}

TEST_F(IndexTest, SearchOneAgreesWithBatch) {
  ShardedIndex index = ShardedIndex::Build(*base_, 1, {});
  const std::vector<RoutedQuery> batch = Batch(*queries_);
  const auto rows = index.SearchBatch(batch, core::SearchKernel::kGanns);
  const auto one = index.SearchBatch(std::span(batch).first(1),
                                     core::SearchKernel::kGanns);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], rows[0]);
}

TEST_F(IndexTest, ResultsAscendingByDistance) {
  ShardedIndex index = ShardedIndex::Build(*base_, 1, {});
  for (const auto& row : Search(index)) {
    for (std::size_t i = 1; i < row.size(); ++i) {
      EXPECT_TRUE(row[i - 1] < row[i]);
    }
  }
}

TEST_F(IndexTest, SaveLoadRoundtripNsw) {
  const std::string prefix = ::testing::TempDir() + "/index_nsw";
  ShardedIndex index = ShardedIndex::Build(*base_, 1, {});
  const auto before = Search(index);
  ASSERT_TRUE(index.SaveShards(prefix));

  std::string error;
  auto loaded = ShardedIndex::LoadShards(prefix, *base_, 1, {}, &error);
  std::remove((prefix + ".shard0").c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(Search(*loaded), before);
}

// The graph kind comes from the file: an HNSW index loaded with default
// (NSW) options still descends its hierarchy and answers identically.
TEST_F(IndexTest, SaveLoadRoundtripHnsw) {
  const std::string prefix = ::testing::TempDir() + "/index_hnsw";
  ShardBuildOptions options;
  options.kind = core::GraphKind::kHnsw;
  ShardedIndex index = ShardedIndex::Build(*base_, 1, options);
  const auto before = Search(index);
  ASSERT_TRUE(index.SaveShards(prefix));

  std::string error;
  auto loaded = ShardedIndex::LoadShards(prefix, *base_, 1, {}, &error);
  std::remove((prefix + ".shard0").c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(Search(*loaded), before);
}

TEST_F(IndexTest, LoadRejectsMissingOrCorruptFiles) {
  std::string error;
  EXPECT_FALSE(
      ShardedIndex::LoadShards("/nonexistent/idx", *base_, 1, {}, &error)
          .has_value());
  EXPECT_NE(error.find("'/nonexistent/idx.shard0': cannot open"),
            std::string::npos)
      << error;

  const std::string prefix = ::testing::TempDir() + "/corrupt_index";
  std::FILE* f = std::fopen((prefix + ".shard0").c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("garbage!", f);
  std::fclose(f);
  EXPECT_FALSE(
      ShardedIndex::LoadShards(prefix, *base_, 1, {}, &error).has_value());
  EXPECT_NE(error.find("unknown magic word"), std::string::npos) << error;
  std::remove((prefix + ".shard0").c_str());
}

TEST_F(IndexTest, SongConstructionKernelOptionWorks) {
  ShardBuildOptions options;
  options.construction_kernel = core::SearchKernel::kSong;
  ShardedIndex index = ShardedIndex::Build(*base_, 1, options);
  EXPECT_GE(Recall(Search(index)), 0.85);
}

TEST_F(IndexTest, CosineMetricIndexWorks) {
  const std::size_t n = 800;
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("NYTimes"), n, 2);
  const data::Dataset queries =
      data::GenerateQueries(data::PaperDataset("NYTimes"), 20, n, 2);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, kK);

  ShardedIndex index = ShardedIndex::Build(base, 1, {});
  const auto rows =
      index.SearchBatch(Batch(queries), core::SearchKernel::kGanns);
  std::vector<std::vector<VertexId>> ids(rows.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    for (const auto& nb : rows[q]) ids[q].push_back(nb.id);
  }
  EXPECT_GE(data::MeanRecall(ids, truth, kK), 0.7);
}

}  // namespace
}  // namespace serve
}  // namespace ganns
