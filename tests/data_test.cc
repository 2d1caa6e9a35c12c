// Unit tests for the data layer: dataset container, metrics, synthetic
// Table I generators, brute-force ground truth, recall, and fvecs/ivecs IO.

#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/io.h"
#include "data/synthetic.h"

namespace ganns {
namespace data {
namespace {

TEST(DatasetTest, AppendAndPointRoundtrip) {
  Dataset d("t", 3, Metric::kL2);
  const float p0[] = {1, 2, 3};
  const float p1[] = {4, 5, 6};
  d.Append(p0);
  d.Append(p1);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Point(1)[2], 6.0f);
}

// Rows of `dim` floats, row r holding r * 10 + d + 0.5 at coordinate d.
std::vector<float> RowMajor(std::size_t rows, std::size_t dim) {
  std::vector<float> flat;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t d = 0; d < dim; ++d) flat.push_back(r * 10 + d + 0.5f);
  }
  return flat;
}

std::vector<float> Values(const Dataset& d) {
  return std::vector<float>(d.values().begin(), d.values().end());
}

TEST(DatasetTest, AppendPaddedRowsCopiesABlockOfRows) {
  const std::vector<float> flat = RowMajor(4, 5);
  Dataset base("base", 5, Metric::kL2);
  for (std::size_t r = 0; r < 4; ++r) {
    base.Append(std::span<const float>(flat).subspan(r * 5, 5));
  }
  Dataset block("block", 5, Metric::kL2);
  block.AppendPaddedRows(base.values().subspan(base.padded_dim(),
                                               2 * base.padded_dim()));
  Dataset rows("rows", 5, Metric::kL2);
  rows.Append(base.Point(1));
  rows.Append(base.Point(2));
  EXPECT_EQ(Values(block), Values(rows));
}

TEST(DatasetDeathTest, WrongDimensionAppendIsFatal) {
  Dataset d("t", 3, Metric::kL2);
  const float p[] = {1, 2};
  EXPECT_DEATH(d.Append(p), "appending");
}

TEST(DatasetTest, ExactDistanceL2IsSquaredEuclidean) {
  const float a[] = {0, 0, 0};
  const float b[] = {1, 2, 2};
  EXPECT_FLOAT_EQ(ExactDistance(Metric::kL2, a, b), 9.0f);
  EXPECT_FLOAT_EQ(ExactDistance(Metric::kL2, a, a), 0.0f);
}

TEST(DatasetTest, ExactDistanceCosineOnUnitVectors) {
  const float a[] = {1, 0};
  const float b[] = {0, 1};
  const float c[] = {1, 0};
  EXPECT_FLOAT_EQ(ExactDistance(Metric::kCosine, a, b), 1.0f);  // orthogonal
  EXPECT_FLOAT_EQ(ExactDistance(Metric::kCosine, a, c), 0.0f);  // identical
}

TEST(DatasetTest, NormalizeRowsMakesUnitNorm) {
  Dataset d("t", 2, Metric::kCosine);
  const float p[] = {3, 4};
  d.Append(p);
  d.NormalizeRows();
  const auto row = d.Point(0);
  EXPECT_NEAR(row[0] * row[0] + row[1] * row[1], 1.0, 1e-6);
}

TEST(DatasetTest, TruncateDimsKeepsPrefix) {
  Dataset d("t", 4, Metric::kL2);
  const float p[] = {1, 2, 3, 4};
  d.Append(p);
  const Dataset t = d.TruncateDims(2);
  EXPECT_EQ(t.dim(), 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_FLOAT_EQ(t.Point(0)[1], 2.0f);
}

TEST(SyntheticTest, TableIHasTenDatasetsInPaperOrder) {
  const auto specs = PaperDatasets();
  ASSERT_EQ(specs.size(), 10u);
  EXPECT_EQ(specs[0].name, "SIFT1M");
  EXPECT_EQ(specs[1].name, "GIST");
  EXPECT_EQ(specs[9].name, "SIFT10M");
  EXPECT_EQ(specs[1].dim, 960u);
  EXPECT_EQ(specs[2].metric, Metric::kCosine);  // NYTimes
  EXPECT_EQ(specs[9].dim, 32u);                 // first 32 SIFT dims
}

TEST(SyntheticDeathTest, UnknownDatasetIsFatal) {
  EXPECT_DEATH(PaperDataset("NoSuchSet"), "unknown Table I dataset");
}

TEST(SyntheticTest, GenerateBaseIsDeterministic) {
  const DatasetSpec& spec = PaperDataset("SIFT1M");
  const Dataset a = GenerateBase(spec, 200, 5);
  const Dataset b = GenerateBase(spec, 200, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(a.values()[i], b.values()[i]);
  }
  const Dataset c = GenerateBase(spec, 200, 6);
  EXPECT_NE(a.values()[0], c.values()[0]);
}

TEST(SyntheticTest, CosineDatasetsComeNormalized) {
  const DatasetSpec& spec = PaperDataset("GloVe200");
  const Dataset d = GenerateBase(spec, 50, 1);
  for (std::size_t i = 0; i < d.size(); ++i) {
    double norm = 0;
    for (float v : d.Point(static_cast<VertexId>(i))) norm += double{v} * v;
    EXPECT_NEAR(norm, 1.0, 1e-4);
  }
}

TEST(SyntheticTest, QueriesHaveCloseNeighborsInBase) {
  const DatasetSpec& spec = PaperDataset("SIFT1M");
  const Dataset base = GenerateBase(spec, 1000, 3);
  const Dataset queries = GenerateQueries(spec, 20, 1000, 3);
  // Each query's nearest base point must be much closer than a random pair,
  // i.e. the query distribution genuinely overlaps the base clusters.
  double mean_nn = 0;
  double mean_random = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    Dist best = kInfDist;
    for (std::size_t i = 0; i < base.size(); ++i) {
      best = std::min(best, ExactDistance(spec.metric,
                                          base.Point(static_cast<VertexId>(i)),
                                          queries.Point(static_cast<VertexId>(q))));
    }
    mean_nn += best;
    mean_random += ExactDistance(spec.metric, base.Point(0),
                                 queries.Point(static_cast<VertexId>(q)));
  }
  EXPECT_LT(mean_nn, 0.5 * mean_random);
}

TEST(SyntheticTest, SkewedDatasetsHaveUnevenClusterMass) {
  // NYTimes is generated with zipf_s = 1; its nearest-neighbor distances
  // should have higher variance than the unskewed SIFT surrogate.
  const Dataset skewed = GenerateBase(PaperDataset("NYTimes"), 400, 1);
  const Dataset uniform = GenerateBase(PaperDataset("SIFT1M"), 400, 1);
  EXPECT_EQ(skewed.metric(), Metric::kCosine);
  EXPECT_EQ(uniform.metric(), Metric::kL2);
  // Both generate the requested number of rows.
  EXPECT_EQ(skewed.size(), 400u);
  EXPECT_EQ(uniform.size(), 400u);
}

TEST(GroundTruthTest, BruteForceFindsExactNeighbors) {
  // 1-d points at 0, 1, 2, ..., query at 3.2 => neighbors 3, 4, 2.
  Dataset base("line", 1, Metric::kL2);
  for (int i = 0; i < 10; ++i) {
    const float v = static_cast<float>(i);
    base.Append({&v, 1});
  }
  Dataset queries("q", 1, Metric::kL2);
  const float q = 3.2f;
  queries.Append({&q, 1});

  const GroundTruth truth = BruteForceKnn(base, queries, 3);
  ASSERT_EQ(truth.neighbors.size(), 1u);
  EXPECT_EQ(truth.neighbors[0], (std::vector<VertexId>{3, 4, 2}));
}

TEST(GroundTruthTest, TiesBrokenBySmallerId) {
  Dataset base("dup", 1, Metric::kL2);
  const float zero = 0;
  base.Append({&zero, 1});
  base.Append({&zero, 1});
  base.Append({&zero, 1});
  Dataset queries("q", 1, Metric::kL2);
  queries.Append({&zero, 1});
  const GroundTruth truth = BruteForceKnn(base, queries, 2);
  EXPECT_EQ(truth.neighbors[0], (std::vector<VertexId>{0, 1}));
}

TEST(RecallTest, CountsIntersectionOverK) {
  const std::vector<VertexId> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RecallAtK(std::vector<VertexId>{1, 2, 3, 4}, truth, 4), 1.0);
  EXPECT_DOUBLE_EQ(RecallAtK(std::vector<VertexId>{4, 3, 9, 9}, truth, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(std::vector<VertexId>{}, truth, 4), 0.0);
  // Short result lists count missing entries as misses.
  EXPECT_DOUBLE_EQ(RecallAtK(std::vector<VertexId>{1}, truth, 4), 0.25);
}

TEST(IoTest, FvecsRoundtrip) {
  Dataset d("io", 3, Metric::kL2);
  const float p0[] = {1.5f, -2.0f, 0.0f};
  const float p1[] = {7.0f, 8.0f, 9.0f};
  d.Append(p0);
  d.Append(p1);
  const std::string path = ::testing::TempDir() + "/roundtrip.fvecs";
  ASSERT_TRUE(WriteFvecs(path, d));

  const auto loaded = ReadFvecs(path, "io", Metric::kL2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->dim(), 3u);
  EXPECT_FLOAT_EQ(loaded->Point(0)[1], -2.0f);
  EXPECT_FLOAT_EQ(loaded->Point(1)[2], 9.0f);
  std::remove(path.c_str());
}

TEST(IoTest, ReadFvecsRejectsMissingAndTruncatedFiles) {
  EXPECT_FALSE(ReadFvecs("/nonexistent/x.fvecs", "x", Metric::kL2).has_value());

  const std::string path = ::testing::TempDir() + "/truncated.fvecs";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const std::int32_t dim = 100;  // promises 100 floats, delivers none
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fclose(f);
  EXPECT_FALSE(ReadFvecs(path, "t", Metric::kL2).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, IvecsRoundtrip) {
  const std::vector<std::vector<std::int32_t>> rows = {{1, 2, 3}, {}, {42}};
  const std::string path = ::testing::TempDir() + "/roundtrip.ivecs";
  ASSERT_TRUE(WriteIvecs(path, rows));
  const auto loaded = ReadIvecs(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace data
}  // namespace ganns
