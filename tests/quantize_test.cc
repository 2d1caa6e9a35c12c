// Tests for the compressed-vector search layer (data/quantize.h):
//
//  * SQ8 roundtrip error is bounded by the per-dimension quantization step
//    and PQ encoding picks the nearest centroid of every subspace;
//  * the approximate code distance agrees with the exact distance to the
//    decoded (reconstructed) vector, and data::QueryDistance is *bit
//    identical* under the portable and the AVX2 kernel sets — the same
//    determinism contract as the float distance layer;
//  * two-stage search (code distances in the loop, exact rerank before
//    emission) recovers recall to within 1% of the exact float path at the
//    same visited budget, measured against a brute-force oracle;
//  * the quantized trailing section round-trips through the v3 containers
//    (standalone section, shard files),
//    missing sections load as uncompressed, and malformed sections fail
//    with named errors.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ganns_search.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/distance_kernels.h"
#include "data/ground_truth.h"
#include "data/quantize.h"
#include "data/query_distance.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "graph/rerank.h"
#include "serve/shard_router.h"

namespace ganns {
namespace data {
namespace {

class QuantizeTest : public ::testing::Test {};

Dataset RandomDataset(std::size_t n, std::size_t dim, Metric metric,
                      std::uint64_t seed) {
  Rng rng(seed);
  Dataset base("quant", dim, metric);
  std::vector<float> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& x : row) x = rng.NextUniform(-2.0f, 2.0f);
    base.Append(row);
  }
  return base;
}

TEST_F(QuantizeTest, PrecisionNamesRoundTrip) {
  for (const Precision p : {Precision::kFloat32, Precision::kSq8,
                            Precision::kPq}) {
    const auto parsed = ParsePrecision(PrecisionName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(ParsePrecision("int4").has_value());
}

// SQ8 is round-to-nearest over a per-dimension affine grid, so the
// reconstruction error of any in-range value is at most half a step
// (scale[d] / 2), and codes cover the full corpus range by construction.
TEST_F(QuantizeTest, Sq8RoundtripErrorBounded) {
  const Dataset base = RandomDataset(500, 33, Metric::kL2, 71);
  QuantizerOptions options;
  options.precision = Precision::kSq8;
  const Quantizer q = Quantizer::Train(base, options);
  ASSERT_EQ(q.code_bytes(), base.dim());

  std::vector<std::uint8_t> code(q.code_bytes());
  std::vector<float> decoded(base.dim());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto row = base.Point(static_cast<VertexId>(i));
    q.EncodeRow(row, code.data());
    q.DecodeRow(code.data(), decoded);
    for (std::size_t d = 0; d < base.dim(); ++d) {
      const float step = q.sq8_scale()[d];
      EXPECT_LE(std::abs(decoded[d] - row[d]), step * 0.5f + 1e-5f)
          << "row " << i << " dim " << d;
    }
  }
}

// PQ encoding must pick the nearest centroid of every subspace — no other
// codebook entry may be strictly closer than the chosen one.
TEST_F(QuantizeTest, PqEncodePicksNearestCentroid) {
  const Dataset base = RandomDataset(400, 20, Metric::kL2, 13);
  QuantizerOptions options;
  options.precision = Precision::kPq;
  options.pq_subspaces = 4;
  options.pq_centroids = 16;
  const Quantizer q = Quantizer::Train(base, options);
  ASSERT_EQ(q.code_bytes(), 4u);
  ASSERT_EQ(q.pq_centroids(), 16u);

  std::vector<std::uint8_t> code(q.code_bytes());
  for (std::size_t i = 0; i < 50; ++i) {
    const auto row = base.Point(static_cast<VertexId>(i));
    q.EncodeRow(row, code.data());
    for (std::size_t m = 0; m < q.pq_subspaces(); ++m) {
      const float* sub_row = row.data() + q.sub_offset(m);
      const Dist chosen = ComputeDistance(Metric::kL2, sub_row,
                                          q.centroid(m, code[m]), q.sub_dim(m));
      for (std::size_t j = 0; j < q.pq_centroids(); ++j) {
        const Dist other = ComputeDistance(Metric::kL2, sub_row,
                                           q.centroid(m, j), q.sub_dim(m));
        EXPECT_GE(other, chosen) << "row " << i << " sub " << m << " j " << j;
      }
    }
  }
}

// The approximate code distance is the exact metric distance to the decoded
// vector (SQ8 dequantizes the same grid values; the PQ LUT sums the same
// per-subspace partials), up to float accumulation-order slack.
TEST_F(QuantizeTest, CodeDistanceMatchesDecodedVector) {
  for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
    const Dataset base = RandomDataset(200, 48, metric, 5);
    Rng rng(91);
    std::vector<float> query(base.dim());
    for (auto& x : query) x = rng.NextUniform(-2.0f, 2.0f);

    for (const Precision precision : {Precision::kSq8, Precision::kPq}) {
      QuantizerOptions options;
      options.precision = precision;
      options.pq_subspaces = 8;
      const Quantizer q = Quantizer::Train(base, options);
      const QuantizedCodes codes = QuantizedCodes::EncodeAll(q, base);
      ASSERT_EQ(codes.size(), base.size());
      const SearchQuantization quant{&q, &codes, 4};
      const QueryDistance ctx(base, query, &quant);

      std::vector<float> decoded(base.dim());
      for (std::size_t i = 0; i < base.size(); ++i) {
        q.DecodeRow(codes.code(i), decoded);
        const Dist want =
            ComputeDistance(metric, decoded.data(), query.data(), base.dim());
        const Dist got = ctx.One(static_cast<VertexId>(i));
        EXPECT_NEAR(want, got, 2e-3f)
            << PrecisionName(precision) << " slot " << i;
      }
    }
  }
}

// The SQ8 kernels honour the same stripe-and-combine determinism contract
// as the float kernels: the AVX2 set must return bit-identical code
// distances to the portable set.
TEST_F(QuantizeTest, CodeDistanceBitIdenticalAcrossKernelSets) {
  const internal::KernelSet* avx2 = internal::Avx2Kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 kernel set on this CPU";
  const Dataset base = RandomDataset(64, 129, Metric::kL2, 23);
  QuantizerOptions options;
  options.precision = Precision::kSq8;
  const Quantizer q = Quantizer::Train(base, options);
  const QuantizedCodes codes = QuantizedCodes::EncodeAll(q, base);
  const SearchQuantization quant{&q, &codes, 4};

  Rng rng(8);
  std::vector<float> query(base.dim());
  for (auto& x : query) x = rng.NextUniform(-2.0f, 2.0f);

  // The evaluator takes its SQ8 kernel from the set active at construction.
  const auto distances = [&](const internal::KernelSet& set,
                             const Dataset& rows) {
    const internal::ScopedKernelSet scoped(set);
    const QueryDistance ctx(rows, query, &quant);
    std::vector<Dist> out(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      out[i] = ctx.One(static_cast<VertexId>(i));
    }
    return out;
  };
  // Code distances read the codes and the base's metric, not its rows: the
  // cosine twin only supplies the metric.
  const Dataset cosine = RandomDataset(64, 129, Metric::kCosine, 23);
  for (const Dataset* rows : {&base, &cosine}) {
    const std::vector<Dist> want =
        distances(internal::kPortableKernels, *rows);
    const std::vector<Dist> got = distances(*avx2, *rows);
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(Dist)), 0)
          << "slot " << i << " want " << want[i] << " got " << got[i];
    }
  }
}

// ExactRerank re-sorts the top pool by exact float distance: feeding it
// candidates ordered by approximate distance must surface the true nearest
// neighbor first when it is anywhere inside the pool.
TEST_F(QuantizeTest, ExactRerankPromotesTrueNearest) {
  const Dataset base = RandomDataset(100, 16, Metric::kL2, 3);
  Rng rng(4);
  std::vector<float> query(base.dim());
  for (auto& x : query) x = rng.NextUniform(-2.0f, 2.0f);

  // All 100 candidates in reverse-exact order: the worst possible
  // approximate ordering that still contains the answer.
  std::vector<graph::Neighbor> candidates;
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto id = static_cast<VertexId>(i);
    candidates.push_back(
        {ComputeDistance(Metric::kL2, base.Point(id).data(), query.data(),
                         base.dim()),
         id});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const graph::Neighbor& a, const graph::Neighbor& b) {
              return a.dist > b.dist;
            });
  const VertexId best = candidates.back().id;

  const std::size_t evals =
      graph::ExactRerank(base, query, candidates, /*k=*/10,
                         /*rerank_factor=*/10);
  EXPECT_EQ(evals, 100u);
  ASSERT_EQ(candidates.size(), 10u);
  EXPECT_EQ(candidates.front().id, best);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end(),
                             [](const graph::Neighbor& a,
                                const graph::Neighbor& b) {
                               return a.dist < b.dist ||
                                      (a.dist == b.dist && a.id < b.id);
                             }));
}

// Acceptance property of the two-stage path: at the same traversal budget,
// SQ8 + exact rerank recall stays within 1% of the exact float path,
// measured against a brute-force oracle.
TEST_F(QuantizeTest, TwoStageRecallWithinOnePercentOfExact) {
  const Dataset base =
      GenerateBase(PaperDataset("SIFT1M"), 800, /*seed=*/11);
  const Dataset queries =
      GenerateQueries(PaperDataset("SIFT1M"), 30, 800, /*seed=*/11);
  const GroundTruth truth = BruteForceKnn(base, queries, 10);
  const graph::ProximityGraph nsw =
      std::move(graph::BuildNswCpu(base, {}).graph);

  core::GannsParams params;
  params.k = 10;
  params.l_n = 64;

  gpusim::Device exact_device;
  const graph::BatchSearchResult exact = core::GannsSearchBatch(
      exact_device, nsw, base, queries, params);
  const double exact_recall = MeanRecall(exact.results, truth, params.k);

  QuantizerOptions options;
  options.precision = Precision::kSq8;
  const Quantizer q = Quantizer::Train(base, options);
  const QuantizedCodes codes = QuantizedCodes::EncodeAll(q, base);
  const SearchQuantization quant{&q, &codes, 4};

  gpusim::Device quant_device;
  const graph::BatchSearchResult compressed = core::GannsSearchBatch(
      quant_device, nsw, base, queries, params, 32, 0, nullptr, {&quant});
  const double compressed_recall =
      MeanRecall(compressed.results, truth, params.k);

  EXPECT_GE(compressed_recall, exact_recall - 0.01);
  // The narrower code loads must make the same traversal cheaper on the
  // simulated clock.
  EXPECT_LT(compressed.sim_seconds, exact.sim_seconds);
}

TEST_F(QuantizeTest, QuantizedSectionRoundTrips) {
  for (const Precision precision : {Precision::kSq8, Precision::kPq}) {
    const Dataset base = RandomDataset(120, 24, Metric::kL2, 9);
    QuantizerOptions options;
    options.precision = precision;
    options.pq_subspaces = 6;
    options.rerank_factor = 7;
    const Quantizer q = Quantizer::Train(base, options);
    const QuantizedCodes codes = QuantizedCodes::EncodeAll(q, base);

    const std::string path = std::string(::testing::TempDir()) +
                             "/quant_section_" + PrecisionName(precision) +
                             ".bin";
    {
      std::FILE* file = std::fopen(path.c_str(), "wb");
      ASSERT_NE(file, nullptr);
      ASSERT_TRUE(WriteQuantizedSection(file, q, codes));
      std::fclose(file);
    }
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::string error;
    const auto store = ReadQuantizedSection(file, base.size(), &error);
    std::fclose(file);
    std::remove(path.c_str());

    ASSERT_TRUE(store.has_value()) << error;
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(store->quantizer.precision(), precision);
    EXPECT_EQ(store->quantizer.dim(), base.dim());
    EXPECT_EQ(store->quantizer.rerank_factor(), 7u);
    ASSERT_EQ(store->codes.size(), codes.size());
    ASSERT_EQ(store->codes.code_bytes(), codes.code_bytes());
    EXPECT_EQ(std::memcmp(store->codes.data(), codes.data(),
                          codes.resident_bytes()),
              0);
  }
}

// A container without a trailing section reads back as "no section" — clean
// nullopt with an *empty* error — which is exactly the v1/v2/plain-v3
// read-compat contract.
TEST_F(QuantizeTest, MissingSectionIsCleanEof) {
  const std::string path =
      std::string(::testing::TempDir()) + "/quant_empty.bin";
  { ASSERT_NE(std::fopen(path.c_str(), "wb"), nullptr); }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string error = "sentinel";
  const auto store = ReadQuantizedSection(file, 10, &error);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_FALSE(store.has_value());
  EXPECT_TRUE(error.empty()) << error;
}

// A section whose code array does not cover the expected slot count must
// fail with an error naming both counts.
TEST_F(QuantizeTest, SlotCountMismatchIsNamed) {
  const Dataset base = RandomDataset(40, 8, Metric::kL2, 2);
  QuantizerOptions options;
  options.precision = Precision::kSq8;
  const Quantizer q = Quantizer::Train(base, options);
  const QuantizedCodes codes = QuantizedCodes::EncodeAll(q, base);

  const std::string path =
      std::string(::testing::TempDir()) + "/quant_mismatch.bin";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(WriteQuantizedSection(file, q, codes));
    std::fclose(file);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string error;
  const auto store = ReadQuantizedSection(file, base.size() + 5, &error);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_FALSE(store.has_value());
  EXPECT_NE(error.find("40"), std::string::npos) << error;
  EXPECT_NE(error.find("45"), std::string::npos) << error;
}

// Every named error of the quantization-section reader, each from a
// crafted section: the 8-word header {magic, version, dim, precision, M, K,
// rerank_factor, reserved}, the codebook payload, then the code count and
// the codes.
TEST_F(QuantizeTest, MalformedSectionsGiveNamedErrors) {
  constexpr std::uint64_t kMagic = 0x544e5147534e4e47ULL;  // "GNNSGQNT"
  constexpr std::uint64_t kSq8 = 1;
  constexpr std::uint64_t kPq = 2;
  using Bytes = std::vector<unsigned char>;
  const auto header = [](std::uint64_t magic, std::uint64_t version,
                         std::uint64_t dim, std::uint64_t precision,
                         std::uint64_t m, std::uint64_t k,
                         std::uint64_t rerank) {
    const std::uint64_t words[8] = {magic, version, dim, precision,
                                    m,     k,       rerank, 0};
    const auto* bytes = reinterpret_cast<const unsigned char*>(words);
    return Bytes(bytes, bytes + sizeof(words));
  };
  const auto append = [](Bytes b, const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    b.insert(b.end(), bytes, bytes + size);
    return b;
  };
  const auto floats = [&](Bytes b, std::size_t count) {
    const std::vector<float> values(count, 0.5f);
    return append(std::move(b), values.data(), count * sizeof(float));
  };
  const auto word = [&](Bytes b, std::uint64_t value) {
    return append(std::move(b), &value, sizeof(value));
  };
  // A whole sq8 quantizer record at dim 4, ready for its code array.
  const Bytes sq8 = floats(header(kMagic, 1, 4, kSq8, 0, 0, 4), 8);

  const struct {
    const char* error;
    Bytes section;
    std::size_t expected_slots;
  } cases[] = {
      {"unknown trailing section magic 0x5858585858585858",
       header(0x5858585858585858ULL, 1, 4, kSq8, 0, 0, 4), SIZE_MAX},
      {"quantization section: truncated header",
       Bytes(sq8.begin(), sq8.begin() + 40), SIZE_MAX},
      {"quantization section: unsupported version 2",
       header(kMagic, 2, 4, kSq8, 0, 0, 4), SIZE_MAX},
      {"quantization section: implausible dim 0",
       header(kMagic, 1, 0, kSq8, 0, 0, 4), SIZE_MAX},
      {"quantization section: implausible dim 65537",
       header(kMagic, 1, 65537, kSq8, 0, 0, 4), SIZE_MAX},
      {"quantization section: unknown precision code 0",
       header(kMagic, 1, 4, 0, 0, 0, 4), SIZE_MAX},
      {"quantization section: unknown precision code 3",
       header(kMagic, 1, 4, 3, 0, 0, 4), SIZE_MAX},
      {"quantization section: implausible rerank_factor 0",
       header(kMagic, 1, 4, kSq8, 0, 0, 0), SIZE_MAX},
      {"quantization section: implausible rerank_factor 4097",
       header(kMagic, 1, 4, kSq8, 0, 0, 4097), SIZE_MAX},
      {"quantization section: truncated sq8 affine payload",
       floats(header(kMagic, 1, 4, kSq8, 0, 0, 4), 7), SIZE_MAX},
      {"quantization section: pq subspaces 0 out of range for dim 4",
       floats(header(kMagic, 1, 4, kPq, 0, 2, 4), 8), SIZE_MAX},
      {"quantization section: pq subspaces 5 out of range for dim 4",
       floats(header(kMagic, 1, 4, kPq, 5, 2, 4), 8), SIZE_MAX},
      {"quantization section: pq centroid count 0",
       floats(header(kMagic, 1, 4, kPq, 2, 0, 4), 8), SIZE_MAX},
      {"quantization section: pq centroid count 257",
       floats(header(kMagic, 1, 4, kPq, 2, 257, 4), 8), SIZE_MAX},
      {"quantization section: truncated pq codebook payload",
       floats(header(kMagic, 1, 4, kPq, 2, 2, 4), 7), SIZE_MAX},
      // 256 centroids at dim 65536 claim a 64 MiB codebook; 64 bytes follow.
      {"quantization section: truncated pq codebook payload",
       floats(header(kMagic, 1, 65536, kPq, 16, 256, 4), 16), SIZE_MAX},
      {"quantization section: truncated code array header",
       append(sq8, "\x03\0\0\0", 4), SIZE_MAX},
      {"quantization section: implausible code count 4294967297",
       word(sq8, (std::uint64_t{1} << 32) + 1), SIZE_MAX},
      {"quantization section: code count mismatch (file has 3 codes, "
       "index has 2 vectors)",
       append(word(sq8, 3), "abcdefghijkl", 12), 2},
      {"quantization section: truncated code array (expected 12 bytes)",
       append(word(sq8, 3), "abcdefghijk", 11), SIZE_MAX},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.error);
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(c.section.data(), 1, c.section.size(), file),
              c.section.size());
    std::rewind(file);
    std::string error;
    EXPECT_FALSE(
        ReadQuantizedSection(file, c.expected_slots, &error).has_value());
    std::fclose(file);
    EXPECT_EQ(error.substr(0, std::strlen(c.error)), c.error) << error;
  }
}

// SaveShards/LoadShards must restore the per-shard quantizer + codes, and
// the loaded index must return exactly the results of the original. It
// loads with *default* options: the precision and rerank factor must come
// from the files, not from the caller's configuration.
TEST_F(QuantizeTest, ShardedIndexQuantizedSaveLoadRoundTrips) {
  const Dataset base =
      GenerateBase(PaperDataset("SIFT1M"), 500, /*seed=*/29);
  const Dataset queries =
      GenerateQueries(PaperDataset("SIFT1M"), 12, 500, /*seed=*/29);

  serve::ShardBuildOptions options;
  options.quantize.precision = Precision::kPq;
  options.quantize.pq_subspaces = 16;
  options.quantize.pq_centroids = 32;
  options.quantize.rerank_factor = 3;
  auto index = serve::ShardedIndex::Build(base, 2, options);
  EXPECT_EQ(index.resident_bytes_per_vector(), 16u);

  std::vector<serve::RoutedQuery> routed(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    routed[qi].query = queries.Point(static_cast<VertexId>(qi));
    routed[qi].k = 10;
    routed[qi].budget = 128;
  }
  const auto want = index.SearchBatch(routed, core::SearchKernel::kGanns);

  const std::string prefix =
      std::string(::testing::TempDir()) + "/quant_shards";
  ASSERT_TRUE(index.SaveShards(prefix));

  std::string error;
  auto loaded = serve::ShardedIndex::LoadShards(
      prefix, base, 2, serve::ShardBuildOptions(), &error);
  for (int s = 0; s < 2; ++s) {
    std::remove((prefix + ".shard" + std::to_string(s)).c_str());
  }
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(loaded->resident_bytes_per_vector(), 16u);
  const auto got = loaded->SearchBatch(routed, core::SearchKernel::kGanns);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace data
}  // namespace ganns
