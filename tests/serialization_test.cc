// Parameterized serialization failure-path tests: every on-disk reader
// (flat v3 graph record, the same record carrying lifecycle state, the
// layered HNSW stream, and the quantized trailing section) must reject —
// never crash on, never partially apply — a corrupted file. One corruption
// family crossed with every format: wrong magic, unknown version, truncated
// header, truncated payload, and an oversized element count in the header.
// The writers' other failure path is covered too: a save whose final flush
// fails (a full disk) must report it.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/io.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/hnsw.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace graph {
namespace {

enum class Format { kGraphV3, kGraphV3Lifecycle, kHnsw, kQuantized };
enum class Corruption {
  kBadMagic,
  kBadVersion,
  kTruncatedHeader,
  kTruncatedPayload,
  kOversizedCount,
};

const char* FormatName(Format f) {
  switch (f) {
    case Format::kGraphV3: return "GraphV3";
    case Format::kGraphV3Lifecycle: return "GraphV3Lifecycle";
    case Format::kHnsw: return "Hnsw";
    case Format::kQuantized: return "Quantized";
  }
  return "?";
}

const char* CorruptionName(Corruption c) {
  switch (c) {
    case Corruption::kBadMagic: return "BadMagic";
    case Corruption::kBadVersion: return "BadVersion";
    case Corruption::kTruncatedHeader: return "TruncatedHeader";
    case Corruption::kTruncatedPayload: return "TruncatedPayload";
    case Corruption::kOversizedCount: return "OversizedCount";
  }
  return "?";
}

/// Writes a small valid file of the given format and returns its path.
/// The suffix keeps paths distinct across the parameterized cases, which
/// ctest runs as concurrent processes sharing one temp directory.
std::string WriteValidFile(Format format, const char* suffix) {
  const std::string path = std::string(::testing::TempDir()) + "/serialization_" +
                           FormatName(format) + "_" + suffix + ".bin";
  if (format == Format::kHnsw) {
    const data::Dataset base =
        data::GenerateBase(data::PaperDataset("SIFT1M"), 64, 3);
    HnswParams params;
    HnswGraph graph = std::move(BuildHnswCpu(base, params).graph);
    EXPECT_TRUE(graph.SaveTo(path));
    return path;
  }
  if (format == Format::kQuantized) {
    const data::Dataset base =
        data::GenerateBase(data::PaperDataset("SIFT1M"), 64, 3);
    data::QuantizerOptions options;
    options.precision = data::Precision::kSq8;
    const data::Quantizer quantizer = data::Quantizer::Train(base, options);
    const data::QuantizedCodes codes =
        data::QuantizedCodes::EncodeAll(quantizer, base);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    EXPECT_NE(file, nullptr);
    EXPECT_TRUE(data::WriteQuantizedSection(file, quantizer, codes));
    std::fclose(file);
    return path;
  }
  ProximityGraph graph(8, 4, format == Format::kGraphV3Lifecycle ? 12 : 8);
  for (VertexId v = 0; v < 8; ++v) {
    graph.InsertNeighbor(v, (v + 1) % 8, 0.5f + static_cast<float>(v));
    graph.InsertNeighbor(v, (v + 3) % 8, 1.5f + static_cast<float>(v));
  }
  if (format == Format::kGraphV3Lifecycle) {
    graph.Tombstone(2);
    graph.Tombstone(5);
    const auto v = graph.AllocVertex();
    EXPECT_TRUE(v.has_value());
  }
  EXPECT_TRUE(graph.SaveTo(path));
  return path;
}

bool LoadFile(Format format, const std::string& path) {
  if (format == Format::kHnsw) return HnswGraph::LoadFrom(path).has_value();
  if (format == Format::kQuantized) {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr);
    std::string error;
    const auto store = data::ReadQuantizedSection(file, SIZE_MAX, &error);
    std::fclose(file);
    // A rejected section must carry a named error, never a silent
    // "no section here" (that outcome is reserved for clean EOF).
    EXPECT_EQ(store.has_value(), error.empty());
    return store.has_value();
  }
  return ProximityGraph::LoadFrom(path).has_value();
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(std::ftell(file));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

void Corrupt(std::vector<std::uint8_t>& bytes, Corruption corruption) {
  ASSERT_GE(bytes.size(), 32u);  // every format starts with >= 4 u64 words
  auto put_u64 = [&](std::size_t word, std::uint64_t value) {
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[word * 8 + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  };
  switch (corruption) {
    case Corruption::kBadMagic:
      bytes[0] ^= 0xFF;
      break;
    case Corruption::kBadVersion:
      put_u64(1, 9999);
      break;
    case Corruption::kTruncatedHeader:
      bytes.resize(12);
      break;
    case Corruption::kTruncatedPayload:
      bytes.resize(bytes.size() * 3 / 5);
      break;
    case Corruption::kOversizedCount:
      // Word 2 is the element count in every header (the vertex count for
      // graph records and the HNSW stream, dim for the quantized section):
      // far past the sanity cap.
      put_u64(2, std::uint64_t{1} << 50);
      break;
  }
}

using Param = std::tuple<Format, Corruption>;

class SerializationFailureTest : public ::testing::TestWithParam<Param> {};

TEST_P(SerializationFailureTest, CorruptFileIsRejected) {
  const auto [format, corruption] = GetParam();
  const std::string path = WriteValidFile(format, CorruptionName(corruption));
  ASSERT_TRUE(LoadFile(format, path)) << "valid file must load";

  std::vector<std::uint8_t> bytes = ReadAll(path);
  Corrupt(bytes, corruption);
  WriteAll(path, bytes);
  EXPECT_FALSE(LoadFile(format, path));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SerializationFailureTest,
    ::testing::Combine(::testing::Values(Format::kGraphV3,
                                         Format::kGraphV3Lifecycle,
                                         Format::kHnsw,
                                         Format::kQuantized),
                       ::testing::Values(Corruption::kBadMagic,
                                         Corruption::kBadVersion,
                                         Corruption::kTruncatedHeader,
                                         Corruption::kTruncatedPayload,
                                         Corruption::kOversizedCount)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(FormatName(std::get<0>(info.param))) + "_" +
             CorruptionName(std::get<1>(info.param));
    });

// stdio buffers a small file until the close, so on /dev/full only the final
// flush fails: every binary writer must report that as a failed save.
TEST(SerializationWriterTest, FailedFinalFlushIsReported) {
  const std::string full = "/dev/full";
  if (std::FILE* file = std::fopen(full.c_str(), "wb")) {
    std::fclose(file);
  } else {
    GTEST_SKIP() << "/dev/full is not available";
  }
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 4, 3);
  EXPECT_FALSE(data::WriteFvecs(full, base));
  EXPECT_FALSE(data::WriteIvecs(full, {{1, 2, 3}, {4, 5, 6}}));
  ProximityGraph graph(4, 2);
  graph.InsertNeighbor(0, 1, 0.5f);
  EXPECT_FALSE(graph.SaveTo(full));
  HnswParams params;
  params.nsw.d_min = 2;
  params.nsw.d_max = 4;
  EXPECT_FALSE(BuildHnswCpu(base, params).graph.SaveTo(full));
}

}  // namespace
}  // namespace graph
}  // namespace ganns
