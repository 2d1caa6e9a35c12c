// Corrupt headers cannot make a reader allocate what the file does not hold.
// Each case hands a reader a header claiming a huge section (1 GiB of graph
// cells, HNSW levels, vector rows or codes; the largest PQ codebook; the
// largest SQ8 affine payload) in a file of a few KB, and records the largest
// single heap request made while the reader runs. A reader that checks the
// claim against the bytes left in the file first stays under a bound tied to
// the file's size; one that allocates from the header does not. Unlike a
// peak-RSS bound this also catches claims too small to move RSS much (the
// 64 MiB codebook).
//
// The binary replaces the global operator new, so it is kept out of the
// sanitizer builds (their runtimes own the allocator).

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/hnsw.h"
#include "serve/shard_router.h"

namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::size_t> g_largest{0};

void Record(std::size_t size) {
  if (!g_recording.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
}

}  // namespace

// The array and nothrow forms default to these.
void* operator new(std::size_t size) {
  Record(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  Record(size);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ganns {
namespace {

using Bytes = std::vector<char>;

constexpr std::uint64_t kGiB = std::uint64_t{1} << 30;
constexpr std::size_t kFileBytes = 4000;

/// The largest single request a reader may make on a file of `file_bytes`.
/// One that checks each claim against the bytes left needs at most about
/// what the file holds; the bound allows twice that plus 64 KiB of
/// fixed-size bookkeeping.
std::size_t Bound(std::size_t file_bytes) {
  return 2 * file_bytes + (std::size_t{64} << 10);
}

/// Largest single heap request made by `read`.
template <typename Read>
std::size_t LargestRequest(const Read& read) {
  g_largest.store(0);
  g_recording.store(true);
  read();
  g_recording.store(false);
  return g_largest.load();
}

Bytes ReadBytes(const std::string& path) {
  Bytes bytes;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return bytes;
  char buf[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(file);
  return bytes;
}

void WriteBytes(const std::string& path, const Bytes& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

std::uint64_t Word(const Bytes& bytes, std::size_t i) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data() + i * sizeof(word), sizeof(word));
  return word;
}

void SetWord(Bytes& bytes, std::size_t i, std::uint64_t word) {
  std::memcpy(bytes.data() + i * sizeof(word), &word, sizeof(word));
}

/// A temporary file holding `bytes`, rewound.
std::FILE* TempFile(const void* bytes, std::size_t size) {
  std::FILE* file = std::tmpfile();
  if (file == nullptr) return nullptr;
  if (std::fwrite(bytes, 1, size, file) != size) {
    std::fclose(file);
    return nullptr;
  }
  std::rewind(file);
  return file;
}

class AllocBoundTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 600, 11));
  }

  /// Saves a one-shard index of `options`' kind and returns its file.
  Bytes SavedShard(const std::string& name,
                   const serve::ShardBuildOptions& options) {
    const std::string prefix = ::testing::TempDir() + "/" + name;
    EXPECT_TRUE(
        serve::ShardedIndex::Build(*base_, 1, options).SaveShards(prefix));
    const Bytes bytes = ReadBytes(prefix + ".shard0");
    std::remove((prefix + ".shard0").c_str());
    return bytes;
  }

  /// Loads `bytes` as a one-shard index: fails, and returns the largest
  /// single request made.
  std::size_t LoadCorruptShard(const Bytes& bytes) {
    const std::string prefix = ::testing::TempDir() + "/alloc_bound";
    const std::string path = prefix + ".shard0";
    WriteBytes(path, bytes);
    std::string error;
    bool loaded = true;
    const std::size_t largest = LargestRequest([&] {
      loaded = serve::ShardedIndex::LoadShards(prefix, *base_, 1, {}, &error)
                   .has_value();
    });
    std::remove(path.c_str());
    EXPECT_FALSE(loaded);
    const std::string want =
        "shard file '" + path + "': graph record: truncated, corrupt";
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
    return largest;
  }

  /// Reads `bytes` as a quantization section: fails with an error starting
  /// `want`, and returns the largest single request made.
  static std::size_t ReadCorruptSection(const Bytes& bytes,
                                        const std::string& want) {
    std::FILE* file = TempFile(bytes.data(), bytes.size());
    EXPECT_NE(file, nullptr);
    if (file == nullptr) return 0;
    std::string error;
    bool read = true;
    const std::size_t largest = LargestRequest([&] {
      read = data::ReadQuantizedSection(file, SIZE_MAX, &error).has_value();
    });
    std::fclose(file);
    EXPECT_FALSE(read);
    EXPECT_EQ(error.substr(0, want.size()), want) << error;
    return largest;
  }

  std::unique_ptr<data::Dataset> base_;
};

// NSW graph record after the 8-word shard header: {magic, version,
// vertices, d_max, capacity, live, tombstones, free}. 2^23 vertices at
// d_max 32 are 2^28 cells: 1 GiB of ids, 1 GiB of dists.
TEST_F(AllocBoundTest, GraphCells) {
  const Bytes nsw = SavedShard("alloc_nsw", {});
  ASSERT_EQ(Word(nsw, 8 + 3), 32u);
  Bytes cells(nsw.begin(), nsw.begin() + kFileBytes);
  for (const std::size_t word : {2, 4, 5}) {
    SetWord(cells, 8 + word, kGiB / (32 * sizeof(VertexId)));
  }
  EXPECT_LT(LoadCorruptShard(cells), Bound(kFileBytes));
}

// HNSW record: {magic, version, vertices, d_max, layers, entry}; 2^30
// vertices at d_max 1 are a 1 GiB level array.
TEST_F(AllocBoundTest, HnswLevels) {
  serve::ShardBuildOptions options;
  options.kind = core::GraphKind::kHnsw;
  const Bytes hnsw = SavedShard("alloc_hnsw", options);
  ASSERT_EQ(Word(hnsw, 8), graph::HnswGraph::kRecordMagic);
  Bytes levels(hnsw.begin(), hnsw.begin() + kFileBytes);
  SetWord(levels, 8 + 2, kGiB);
  SetWord(levels, 8 + 3, 1);
  EXPECT_LT(LoadCorruptShard(levels), Bound(kFileBytes));
}

// Rows: 2^21 rows of 128 floats asked of a file holding 7.5 of them.
TEST_F(AllocBoundTest, VectorRows) {
  const std::size_t row_bytes = base_->dim() * sizeof(float);
  const std::size_t file_bytes = row_bytes * 15 / 2;
  std::FILE* file = TempFile(base_->values().data(), file_bytes);
  ASSERT_NE(file, nullptr);
  data::Dataset rows("rows", base_->dim(), base_->metric());
  std::size_t read = 0;
  const std::size_t largest =
      LargestRequest([&] { read = rows.ReadRows(file, kGiB / row_bytes); });
  std::fclose(file);
  EXPECT_EQ(read, 7u);
  EXPECT_LT(largest, Bound(file_bytes));
}

// Codes: an SQ8 section whose count claims 1 GiB of codes, cut to 4 KB.
TEST_F(AllocBoundTest, QuantizationCodes) {
  data::QuantizerOptions sq8;
  sq8.precision = data::Precision::kSq8;
  const data::Quantizer quantizer = data::Quantizer::Train(*base_, sq8);
  const data::QuantizedCodes codes =
      data::QuantizedCodes::EncodeAll(quantizer, *base_);
  std::FILE* file = std::tmpfile();
  ASSERT_NE(file, nullptr);
  ASSERT_TRUE(data::WriteQuantizedSection(file, quantizer, codes));
  Bytes bytes(static_cast<std::size_t>(std::ftell(file)));
  std::rewind(file);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  // The code count is the word just before the code array.
  const std::size_t count_word =
      (bytes.size() - codes.resident_bytes()) / sizeof(std::uint64_t) - 1;
  SetWord(bytes, count_word, kGiB / quantizer.code_bytes());
  bytes.resize(kFileBytes);
  EXPECT_LT(ReadCorruptSection(bytes,
                               "quantization section: truncated code array"),
            Bound(kFileBytes));
}

// Quantizer record header words: {magic "GNNSGQNT", version, dim,
// precision, pq subspaces, pq centroids, rerank_factor, reserved}.
constexpr std::uint64_t kQuantMagic = 0x544e5147534e4e47ULL;

// A PQ record claiming 256 centroids at dim 65536 (a 64 MiB codebook, the
// most the header limits allow), cut to 64 bytes of payload.
TEST_F(AllocBoundTest, PqCodebook) {
  const std::uint64_t header[8] = {kQuantMagic, 1, 65536, 2, 16, 256, 4, 0};
  Bytes bytes(sizeof(header) + 64, 0);
  std::memcpy(bytes.data(), header, sizeof(header));
  EXPECT_LT(ReadCorruptSection(
                bytes, "quantization section: truncated pq codebook payload"),
            Bound(bytes.size()));
}

// An SQ8 record claiming dim 65536 (512 KiB of affine min/scale floats),
// cut to 64 bytes of payload.
TEST_F(AllocBoundTest, Sq8AffinePayload) {
  const std::uint64_t header[8] = {kQuantMagic, 1, 65536, 1, 0, 0, 4, 0};
  Bytes bytes(sizeof(header) + 64, 0);
  std::memcpy(bytes.data(), header, sizeof(header));
  EXPECT_LT(ReadCorruptSection(
                bytes, "quantization section: truncated sq8 affine payload"),
            Bound(bytes.size()));
}

}  // namespace
}  // namespace ganns
