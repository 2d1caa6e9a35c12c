// Pinned outputs of the search kernels beside GANNS: SONG (profile sums and
// result ids), the CPU beam search (ids, distances and BeamSearchStats) and
// the HNSW descent (entry vertices and stats), each on the exact path and
// on SQ8 codes. The numbers were recorded from the kernels as they stood
// when each chose its own distance path; routing every kernel through one
// per-query distance evaluator must leave all of them unchanged.

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include <gtest/gtest.h>

#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/beam_search.h"
#include "graph/cpu_nsw.h"
#include "graph/hnsw.h"
#include "song/song_search.h"

namespace ganns {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t Fnv(std::uint64_t hash, std::uint64_t word) {
  return (hash ^ word) * 0x100000001b3ULL;
}

std::uint64_t DistBits(Dist d) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

class SearchPinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    base_ = new data::Dataset(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 4));
    queries_ = new data::Dataset(data::GenerateQueries(
        data::PaperDataset("SIFT1M"), 40, 800, 4));
    nsw_ = new graph::CpuBuildResult(graph::BuildNswCpu(*base_, {}));
    hnsw_ = new graph::CpuHnswBuildResult(graph::BuildHnswCpu(*base_, {}));
    data::QuantizerOptions options;
    options.precision = data::Precision::kSq8;
    sq8_ = new data::Quantizer(data::Quantizer::Train(*base_, options));
    sq8_codes_ = new data::QuantizedCodes(
        data::QuantizedCodes::EncodeAll(*sq8_, *base_));
    sq8_quant_ = data::SearchQuantization{sq8_, sq8_codes_, 4};
  }

  static void TearDownTestSuite() {
    delete sq8_codes_;
    delete sq8_;
    delete hnsw_;
    delete nsw_;
    delete queries_;
    delete base_;
  }

  static graph::SearchContext Sq8() { return {&sq8_quant_}; }

  static inline data::Dataset* base_ = nullptr;
  static inline data::Dataset* queries_ = nullptr;
  static inline graph::CpuBuildResult* nsw_ = nullptr;
  static inline graph::CpuHnswBuildResult* hnsw_ = nullptr;
  static inline data::Quantizer* sq8_ = nullptr;
  static inline data::QuantizedCodes* sq8_codes_ = nullptr;
  static inline data::SearchQuantization sq8_quant_{};
};

// ---- SONG: profile sums over the queries plus an FNV-1a hash of the ids.

struct SongPin {
  double total_cycles = 0;
  std::array<double, song::kNumSongStages> stage_cycles{};
  std::uint64_t hops = 0;
  std::uint64_t distance_computations = 0;
  std::uint64_t host_ops = 0;
  std::uint64_t ids_hash = kFnvBasis;
};

class SongKernelPinTest : public SearchPinTest {
 protected:
  static SongPin Run(const graph::SearchContext& ctx = {}) {
    song::SongParams params;
    params.k = 10;
    params.queue_size = 64;
    std::vector<song::SongQueryProfile> profiles;
    gpusim::Device device;
    const auto batch = song::SongSearchBatch(device, nsw_->graph, *base_,
                                             *queries_, params, 32, 0,
                                             &profiles, ctx);
    SongPin pin;
    for (const song::SongQueryProfile& p : profiles) {
      pin.total_cycles += p.total_cycles;
      for (int i = 0; i < song::kNumSongStages; ++i) {
        pin.stage_cycles[i] += p.stage_cycles[i];
      }
      pin.hops += p.hops;
      pin.distance_computations += p.distance_computations;
      pin.host_ops += p.host_ops;
    }
    for (const auto& row : batch.results) {
      for (const VertexId id : row) pin.ids_hash = Fnv(pin.ids_hash, id);
    }
    return pin;
  }

  static void ExpectPin(const SongPin& got, const SongPin& want) {
    EXPECT_EQ(got.total_cycles, want.total_cycles);
    for (int i = 0; i < song::kNumSongStages; ++i) {
      EXPECT_EQ(got.stage_cycles[i], want.stage_cycles[i])
          << song::SongStageName(i);
    }
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.distance_computations, want.distance_computations);
    EXPECT_EQ(got.host_ops, want.host_ops);
    EXPECT_EQ(got.ids_hash, want.ids_hash);
  }
};

TEST_F(SongKernelPinTest, ExactMatchesPinnedProfile) {
  ExpectPin(Run(), SongPin{4988178,
                          {2819268, 314150, 1638240},
                          2875,
                          12606,
                          272768,
                          0xdb8bbfa34e3e039fULL});
}

TEST_F(SongKernelPinTest, Sq8CodesMatchPinnedProfile) {
  ExpectPin(Run(Sq8()), SongPin{4845228,
                               {2820060, 125800, 1643448},
                               2875,
                               14220,
                               273277,
                               0xdb8bbfa34e3e039fULL});
}

// ---- CPU beam search: stats sums plus hashes of the ids and dist bits.

struct BeamPin {
  graph::BeamSearchStats stats;
  std::uint64_t ids_hash = kFnvBasis;
  std::uint64_t dists_hash = kFnvBasis;
};

BeamPin RunBeam(const graph::ProximityGraph& graph, const data::Dataset& base,
                const data::Dataset& queries,
                const graph::SearchContext& ctx) {
  BeamPin pin;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const graph::Neighbor& n :
         graph::BeamSearch(graph, base, queries.Point(q), 10, 64, 0,
                           &pin.stats, kInvalidVertex, ctx)) {
      pin.ids_hash = Fnv(pin.ids_hash, n.id);
      pin.dists_hash = Fnv(pin.dists_hash, DistBits(n.dist));
    }
  }
  return pin;
}

void ExpectStats(const graph::BeamSearchStats& got,
                 const graph::BeamSearchStats& want) {
  EXPECT_EQ(got.distance_computations, want.distance_computations);
  EXPECT_EQ(got.heap_ops, want.heap_ops);
  EXPECT_EQ(got.hash_ops, want.hash_ops);
  EXPECT_EQ(got.iterations, want.iterations);
}

void ExpectBeamPin(const BeamPin& got, const BeamPin& want) {
  ExpectStats(got.stats, want.stats);
  EXPECT_EQ(got.ids_hash, want.ids_hash);
  EXPECT_EQ(got.dists_hash, want.dists_hash);
}

TEST_F(SearchPinTest, BeamSearchExactMatchesPin) {
  ExpectBeamPin(RunBeam(nsw_->graph, *base_, *queries_, {}),
                BeamPin{{8257, 14186, 74805, 2875},
                        0xdb8bbfa34e3e039fULL,
                        0x9e77304e93f8bd99ULL});
}

TEST_F(SearchPinTest, BeamSearchSq8MatchesPin) {
  ExpectBeamPin(RunBeam(nsw_->graph, *base_, *queries_, Sq8()),
                BeamPin{{9847, 14183, 74777, 2875},
                        0xdb8bbfa34e3e039fULL,
                        0x9e77304e93f8bd99ULL});
}

// ---- HNSW descent: stats sums plus a hash of the layer-0 entries.

struct DescentPin {
  graph::BeamSearchStats stats;
  std::uint64_t entries_hash = kFnvBasis;
};

DescentPin RunDescent(const graph::HnswGraph& hnsw, const data::Dataset& base,
                      const data::Dataset& queries,
                      const graph::SearchContext& ctx) {
  DescentPin pin;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    pin.entries_hash = Fnv(
        pin.entries_hash,
        hnsw.DescendToLayer0(base, queries.Point(q), &pin.stats, ctx));
  }
  return pin;
}

TEST_F(SearchPinTest, HnswDescentExactMatchesPin) {
  ASSERT_GE(hnsw_->graph.max_level(), 1);
  const DescentPin got = RunDescent(hnsw_->graph, *base_, *queries_, {});
  ExpectStats(got.stats, {2321, 0, 0, 148});
  EXPECT_EQ(got.entries_hash, 0x6f8b7d764624bdceULL);
}

TEST_F(SearchPinTest, HnswDescentSq8MatchesPin) {
  const DescentPin got = RunDescent(hnsw_->graph, *base_, *queries_, Sq8());
  ExpectStats(got.stats, {2341, 0, 0, 149});
  EXPECT_EQ(got.entries_hash, 0x50a071815f4fb8baULL);
}

}  // namespace
}  // namespace ganns
