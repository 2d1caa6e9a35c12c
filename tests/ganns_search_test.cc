// Tests for the GANNS 6-phase search kernel: exactness on complete graphs,
// result invariants, parameter effects (l_n, e), the lazy-check behaviour,
// determinism, and the cost-model properties the paper's analysis predicts.

#include <array>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "core/ganns_search.h"
#include "data/ground_truth.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"

namespace ganns {
namespace core {
namespace {

class GannsSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 4));
    built_ = std::make_unique<graph::CpuBuildResult>(
        graph::BuildNswCpu(*base_, {}));
    queries_ = std::make_unique<data::Dataset>(data::GenerateQueries(
        data::PaperDataset("SIFT1M"), 40, 800, 4));
    truth_ = std::make_unique<data::GroundTruth>(
        data::BruteForceKnn(*base_, *queries_, 10));
  }

  gpusim::BlockContext MakeBlock() {
    return gpusim::BlockContext(0, 32, 48 * 1024, &device_.spec().cost);
  }

  gpusim::Device device_;
  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<graph::CpuBuildResult> built_;
  std::unique_ptr<data::Dataset> queries_;
  std::unique_ptr<data::GroundTruth> truth_;
};

TEST_F(GannsSearchTest, ExactOnStarGraph) {
  // Vertex 0 adjacent to all others: one exploration of the entry loads the
  // entire corpus into T across iterations of the merge, so with l_n >= n
  // the search is exhaustive and exact.
  const std::size_t n = 48;
  graph::ProximityGraph g(n, n - 1);
  data::Dataset small("small", base_->dim(), base_->metric());
  for (std::size_t i = 0; i < n; ++i) {
    small.Append(base_->Point(static_cast<VertexId>(i)));
  }
  for (std::size_t v = 1; v < n; ++v) {
    const Dist d = data::ExactDistance(small.metric(), small.Point(0),
                                       small.Point(static_cast<VertexId>(v)));
    g.InsertNeighbor(0, static_cast<VertexId>(v), d);
    g.InsertNeighbor(static_cast<VertexId>(v), 0, d);
  }

  const data::Dataset queries = data::GenerateQueries(
      data::PaperDataset("SIFT1M"), 1, n, 4);
  const data::GroundTruth truth = data::BruteForceKnn(small, queries, 5);

  GannsParams params;
  params.k = 5;
  params.l_n = 64;
  auto block = MakeBlock();
  const auto found =
      GannsSearchOne(block, g, small, queries.Point(0), params, 0);
  ASSERT_EQ(found.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(found[i].id, truth.neighbors[0][i]);
  }
}

TEST_F(GannsSearchTest, ResultsSortedUniqueAndWithinCorpus) {
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto batch = GannsSearchBatch(device_, built_->graph, *base_,
                                      *queries_, params);
  for (const auto& row : batch.results) {
    EXPECT_LE(row.size(), 10u);
    std::set<VertexId> seen;
    for (VertexId id : row) {
      EXPECT_LT(id, base_->size());
      EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    }
  }
}

TEST_F(GannsSearchTest, RecallMatchesCpuBeamSearch) {
  // The paper: "the ranges of recall achieved by GANNS and SONG are the
  // same" — the parallelization does not change result quality.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto batch = GannsSearchBatch(device_, built_->graph, *base_,
                                      *queries_, params);

  std::vector<std::vector<VertexId>> cpu_results(queries_->size());
  for (std::size_t q = 0; q < queries_->size(); ++q) {
    for (const auto& n : graph::BeamSearch(built_->graph, *base_,
                                           queries_->Point(q), 10, 64, 0)) {
      cpu_results[q].push_back(n.id);
    }
  }
  EXPECT_NEAR(data::MeanRecall(batch.results, *truth_, 10),
              data::MeanRecall(cpu_results, *truth_, 10), 0.05);
}

TEST_F(GannsSearchTest, LargerLnRaisesRecall) {
  GannsParams narrow;
  narrow.k = 10;
  narrow.l_n = 16;
  GannsParams wide;
  wide.k = 10;
  wide.l_n = 128;
  const auto batch_narrow =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, narrow);
  const auto batch_wide =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, wide);
  EXPECT_GE(data::MeanRecall(batch_wide.results, *truth_, 10),
            data::MeanRecall(batch_narrow.results, *truth_, 10));
  EXPECT_GT(batch_wide.sim_seconds, batch_narrow.sim_seconds);
}

TEST_F(GannsSearchTest, SmallerEIsFasterAtSomeRecallCost) {
  GannsParams full;
  full.k = 10;
  full.l_n = 64;
  full.e = 64;
  GannsParams pruned = full;
  pruned.e = 8;
  const auto batch_full =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, full);
  const auto batch_pruned =
      GannsSearchBatch(device_, built_->graph, *base_, *queries_, pruned);
  EXPECT_LT(batch_pruned.sim_seconds, batch_full.sim_seconds);
  EXPECT_GE(data::MeanRecall(batch_full.results, *truth_, 10),
            data::MeanRecall(batch_pruned.results, *truth_, 10) - 1e-9);
}

TEST_F(GannsSearchTest, LazyCheckDetectsRedundantComputation) {
  // NSW edges are bidirectional, so neighbors of the exploring vertex are
  // routinely already in N; the lazy check must catch some of them.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  GannsQueryProfile profile;
  auto block = MakeBlock();
  GannsSearchOne(block, built_->graph, *base_, queries_->Point(0), params, 0,
                 &profile);
  EXPECT_GT(profile.redundant_distances, 0u);
  EXPECT_GT(profile.distance_computations, profile.redundant_distances);
}

TEST_F(GannsSearchTest, DisablingLazyCheckHurtsResultQuality) {
  // Without phase (4), duplicate copies of already-seen vertices enter N,
  // crowding out genuine candidates and being re-explored — the
  // "propagation of redundant computation" §III-A warns about. The net
  // effect at a fixed budget is lower recall.
  GannsParams checked;
  checked.k = 10;
  checked.l_n = 64;
  GannsParams unchecked = checked;
  unchecked.disable_lazy_check = true;

  const auto batch_checked = GannsSearchBatch(device_, built_->graph, *base_,
                                              *queries_, checked);
  const auto batch_unchecked = GannsSearchBatch(device_, built_->graph,
                                                *base_, *queries_, unchecked);
  EXPECT_GT(data::MeanRecall(batch_checked.results, *truth_, 10),
            data::MeanRecall(batch_unchecked.results, *truth_, 10));
}

TEST_F(GannsSearchTest, DeterministicAcrossRuns) {
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  auto block_a = MakeBlock();
  auto block_b = MakeBlock();
  const auto a = GannsSearchOne(block_a, built_->graph, *base_,
                                queries_->Point(3), params, 0);
  const auto b = GannsSearchOne(block_b, built_->graph, *base_,
                                queries_->Point(3), params, 0);
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(block_a.cost().total_cycles(),
                   block_b.cost().total_cycles());
}

TEST_F(GannsSearchTest, DataStructureShareShrinksWithMoreLanes) {
  // §III-C: data-structure phases cost O(log l_n * (l_t + l_n) / n_t) — more
  // lanes means proportionally less time, unlike SONG's host thread.
  GannsParams params;
  params.k = 10;
  params.l_n = 64;
  const auto narrow = GannsSearchBatch(device_, built_->graph, *base_,
                                       *queries_, params, /*block_lanes=*/4);
  const auto wide = GannsSearchBatch(device_, built_->graph, *base_,
                                     *queries_, params, /*block_lanes=*/32);
  const auto ds = [](const graph::BatchSearchResult& b) {
    return b.kernel.work_cycles[static_cast<int>(
        gpusim::CostCategory::kDataStructure)];
  };
  EXPECT_GT(ds(narrow), 2 * ds(wide));
}

TEST_F(GannsSearchTest, EntryVertexIsHonored) {
  GannsParams params;
  params.k = 1;
  params.l_n = 32;
  // Searching for the entry point itself returns it at distance ~0.
  auto block = MakeBlock();
  const auto found = GannsSearchOne(block, built_->graph, *base_,
                                    base_->Point(123), params, 123);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found[0].id, 123u);
  EXPECT_FLOAT_EQ(found[0].dist, 0.0f);
}

// ---- Pinned kernel outputs. ----
// Sums over the fixture queries of every simulated profile field plus an
// FNV-1a hash of the result ids. The lazy-check-on rows (exact and SQ8) were
// recorded from the compare-exchange implementation of phases (5)/(6): the
// host side of the candidate update may change, the simulated kernel may not.
// The lazy-check-off row was recorded under the (dist, id, explored) slot
// order, which fixes the tie order of explored and unexplored copies of a
// vertex that the network left arbitrary.

struct KernelPin {
  double total_cycles = 0;
  std::array<double, kNumGannsPhases> phase_cycles{};
  std::uint64_t hops = 0;
  std::uint64_t distance_computations = 0;
  std::uint64_t redundant_distances = 0;
  std::uint64_t ids_hash = 0xcbf29ce484222325ULL;
};

class GannsKernelPinTest : public GannsSearchTest {
 protected:
  KernelPin Run(const GannsParams& params,
                const graph::SearchContext& ctx = {}) {
    std::vector<GannsQueryProfile> profiles;
    gpusim::Device device;
    const auto batch = GannsSearchBatch(device, built_->graph, *base_,
                                        *queries_, params, 32, 0, &profiles,
                                        ctx);
    KernelPin pin;
    for (const GannsQueryProfile& p : profiles) {
      pin.total_cycles += p.total_cycles;
      for (int i = 0; i < kNumGannsPhases; ++i) {
        pin.phase_cycles[i] += p.phase_cycles[i];
      }
      pin.hops += p.hops;
      pin.distance_computations += p.distance_computations;
      pin.redundant_distances += p.redundant_distances;
    }
    for (const auto& row : batch.results) {
      for (const VertexId id : row) {
        pin.ids_hash = (pin.ids_hash ^ id) * 0x100000001b3ULL;
      }
    }
    return pin;
  }

  static GannsParams Params() {
    GannsParams params;
    params.k = 10;
    params.l_n = 64;
    return params;
  }

  static void ExpectPin(const KernelPin& got, const KernelPin& want) {
    EXPECT_EQ(got.total_cycles, want.total_cycles);
    for (int i = 0; i < kNumGannsPhases; ++i) {
      EXPECT_EQ(got.phase_cycles[i], want.phase_cycles[i])
          << GannsPhaseName(i);
    }
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.distance_computations, want.distance_computations);
    EXPECT_EQ(got.redundant_distances, want.redundant_distances);
    EXPECT_EQ(got.ids_hash, want.ids_hash);
  }
};

TEST_F(GannsKernelPinTest, LazyCheckOnMatchesPinnedProfile) {
  ExpectPin(Run(Params()), KernelPin{2387585,
                                        {4165, 17010, 1869125, 51030, 212625,
                                         232470},
                                        2835,
                                        74805,
                                        50409,
                                        0xdb8bbfa34e3e039fULL});
}

TEST_F(GannsKernelPinTest, Sq8CodesMatchPinnedProfile) {
  data::QuantizerOptions options;
  options.precision = data::Precision::kSq8;
  const data::Quantizer q = data::Quantizer::Train(*base_, options);
  const data::QuantizedCodes codes = data::QuantizedCodes::EncodeAll(q, *base_);
  const data::SearchQuantization quant{&q, &codes, 4};
  ExpectPin(Run(Params(), {&quant}), KernelPin{1305229,
                                                   {4164, 17010, 747370, 51030,
                                                    212625, 232470},
                                                   2835,
                                                   76377,
                                                   50394,
                                                   0xdb8bbfa34e3e039fULL});
}

// PQ codes: the one-time LUT build plus narrow code loads per candidate.
TEST_F(GannsKernelPinTest, PqCodesMatchPinnedProfile) {
  data::QuantizerOptions options;
  options.precision = data::Precision::kPq;
  const data::Quantizer q = data::Quantizer::Train(*base_, options);
  const data::QuantizedCodes codes = data::QuantizedCodes::EncodeAll(q, *base_);
  const data::SearchQuantization quant{&q, &codes, 4};
  ExpectPin(Run(Params(), {&quant}), KernelPin{1552322,
                                                   {4255, 17802, 765680, 53406,
                                                    222525, 243294},
                                                   2967,
                                                   78208,
                                                   50316,
                                                   0xadb38d26e1c3a975ULL});
}

TEST_F(GannsKernelPinTest, LazyCheckOffMatchesPinnedProfile) {
  GannsParams params = Params();
  params.disable_lazy_check = true;
  ExpectPin(Run(params), KernelPin{2346577,
                                    {3445, 16164, 1902850, 0, 202050, 220908},
                                    2694,
                                    76154,
                                    0,
                                    0x19e0f251e6f0ef1eULL});
}

TEST_F(GannsSearchTest, RejectsInvalidParameters) {
  GannsParams params;
  params.k = 10;
  params.l_n = 48;  // not a power of two
  auto block = MakeBlock();
  EXPECT_DEATH(GannsSearchOne(block, built_->graph, *base_,
                              queries_->Point(0), params, 0),
               "power of two");
}

}  // namespace
}  // namespace core
}  // namespace ganns
