// Tests of the workload drivers the bench/ binaries and the ganns CLI share
// (bench/drills.h): the update drill's op schedule and victim walk, and its
// accounting of inserts that find no free slot.

#include "bench/drills.h"

#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "serve/shard_router.h"

namespace ganns {
namespace bench {
namespace {

constexpr std::size_t kPoints = 400;

data::Dataset Base() {
  return data::GenerateBase(data::PaperDataset("SIFT1M"), kPoints, 1);
}

data::Dataset Pool(std::size_t rows) {
  return data::GenerateBase(data::PaperDataset("SIFT1M"), rows, 18);
}

serve::ShardBuildOptions DeterministicPhases() {
  serve::ShardBuildOptions options;
  options.update.auto_compact = false;
  return options;
}

// `ganns update --inserts 80 --removes 60`: removes first, alternating with
// inserts while both last, then the 20 leftover inserts at the tail.
TEST(UpdateScheduleTest, UnequalCountsAlternateThenFillTheTail) {
  const std::vector<UpdateOp> ops = UpdateSchedule(80, 60);
  ASSERT_EQ(ops.size(), 140u);
  for (std::size_t i = 0; i < 120; ++i) {
    EXPECT_EQ(ops[i], i % 2 == 0 ? UpdateOp::kRemove : UpdateOp::kInsert)
        << "step " << i;
  }
  for (std::size_t i = 120; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i], UpdateOp::kInsert) << "step " << i;
  }

  // More removes than inserts: the leftover removes take the tail.
  const std::vector<UpdateOp> removes_tail = UpdateSchedule(2, 5);
  EXPECT_EQ(removes_tail,
            (std::vector<UpdateOp>{UpdateOp::kRemove, UpdateOp::kInsert,
                                   UpdateOp::kRemove, UpdateOp::kInsert,
                                   UpdateOp::kRemove, UpdateOp::kRemove,
                                   UpdateOp::kRemove}));
}

// Equal counts give the update bench's sequence: even steps remove, odd
// steps insert pool row step / 2.
TEST(UpdateScheduleTest, EqualCountsAlternateFromTheFirstStep) {
  const std::vector<UpdateOp> ops = UpdateSchedule(50, 50);
  ASSERT_EQ(ops.size(), 100u);
  std::size_t inserted = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(ops[i], UpdateOp::kRemove) << "step " << i;
    } else {
      ASSERT_EQ(ops[i], UpdateOp::kInsert) << "step " << i;
      EXPECT_EQ(inserted++, i / 2);
    }
  }
}

// Victims walk the live set (in id order) at rank step * 131 mod live, and
// inserted points join the set under the ids the index hands out.
TEST(UpdateDrillTest, RemovesWalkTheLiveSetWithStride131) {
  const data::Dataset base = Base();
  const data::Dataset pool = Pool(3);
  serve::ShardedIndex index =
      serve::ShardedIndex::Build(base, 2, DeterministicPhases());
  UpdateDrill drill(base);
  const auto tally = drill.Apply(index, pool, 3, 3);
  ASSERT_TRUE(tally.has_value());
  EXPECT_EQ(tally->removes, 3u);
  EXPECT_EQ(tally->inserts, 3u);
  EXPECT_EQ(tally->failed_inserts, 0u);
  EXPECT_EQ(tally->applied(), 6u);
  EXPECT_EQ(tally->op_latencies_us.size(), 6u);

  // Replay the walk over plain ids: steps 0, 2, 4 remove; steps 1, 3, 5
  // insert fresh ids past the initial corpus.
  std::set<VertexId> live;
  for (VertexId v = 0; v < kPoints; ++v) live.insert(v);
  std::vector<VertexId> victims;
  VertexId next_gid = kPoints;
  for (std::size_t step = 0; step < 6; ++step) {
    if (step % 2 == 0) {
      auto victim = live.begin();
      std::advance(victim, (step * kVictimStride) % live.size());
      victims.push_back(*victim);
      live.erase(victim);
    } else {
      live.insert(next_gid++);
    }
  }
  EXPECT_EQ(victims, (std::vector<VertexId>{0, 263, 125}));

  const SurvivorOracle oracle = drill.Oracle(base, 1);
  EXPECT_EQ(oracle.survivors.size(), kPoints);
  for (const VertexId victim : victims) {
    EXPECT_EQ(oracle.gid_to_row.count(victim), 0u) << victim;
  }
  std::set<VertexId> oracle_ids;
  for (const auto& [gid, row] : oracle.gid_to_row) oracle_ids.insert(gid);
  EXPECT_EQ(oracle_ids, live);
  EXPECT_EQ(index.removes(), 3u);
  EXPECT_EQ(index.inserts(), 3u);
}

// With no capacity slack (and no compaction to free slots) every insert
// fails: the drill counts it and leaves the survivor set untouched.
TEST(UpdateDrillTest, FailedInsertIsCountedNotApplied) {
  const data::Dataset base = Base();
  const data::Dataset pool = Pool(2);
  serve::ShardBuildOptions options = DeterministicPhases();
  options.update.capacity_slack = 0;
  serve::ShardedIndex index = serve::ShardedIndex::Build(base, 1, options);
  UpdateDrill drill(base);
  const auto tally = drill.Apply(index, pool, 2, 1);
  ASSERT_TRUE(tally.has_value());
  EXPECT_EQ(tally->inserts, 2u);
  EXPECT_EQ(tally->failed_inserts, 2u);
  EXPECT_EQ(tally->removes, 1u);
  EXPECT_EQ(tally->applied(), 1u);
  EXPECT_EQ(drill.Oracle(base, 1).survivors.size(), kPoints - 1);
  EXPECT_EQ(index.inserts(), 0u);
  EXPECT_EQ(index.size(), kPoints - 1);
}

}  // namespace
}  // namespace bench
}  // namespace ganns
