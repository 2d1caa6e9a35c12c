// Unit tests for the adjacency storage and lifecycle of ProximityGraph:
// allocation and tombstones, row stability up to capacity (capacity is a
// reservation, raised in place by Reserve), row repair primitives, the v3
// record round-trip including lifecycle state, and rejection of records
// with absurd sizes or retired lifecycle state (v1 records, free-listed
// slots).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/proximity_graph.h"

namespace ganns {
namespace graph {
namespace {

TEST(ProximityGraphTest, ConstructionIsFullyLiveUpToCapacity) {
  ProximityGraph graph(4, 8, 10);
  EXPECT_EQ(graph.num_vertices(), 4u);
  EXPECT_EQ(graph.capacity(), 10u);
  EXPECT_EQ(graph.num_live(), 4u);
  EXPECT_EQ(graph.num_tombstones(), 0u);
  EXPECT_EQ(graph.FreeCapacity(), 6u);
  EXPECT_FALSE(graph.HasTombstones());
  for (VertexId v = 0; v < 4; ++v) EXPECT_TRUE(graph.IsLive(v));
  EXPECT_FALSE(graph.IsLive(4));  // beyond the high-water mark
}

TEST(ProximityGraphTest, CapacityClampsUpToNumVertices) {
  ProximityGraph graph(6, 4, 2);  // requested capacity below the count
  EXPECT_EQ(graph.capacity(), 6u);
  EXPECT_EQ(graph.FreeCapacity(), 0u);
  EXPECT_FALSE(graph.AllocVertex().has_value());
}

TEST(ProximityGraphTest, TombstoneKeepsRowTraversable) {
  ProximityGraph graph(5, 4, 8);
  graph.InsertNeighbor(0, 1, 0.5f);
  graph.InsertNeighbor(1, 0, 0.5f);

  graph.Tombstone(1);
  EXPECT_TRUE(graph.HasTombstones());
  EXPECT_EQ(graph.num_live(), 4u);
  EXPECT_EQ(graph.num_tombstones(), 1u);
  EXPECT_FALSE(graph.IsLive(1));
  // Tombstoned rows stay traversable: the adjacency is untouched.
  EXPECT_EQ(graph.Degree(1), 1u);
  EXPECT_EQ(graph.Neighbors(0)[0], 1u);
  EXPECT_DOUBLE_EQ(graph.TombstoneFraction(), 1.0 / 5.0);
  // A tombstoned slot is never handed out again.
  EXPECT_EQ(graph.FreeCapacity(), 3u);
  EXPECT_EQ(graph.AllocVertex(), std::optional<VertexId>{5});
}

// Capacity is a reservation: filling a graph to capacity must not move any
// existing row, on the original, on a copy (constructed or assigned) or on
// a graph whose capacity Reserve raised, and every vertex a fill allocates
// starts as an all-sentinel row.
TEST(ProximityGraphTest, FillingToCapacityMovesNoRow) {
  ProximityGraph original(3, 4, 8);
  original.InsertNeighbor(0, 1, 0.5f);
  original.InsertNeighbor(2, 0, 0.25f);
  ProximityGraph constructed(original);
  ProximityGraph assigned(1, 2);
  assigned = original;
  ProximityGraph reserved(3, 4);
  reserved.InsertNeighbor(0, 1, 0.5f);
  reserved.InsertNeighbor(2, 0, 0.25f);
  reserved.Reserve(8);

  for (ProximityGraph* graph : {&original, &constructed, &assigned,
                                &reserved}) {
    ASSERT_EQ(graph->capacity(), 8u);
    std::vector<const VertexId*> rows;
    std::vector<const Dist*> dist_rows;
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      rows.push_back(graph->Neighbors(v).data());
      dist_rows.push_back(graph->NeighborDists(v).data());
    }
    while (const std::optional<VertexId> v = graph->AllocVertex()) {
      for (const VertexId id : graph->Neighbors(*v)) {
        EXPECT_EQ(id, kInvalidVertex);
      }
      for (const Dist dist : graph->NeighborDists(*v)) {
        EXPECT_EQ(dist, kInfDist);
      }
      EXPECT_EQ(graph->Degree(*v), 0u);
      EXPECT_TRUE(graph->IsLive(*v));
      rows.push_back(graph->Neighbors(*v).data());
      dist_rows.push_back(graph->NeighborDists(*v).data());
    }
    EXPECT_EQ(graph->num_vertices(), 8u);
    EXPECT_EQ(graph->num_live(), 8u);
    EXPECT_EQ(graph->FreeCapacity(), 0u);
    EXPECT_FALSE(graph->AllocVertex().has_value());
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      EXPECT_EQ(graph->Neighbors(v).data(), rows[v]) << "v=" << v;
      EXPECT_EQ(graph->NeighborDists(v).data(), dist_rows[v]) << "v=" << v;
    }
    EXPECT_EQ(graph->Neighbors(0)[0], 1u);
    EXPECT_EQ(graph->Neighbors(2)[0], 0u);
  }
}

// Reserve only ever raises the capacity, and keeps every row's contents
// and the lifecycle counts.
TEST(ProximityGraphTest, ReserveGrowsCapacityInPlace) {
  ProximityGraph graph(3, 2);
  graph.InsertNeighbor(0, 2, 0.5f);
  graph.InsertNeighbor(0, 1, 0.75f);
  graph.Tombstone(1);
  graph.Reserve(2);  // below the current capacity: a no-op
  EXPECT_EQ(graph.capacity(), 3u);
  graph.Reserve(6);
  EXPECT_EQ(graph.capacity(), 6u);
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.FreeCapacity(), 3u);
  EXPECT_EQ(graph.num_live(), 2u);
  EXPECT_EQ(graph.num_tombstones(), 1u);
  EXPECT_FALSE(graph.IsLive(1));
  ASSERT_EQ(graph.Degree(0), 2u);
  EXPECT_EQ(graph.Neighbors(0)[0], 2u);
  EXPECT_EQ(graph.Neighbors(0)[1], 1u);
  EXPECT_FLOAT_EQ(graph.NeighborDists(0)[1], 0.75f);
  EXPECT_EQ(graph.Degree(2), 0u);
  EXPECT_EQ(graph.Neighbors(2)[0], kInvalidVertex);
}

TEST(ProximityGraphTest, RemoveNeighborShiftsRowAndClearsTail) {
  ProximityGraph graph(4, 4, 4);
  graph.InsertNeighbor(0, 1, 0.1f);
  graph.InsertNeighbor(0, 2, 0.2f);
  graph.InsertNeighbor(0, 3, 0.3f);
  ASSERT_EQ(graph.Degree(0), 3u);

  graph.RemoveNeighbor(0, 2);
  ASSERT_EQ(graph.Degree(0), 2u);
  EXPECT_EQ(graph.Neighbors(0)[0], 1u);
  EXPECT_EQ(graph.Neighbors(0)[1], 3u);
  EXPECT_FLOAT_EQ(graph.NeighborDists(0)[1], 0.3f);
  EXPECT_EQ(graph.Neighbors(0)[2], kInvalidVertex);  // sentinel restored

  // Removing an absent neighbor is a no-op.
  graph.RemoveNeighbor(0, 2);
  EXPECT_EQ(graph.Degree(0), 2u);
}

TEST(ProximityGraphTest, V3RoundTripPreservesLifecycleState) {
  ProximityGraph graph(5, 3, 9);
  graph.InsertNeighbor(0, 1, 0.25f);
  graph.InsertNeighbor(1, 0, 0.25f);
  graph.InsertNeighbor(1, 4, 0.75f);
  graph.Tombstone(3);
  const auto grown = graph.AllocVertex();
  ASSERT_TRUE(grown.has_value());
  graph.InsertNeighbor(*grown, 0, 0.5f);
  graph.Tombstone(*grown);

  const std::string path = ::testing::TempDir() + "/graph_v3.bin";
  ASSERT_TRUE(graph.SaveTo(path));
  auto loaded = ProximityGraph::LoadFrom(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->num_vertices(), graph.num_vertices());
  EXPECT_EQ(loaded->capacity(), graph.capacity());
  EXPECT_EQ(loaded->num_live(), graph.num_live());
  EXPECT_EQ(loaded->num_tombstones(), graph.num_tombstones());
  EXPECT_EQ(loaded->FreeCapacity(), graph.FreeCapacity());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(loaded->IsLive(v), graph.IsLive(v)) << "v=" << v;
    EXPECT_EQ(loaded->Degree(v), graph.Degree(v)) << "v=" << v;
    // Whole rows, sentinel padding included.
    for (std::size_t i = 0; i < graph.d_max(); ++i) {
      EXPECT_EQ(loaded->Neighbors(v)[i], graph.Neighbors(v)[i]);
      EXPECT_EQ(loaded->NeighborDists(v)[i], graph.NeighborDists(v)[i]);
    }
  }
  // Both graphs hand out the same next vertex.
  EXPECT_EQ(loaded->AllocVertex(), graph.AllocVertex());
  // The loaded graph keeps the reservation: growing it to capacity moves
  // no row.
  const VertexId* row0 = loaded->Neighbors(0).data();
  while (loaded->AllocVertex().has_value()) {
  }
  EXPECT_EQ(loaded->num_vertices(), loaded->capacity());
  EXPECT_EQ(loaded->Neighbors(0).data(), row0);
}

/// Appends the raw bytes of `value` to `bytes`.
template <typename T>
void Put(std::vector<std::uint8_t>& bytes, T value) {
  const std::size_t at = bytes.size();
  bytes.resize(at + sizeof(T));
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

// A header's sizes are checked before anything is allocated: a record
// claiming a reservation no process could hold is rejected, not bad_alloc.
// Records of retired layouts and lifecycle states are rejected too: a v1
// record (no capacity or state section), a free-listed slot, and the state
// byte 0 that marked one.
TEST(ProximityGraphTest, RejectsAbsurdSizesBeforeAllocating) {
  constexpr std::uint64_t kMagic = 0x474e4e53ULL;  // "GNNS"
  struct Case {
    const char* name;
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Case> cases;
  const auto absurd = [&](const char* name, std::uint64_t num_vertices,
                          std::uint64_t d_max, std::uint64_t capacity) {
    // The 8-word v3 header, then 64 bytes that would be the start of rows.
    Case c{name, {}};
    for (const std::uint64_t word : {kMagic, std::uint64_t{3}, num_vertices,
                                     d_max, capacity, num_vertices,
                                     std::uint64_t{0}, std::uint64_t{0}}) {
      Put(c.bytes, word);
    }
    c.bytes.resize(c.bytes.size() + 64, 0);
    cases.push_back(std::move(c));
  };
  absurd("capacity past the VertexId space", 0, 32, std::uint64_t{1} << 36);
  absurd("reservation past the cell budget", 0, 32, std::uint64_t{1} << 30);
  absurd("vertices past the cell budget", std::uint64_t{1} << 31, 2,
         std::uint64_t{1} << 31);

  // One vertex, d_max 1, empty row: the complete record of each layout.
  const auto row = [](Case& c) {
    Put(c.bytes, kInvalidVertex);
    Put(c.bytes, kInfDist);
    Put(c.bytes, std::uint32_t{0});  // degree
  };
  Case v1{"v1 record", {}};
  for (const std::uint64_t word : {kMagic, std::uint64_t{1}, std::uint64_t{1},
                                   std::uint64_t{1}}) {
    Put(v1.bytes, word);
  }
  row(v1);
  cases.push_back(std::move(v1));
  // {magic, 3, num_vertices, d_max, capacity, live, tombstones, free}
  Case freed{"free count 1", {}};
  for (const std::uint64_t word : {kMagic, std::uint64_t{3}, std::uint64_t{1},
                                   std::uint64_t{1}, std::uint64_t{1},
                                   std::uint64_t{0}, std::uint64_t{0},
                                   std::uint64_t{1}}) {
    Put(freed.bytes, word);
  }
  row(freed);
  Put(freed.bytes, std::uint8_t{0});  // state: released
  Put(freed.bytes, VertexId{0});      // the free list
  cases.push_back(std::move(freed));
  Case state0{"state byte 0", {}};
  for (const std::uint64_t word : {kMagic, std::uint64_t{3}, std::uint64_t{1},
                                   std::uint64_t{1}, std::uint64_t{1},
                                   std::uint64_t{1}, std::uint64_t{0},
                                   std::uint64_t{0}}) {
    Put(state0.bytes, word);
  }
  row(state0);
  Put(state0.bytes, std::uint8_t{0});
  cases.push_back(std::move(state0));

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(c.bytes.data(), 1, c.bytes.size(), file),
              c.bytes.size());
    std::rewind(file);
    EXPECT_FALSE(ProximityGraph::ReadFrom(file).has_value());
    std::fclose(file);
  }
}

}  // namespace
}  // namespace graph
}  // namespace ganns
