// Unit tests for the unified adjacency store (graph/graph_store): slot
// lifecycle (alloc / tombstone / release), free-list reuse order, row
// stability up to capacity (capacity is a reservation), row repair
// primitives, the v3 record round-trip including lifecycle state, and
// rejection of headers with absurd sizes. The v1 read-compat path is
// covered too — the store must keep loading pre-lifecycle graph files as
// fully live graphs.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_store.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace graph {
namespace {

TEST(GraphStoreTest, ConstructionIsFullyLiveUpToCapacity) {
  GraphStore store(4, 8, 10);
  EXPECT_EQ(store.num_slots(), 4u);
  EXPECT_EQ(store.capacity(), 10u);
  EXPECT_EQ(store.num_live(), 4u);
  EXPECT_EQ(store.num_tombstones(), 0u);
  EXPECT_EQ(store.FreeCapacity(), 6u);
  EXPECT_FALSE(store.HasTombstones());
  for (VertexId v = 0; v < 4; ++v) EXPECT_TRUE(store.IsLive(v));
  EXPECT_FALSE(store.IsLive(4));  // beyond the high-water mark
}

TEST(GraphStoreTest, CapacityClampsUpToNumVertices) {
  GraphStore store(6, 4, 2);  // requested capacity below the vertex count
  EXPECT_EQ(store.capacity(), 6u);
  EXPECT_EQ(store.FreeCapacity(), 0u);
  EXPECT_FALSE(store.AllocSlot().has_value());
}

TEST(GraphStoreTest, TombstoneAndReleaseLifecycle) {
  GraphStore store(5, 4, 8);
  store.InsertNeighbor(0, 1, 0.5f);
  store.InsertNeighbor(1, 0, 0.5f);

  store.Tombstone(1);
  EXPECT_TRUE(store.HasTombstones());
  EXPECT_EQ(store.num_live(), 4u);
  EXPECT_EQ(store.num_tombstones(), 1u);
  EXPECT_FALSE(store.IsLive(1));
  EXPECT_EQ(store.state(1), GraphStore::SlotState::kTombstone);
  // Tombstoned rows stay traversable: the adjacency is untouched.
  EXPECT_EQ(store.Degree(1), 1u);
  EXPECT_DOUBLE_EQ(store.TombstoneFraction(), 1.0 / 5.0);

  store.ReleaseTombstone(1);
  EXPECT_EQ(store.num_tombstones(), 0u);
  EXPECT_EQ(store.state(1), GraphStore::SlotState::kFree);
  EXPECT_EQ(store.Degree(1), 0u);  // released slots are cleared
  EXPECT_EQ(store.FreeCapacity(), 4u);  // 3 never-used + 1 released
}

TEST(GraphStoreTest, AllocReusesReleasedSlotsBeforeExtending) {
  GraphStore store(4, 4, 6);
  store.Tombstone(2);
  store.Tombstone(0);
  store.ReleaseTombstone(2);
  store.ReleaseTombstone(0);

  // LIFO reuse: the most recently released slot comes back first.
  EXPECT_EQ(store.AllocSlot(), std::optional<VertexId>{0});
  EXPECT_EQ(store.AllocSlot(), std::optional<VertexId>{2});
  // Free list drained: extend the high-water mark.
  EXPECT_EQ(store.AllocSlot(), std::optional<VertexId>{4});
  EXPECT_EQ(store.AllocSlot(), std::optional<VertexId>{5});
  // Capacity exhausted.
  EXPECT_FALSE(store.AllocSlot().has_value());
  EXPECT_EQ(store.num_live(), 6u);
}

// Capacity is a reservation: filling a store to capacity must not move any
// existing row, on the original or on a copy (constructed or assigned), and
// every slot a fill allocates starts as an all-sentinel row.
TEST(GraphStoreTest, FillingToCapacityMovesNoRow) {
  GraphStore original(3, 4, 8);
  original.InsertNeighbor(0, 1, 0.5f);
  original.InsertNeighbor(2, 0, 0.25f);
  GraphStore constructed(original);
  GraphStore assigned(1, 2);
  assigned = original;

  for (GraphStore* store : {&original, &constructed, &assigned}) {
    ASSERT_EQ(store->capacity(), 8u);
    std::vector<const VertexId*> rows;
    std::vector<const Dist*> dist_rows;
    for (VertexId v = 0; v < store->num_slots(); ++v) {
      rows.push_back(store->Neighbors(v).data());
      dist_rows.push_back(store->NeighborDists(v).data());
    }
    while (const std::optional<VertexId> v = store->AllocSlot()) {
      for (const VertexId id : store->Neighbors(*v)) {
        EXPECT_EQ(id, kInvalidVertex);
      }
      for (const Dist dist : store->NeighborDists(*v)) {
        EXPECT_EQ(dist, kInfDist);
      }
      EXPECT_EQ(store->Degree(*v), 0u);
      rows.push_back(store->Neighbors(*v).data());
      dist_rows.push_back(store->NeighborDists(*v).data());
    }
    EXPECT_EQ(store->num_slots(), 8u);
    EXPECT_EQ(store->FreeCapacity(), 0u);
    EXPECT_FALSE(store->AllocSlot().has_value());
    for (VertexId v = 0; v < store->num_slots(); ++v) {
      EXPECT_EQ(store->Neighbors(v).data(), rows[v]) << "v=" << v;
      EXPECT_EQ(store->NeighborDists(v).data(), dist_rows[v]) << "v=" << v;
    }
    EXPECT_EQ(store->Neighbors(0)[0], 1u);
    EXPECT_EQ(store->Neighbors(2)[0], 0u);
  }
}

TEST(GraphStoreTest, RemoveNeighborShiftsRowAndClearsTail) {
  GraphStore store(4, 4, 4);
  store.InsertNeighbor(0, 1, 0.1f);
  store.InsertNeighbor(0, 2, 0.2f);
  store.InsertNeighbor(0, 3, 0.3f);
  ASSERT_EQ(store.Degree(0), 3u);

  store.RemoveNeighbor(0, 2);
  ASSERT_EQ(store.Degree(0), 2u);
  EXPECT_EQ(store.Neighbors(0)[0], 1u);
  EXPECT_EQ(store.Neighbors(0)[1], 3u);
  EXPECT_FLOAT_EQ(store.NeighborDists(0)[1], 0.3f);
  EXPECT_EQ(store.Neighbors(0)[2], kInvalidVertex);  // sentinel restored

  // Removing an absent neighbor is a no-op.
  store.RemoveNeighbor(0, 2);
  EXPECT_EQ(store.Degree(0), 2u);
}

TEST(GraphStoreTest, V3RoundTripPreservesLifecycleState) {
  GraphStore store(5, 3, 9);
  store.InsertNeighbor(0, 1, 0.25f);
  store.InsertNeighbor(1, 0, 0.25f);
  store.InsertNeighbor(1, 4, 0.75f);
  store.Tombstone(3);
  store.Tombstone(2);
  store.ReleaseTombstone(2);
  const auto grown = store.AllocSlot();  // reuses slot 2
  ASSERT_TRUE(grown.has_value());
  store.InsertNeighbor(*grown, 0, 0.5f);
  store.Tombstone(*grown);
  store.ReleaseTombstone(*grown);

  const std::string path = ::testing::TempDir() + "/store_v3.bin";
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(store.WriteTo(file));
    std::fclose(file);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  auto loaded = GraphStore::ReadFrom(file);
  std::fclose(file);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->num_slots(), store.num_slots());
  EXPECT_EQ(loaded->capacity(), store.capacity());
  EXPECT_EQ(loaded->num_live(), store.num_live());
  EXPECT_EQ(loaded->num_tombstones(), store.num_tombstones());
  EXPECT_EQ(loaded->FreeCapacity(), store.FreeCapacity());
  for (VertexId v = 0; v < store.num_slots(); ++v) {
    EXPECT_EQ(loaded->state(v), store.state(v)) << "v=" << v;
    EXPECT_EQ(loaded->Degree(v), store.Degree(v)) << "v=" << v;
    // Whole rows, sentinel padding included.
    for (std::size_t i = 0; i < store.d_max(); ++i) {
      EXPECT_EQ(loaded->Neighbors(v)[i], store.Neighbors(v)[i]);
      EXPECT_EQ(loaded->NeighborDists(v)[i], store.NeighborDists(v)[i]);
    }
  }
  // The free list order (and hence future slot reuse) survives the trip.
  EXPECT_EQ(loaded->AllocSlot(), store.AllocSlot());
  // The loaded store keeps the reservation: growing it to capacity moves
  // no row.
  const VertexId* row0 = loaded->Neighbors(0).data();
  while (loaded->AllocSlot().has_value()) {
  }
  EXPECT_EQ(loaded->num_slots(), loaded->capacity());
  EXPECT_EQ(loaded->Neighbors(0).data(), row0);
}

// A header's sizes are checked before anything is allocated: a record
// claiming a reservation no process could hold is rejected, not bad_alloc.
TEST(GraphStoreTest, RejectsAbsurdSizesBeforeAllocating) {
  struct Case {
    const char* name;
    std::uint64_t num_slots, d_max, capacity;
  };
  const Case cases[] = {
      {"capacity past the VertexId space", 0, 32, std::uint64_t{1} << 36},
      {"reservation past the cell budget", 0, 32, std::uint64_t{1} << 30},
      {"slots past the cell budget", std::uint64_t{1} << 31, 2,
       std::uint64_t{1} << 31},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // A 128-byte v3 record: the 8-word header, then 64 bytes that would be
    // the start of the rows.
    const std::uint64_t header[8] = {0x474e4e53ULL, 3, c.num_slots, c.d_max,
                                     c.capacity,    c.num_slots, 0, 0};
    const std::uint8_t payload[64] = {};
    std::FILE* file = std::tmpfile();
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, file), 1u);
    ASSERT_EQ(std::fwrite(payload, sizeof(payload), 1, file), 1u);
    std::rewind(file);
    EXPECT_FALSE(GraphStore::ReadFrom(file).has_value());
    std::fclose(file);
  }
}

TEST(GraphStoreTest, ReadsLegacyV1RecordsAsFullyLive) {
  // Hand-write a v1 record: header {magic, 1, num_vertices, d_max} followed
  // by ids, dists, degrees — the pre-lifecycle layout.
  const std::string path = ::testing::TempDir() + "/store_v1.bin";
  const std::uint64_t header[4] = {0x474e4e53ULL, 1, 3, 2};
  const VertexId ids[6] = {1, kInvalidVertex, 0, 2, 1, kInvalidVertex};
  const float dists[6] = {0.5f, kInfDist, 0.5f, 0.25f, 0.25f, kInfDist};
  const std::uint32_t degrees[3] = {1, 2, 1};
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(header, sizeof(header), 1, file), 1u);
    ASSERT_EQ(std::fwrite(ids, sizeof(VertexId), 6, file), 6u);
    ASSERT_EQ(std::fwrite(dists, sizeof(float), 6, file), 6u);
    ASSERT_EQ(std::fwrite(degrees, sizeof(std::uint32_t), 3, file), 3u);
    std::fclose(file);
  }
  auto loaded = ProximityGraph::LoadFrom(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_vertices(), 3u);
  EXPECT_EQ(loaded->num_live(), 3u);
  EXPECT_FALSE(loaded->HasTombstones());
  EXPECT_EQ(loaded->capacity(), 3u);
  EXPECT_EQ(loaded->Degree(1), 2u);
  EXPECT_EQ(loaded->Neighbors(1)[0], 0u);
  EXPECT_EQ(loaded->Neighbors(1)[1], 2u);
}

TEST(GraphStoreTest, FacadeForwardsLifecycleOperations) {
  ProximityGraph graph(3, 4, 5);
  EXPECT_EQ(graph.num_vertices(), 3u);
  EXPECT_EQ(graph.FreeCapacity(), 2u);
  const auto v = graph.AllocVertex();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3u);
  graph.InsertNeighbor(*v, 0, 0.5f);
  graph.Tombstone(*v);
  EXPECT_TRUE(graph.HasTombstones());
  EXPECT_EQ(graph.num_live(), 3u);
  graph.ReleaseTombstone(*v);
  EXPECT_EQ(graph.FreeCapacity(), 2u);
}

}  // namespace
}  // namespace graph
}  // namespace ganns
