#ifndef GANNS_GRAPH_PROXIMITY_GRAPH_H_
#define GANNS_GRAPH_PROXIMITY_GRAPH_H_

#include <cstddef>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph_store.h"

namespace ganns {
namespace graph {

/// Fixed-degree directed proximity graph (Definition 2 of the paper).
///
/// A thin facade over the shared GraphStore adjacency core: each vertex owns
/// exactly `d_max` adjacency slots stored contiguously and ordered by
/// increasing distance, with `kInvalidVertex` / `kInfDist` sentinels padding
/// unused slots. Only outgoing neighbors are kept. The store also carries
/// the index-lifecycle state (tombstones, free slots, growth capacity) used
/// by the online insert/delete paths; a graph that never mutates behaves
/// exactly as the pre-lifecycle fixed representation did.
///
/// Concurrency: distinct vertices may be mutated from different threads
/// concurrently (the construction kernels partition vertices across blocks);
/// a single vertex's list is not thread-safe.
class ProximityGraph {
 public:
  /// An adjacency slot: neighbor id plus the edge length delta(v, u).
  using Edge = GraphStore::Edge;

  /// `num_vertices` live vertices, optionally with headroom to grow to
  /// `capacity` vertices via AllocVertex (0 means no headroom).
  ProximityGraph(std::size_t num_vertices, std::size_t d_max,
                 std::size_t capacity = 0)
      : store_(num_vertices, d_max, capacity) {}

  explicit ProximityGraph(GraphStore store) : store_(std::move(store)) {}

  /// Vertex id high-water mark: every valid id is < num_vertices(). With
  /// tombstones present this counts wired slots, not surviving points.
  std::size_t num_vertices() const { return store_.num_slots(); }
  std::size_t d_max() const { return store_.d_max(); }
  std::size_t capacity() const { return store_.capacity(); }

  const GraphStore& store() const { return store_; }

  /// Neighbor ids of v: the full d_max-slot row including sentinel padding.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return store_.Neighbors(v);
  }

  /// Edge lengths aligned with Neighbors(v).
  std::span<const Dist> NeighborDists(VertexId v) const {
    return store_.NeighborDists(v);
  }

  /// Number of valid (non-sentinel) neighbors of v.
  std::size_t Degree(VertexId v) const { return store_.Degree(v); }

  /// Inserts edge v -> u of length `dist` keeping the row sorted by distance
  /// (ties by smaller id); when the row is full the worst slot is discarded
  /// (Algorithm 2, local-construction Step 2). Duplicate targets are ignored.
  void InsertNeighbor(VertexId v, VertexId u, Dist dist) {
    store_.InsertNeighbor(v, u, dist);
  }

  /// Replaces the adjacency list of v with `edges` (must be sorted ascending
  /// by (dist, id) and contain at most d_max entries).
  void SetNeighbors(VertexId v, std::span<const Edge> edges) {
    store_.SetNeighbors(v, edges);
  }

  /// Removes all edges of v.
  void ClearVertex(VertexId v) { store_.ClearVertex(v); }

  /// Removes the edge v -> u if present. Returns true when removed.
  bool RemoveNeighbor(VertexId v, VertexId u) {
    return store_.RemoveNeighbor(v, u);
  }

  /// Total number of valid edges in the graph.
  std::size_t NumEdges() const { return store_.NumEdges(); }

  // --- Index lifecycle (online insert/delete; see DESIGN.md) ---

  /// True for an allocated, non-deleted vertex. Search kernels filter their
  /// results through this; with no deletions it is true for every vertex.
  bool IsLive(VertexId v) const { return store_.IsLive(v); }
  bool HasTombstones() const { return store_.HasTombstones(); }
  std::size_t num_live() const { return store_.num_live(); }
  std::size_t num_tombstones() const { return store_.num_tombstones(); }
  double TombstoneFraction() const { return store_.TombstoneFraction(); }
  std::size_t FreeCapacity() const { return store_.FreeCapacity(); }

  /// Allocates a live vertex (reusing a compacted slot when available).
  /// Returns std::nullopt at capacity.
  std::optional<VertexId> AllocVertex() { return store_.AllocSlot(); }

  /// Marks a live vertex deleted: the row stays traversable but the vertex
  /// leaves every search result until compaction releases the slot.
  void Tombstone(VertexId v) { store_.Tombstone(v); }

  /// Releases a tombstoned vertex for reuse (compaction only — every edge
  /// into v must already be gone).
  void ReleaseTombstone(VertexId v) { store_.ReleaseTombstone(v); }

  /// Serializes to a binary file (v3 store record). Returns false on IO
  /// failure.
  bool SaveTo(const std::string& path) const;

  /// Deserializes a graph written by SaveTo (v3) or by the pre-lifecycle v1
  /// writer. Returns std::nullopt on open failure or format mismatch.
  static std::optional<ProximityGraph> LoadFrom(const std::string& path);

  /// Appends this graph's binary record to an open stream, so container
  /// formats (HnswGraph, shard files) can embed graphs in one file.
  /// Returns false on IO failure.
  bool WriteTo(std::FILE* file) const { return store_.WriteTo(file); }

  /// Reads one record written by WriteTo from the stream's current position.
  /// Returns std::nullopt on a short read or format mismatch (truncated or
  /// foreign files fail cleanly, never crash).
  static std::optional<ProximityGraph> ReadFrom(std::FILE* file);

 private:
  GraphStore store_;
};

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_PROXIMITY_GRAPH_H_
