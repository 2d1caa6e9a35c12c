#ifndef GANNS_GRAPH_PROXIMITY_GRAPH_H_
#define GANNS_GRAPH_PROXIMITY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/types.h"

namespace ganns {
namespace graph {

/// Fixed-degree directed proximity graph (Definition 2 of the paper): the
/// adjacency storage of every graph in the library (NSW graphs, each
/// HnswGraph layer, the exact kNN graph).
///
/// Each vertex owns exactly `d_max` adjacency entries stored contiguously
/// and ordered by increasing (dist, id), with `kInvalidVertex` / `kInfDist`
/// sentinels padding unused entries — the GPU-friendly layout property (2)
/// of §II-A (bounded, uniform out-degree, adjacency loadable with
/// ceil(d_max / 32) coalesced transactions). Only outgoing neighbors are
/// kept.
///
/// On top of the static layout the graph carries the index lifecycle:
/// vertices are allocated up to `capacity` without relocating any existing
/// row (span stability is what lets the serving layer clone and swap graphs
/// cheaply), and deleted vertices are tombstoned in place so the row stays
/// traversable. Compaction rebuilds a fresh graph over the survivors, so a
/// slot is never reused. A graph that never mutates has every vertex live.
///
/// Capacity is a reservation, not storage: the row arrays are reserved for
/// `capacity` vertices but sized to num_vertices(), and AllocVertex appends
/// one sentinel row. Slack therefore costs address space only, never
/// resident pages, until a vertex is allocated. Copies (construction and
/// assignment) copy the allocated rows only but keep the full reservation,
/// so on the original and on every clone no row moves before the graph
/// reaches capacity.
///
/// Concurrency: distinct vertices may be mutated from different threads
/// concurrently (the construction kernels partition vertices across
/// blocks); a single vertex's row and the allocation/tombstone metadata are
/// not thread-safe.
class ProximityGraph {
 public:
  /// An adjacency entry: neighbor id plus the edge length delta(v, u).
  struct Edge {
    VertexId id = kInvalidVertex;
    Dist dist = kInfDist;
  };

  /// Record limits, checked before a reader allocates anything. Vertex ids
  /// are VertexIds and kInvalidVertex is the row sentinel, so no graph holds
  /// more vertices than that. kMaxCells bounds the adjacency reservation in
  /// (id, dist) cells at capacity: 2^31 cells is 16 GiB of rows.
  static constexpr std::uint64_t kMaxVertices = kInvalidVertex;
  static constexpr std::uint64_t kMaxDegree = std::uint64_t{1} << 20;
  static constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 31;

  /// `num_vertices` live vertices and room to grow to `capacity` vertices
  /// (clamped up to num_vertices). The static builders use the default;
  /// the serving layer over-provisions.
  ProximityGraph(std::size_t num_vertices, std::size_t d_max,
                 std::size_t capacity = 0);

  ProximityGraph(const ProximityGraph& other);
  ProximityGraph& operator=(const ProximityGraph& other);
  ProximityGraph(ProximityGraph&&) = default;
  ProximityGraph& operator=(ProximityGraph&&) = default;

  /// Vertex id high-water mark: every valid id is < num_vertices(). With
  /// tombstones present this counts allocated slots, not surviving points.
  std::size_t num_vertices() const { return num_vertices_; }
  std::size_t d_max() const { return d_max_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t num_live() const { return num_live_; }
  std::size_t num_tombstones() const { return num_tombstones_; }
  bool HasTombstones() const { return num_tombstones_ != 0; }

  /// Vertices still allocatable.
  std::size_t FreeCapacity() const { return capacity_ - num_vertices_; }

  /// Tombstoned fraction of the allocated vertices; the compaction trigger.
  /// 0 for an empty graph.
  double TombstoneFraction() const {
    return num_vertices_ == 0 ? 0.0
                              : static_cast<double>(num_tombstones_) /
                                    static_cast<double>(num_vertices_);
  }

  /// True for an allocated, non-deleted vertex. Search kernels filter their
  /// results through this; with no deletions it is true for every vertex.
  bool IsLive(VertexId v) const {
    return std::size_t{v} < num_vertices_ && states_[v] == SlotState::kLive;
  }

  /// Neighbor ids of v: the full d_max-slot row including sentinel padding.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {ids_.data() + Row(v), d_max_};
  }

  /// Edge lengths aligned with Neighbors(v).
  std::span<const Dist> NeighborDists(VertexId v) const {
    return {dists_.data() + Row(v), d_max_};
  }

  /// Number of valid (non-sentinel) neighbors of v.
  std::size_t Degree(VertexId v) const { return degrees_[v]; }

  /// Inserts edge v -> u of length `dist` keeping the row sorted by distance
  /// (ties by smaller id); when the row is full the worst entry is discarded
  /// (Algorithm 2, local-construction Step 2). Duplicate targets are ignored.
  void InsertNeighbor(VertexId v, VertexId u, Dist dist);

  /// Replaces the adjacency list of v with `edges` (must be sorted ascending
  /// by (dist, id) and contain at most d_max entries).
  void SetNeighbors(VertexId v, std::span<const Edge> edges);

  /// Removes all edges of v.
  void ClearVertex(VertexId v);

  /// Removes the edge v -> u if present, keeping the row sorted. Returns
  /// true when an edge was removed.
  bool RemoveNeighbor(VertexId v, VertexId u);

  /// Total number of valid edges in the graph.
  std::size_t NumEdges() const;

  // --- Index lifecycle (online insert/delete; see DESIGN.md) ---

  /// Raises the capacity to at least `capacity` vertices in place. The rows
  /// move once, into the larger reservation; the builders' exactly-sized
  /// graphs get their serving headroom this way.
  void Reserve(std::size_t capacity);

  /// Allocates a live vertex with an empty row at the high-water mark.
  /// Returns std::nullopt at capacity.
  std::optional<VertexId> AllocVertex();

  /// Marks a live vertex deleted: the row stays traversable but the vertex
  /// leaves every search result and live count.
  void Tombstone(VertexId v);

  /// Serializes to a binary file (one v3 record). Returns false on IO
  /// failure, including a failed final flush.
  bool SaveTo(const std::string& path) const;

  /// Deserializes a graph written by SaveTo. Returns std::nullopt on open
  /// failure or a record ReadFrom rejects.
  static std::optional<ProximityGraph> LoadFrom(const std::string& path);

  /// Appends this graph's binary record (v3) to an open stream, so
  /// container formats (HnswGraph, shard files) can embed graphs in one
  /// file. Returns false on IO failure.
  bool WriteTo(std::FILE* file) const;

  /// Reads one v3 record from the stream's current position. Every array
  /// is read with one bulk read (common/file.h) straight into unfilled
  /// storage, after the header is checked against the record limits and
  /// the whole record against the bytes left in the file, so nothing is
  /// allocated for data the file does not hold. Returns std::nullopt on a
  /// short read, a format mismatch, a header whose sizes exceed the limits
  /// or the file, or lifecycle state no graph holds (a free-listed slot);
  /// truncated, corrupt or foreign files fail cleanly, never crash.
  static std::optional<ProximityGraph> ReadFrom(std::FILE* file);

  /// Size in bytes of the v3 record of a graph with these dimensions
  /// (header, id and dist rows, degrees, states).
  static std::uint64_t RecordBytes(std::uint64_t num_vertices,
                                   std::uint64_t d_max);

 private:
  /// Per-vertex state byte of the v3 record; a record holding any other
  /// value (0 marked a released slot) is corrupt.
  enum class SlotState : std::uint8_t { kLive = 1, kTombstone = 2 };

  std::size_t Row(VertexId v) const { return std::size_t{v} * d_max_; }

  /// Reserves every per-vertex array for capacity_ vertices.
  void ReserveCapacity();

  std::size_t capacity_;
  std::size_t d_max_;
  std::size_t num_vertices_;
  std::size_t num_live_;
  std::size_t num_tombstones_ = 0;
  // Unfilled on a value-less resize: ReadFrom reads the rows straight in.
  UnfilledVector<VertexId> ids_;
  UnfilledVector<Dist> dists_;
  UnfilledVector<std::uint32_t> degrees_;
  UnfilledVector<SlotState> states_;
};

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_PROXIMITY_GRAPH_H_
