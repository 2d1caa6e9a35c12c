#ifndef GANNS_GRAPH_GRAPH_STORE_H_
#define GANNS_GRAPH_GRAPH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace ganns {
namespace graph {

/// Shared adjacency-storage core of every proximity graph in the library
/// (ProximityGraph, the HnswGraph layer stack, and the exact kNN graph all
/// sit on top of this class).
///
/// Storage is a fixed-capacity slot array: each slot owns exactly `d_max`
/// adjacency entries stored contiguously and ordered by increasing
/// (dist, id), with `kInvalidVertex` / `kInfDist` sentinels padding unused
/// entries — the GPU-friendly layout property (2) of §II-A (bounded, uniform
/// out-degree, adjacency loadable with ceil(d_max / 32) coalesced
/// transactions). On top of the static layout the store adds the index
/// lifecycle: slots are allocated up to `capacity` without relocating any
/// existing row (pointer/span stability is what lets the serving layer clone
/// and swap graphs cheaply), deleted slots are tombstoned in place so the
/// row stays traversable until compaction, and compaction releases
/// tombstones onto a LIFO free list for reuse by later inserts.
///
/// Capacity is a reservation, not storage: the row arrays are reserved for
/// `capacity` slots but sized to num_slots(), and AllocSlot appends one
/// sentinel row when it raises the high-water mark. Slack therefore costs
/// address space only, never resident pages, until a slot is allocated.
/// Copies (construction and assignment) copy the allocated rows only but
/// keep the full reservation, so on the original and on every clone no row
/// moves before the store reaches capacity.
///
/// Slot states:
///   kLive      — allocated, returned by searches, row meaningful.
///   kTombstone — deleted: row kept (other rows may still route through it)
///                but filtered from every search result.
///   kFree      — released by compaction; row is all sentinels and nothing
///                may point at it. Slots at or past num_slots() have no
///                row or state until AllocSlot reaches them.
///
/// Concurrency: distinct slots may be mutated from different threads
/// concurrently (the construction kernels partition vertices across
/// blocks); a single slot's row and the allocation/tombstone metadata are
/// not thread-safe.
class GraphStore {
 public:
  /// An adjacency entry: neighbor id plus the edge length delta(v, u).
  struct Edge {
    VertexId id = kInvalidVertex;
    Dist dist = kInfDist;
  };

  enum class SlotState : std::uint8_t { kFree = 0, kLive = 1, kTombstone = 2 };

  /// Creates a store with `num_vertices` live slots and room to grow to
  /// `capacity` slots (clamped up to num_vertices). The static builders use
  /// capacity == num_vertices; the serving layer over-provisions.
  GraphStore(std::size_t num_vertices, std::size_t d_max,
             std::size_t capacity = 0);

  GraphStore(const GraphStore& other);
  GraphStore& operator=(const GraphStore& other);
  GraphStore(GraphStore&&) = default;
  GraphStore& operator=(GraphStore&&) = default;

  /// Slot high-water mark: every id handed out so far is < num_slots().
  /// For a store with no lifecycle activity this is the vertex count.
  std::size_t num_slots() const { return num_slots_; }
  std::size_t capacity() const { return capacity_; }
  std::size_t d_max() const { return d_max_; }
  std::size_t num_live() const { return num_live_; }
  std::size_t num_tombstones() const { return num_tombstones_; }
  bool HasTombstones() const { return num_tombstones_ != 0; }

  /// Slots still allocatable: unused capacity plus the released free list.
  std::size_t FreeCapacity() const {
    return capacity_ - num_slots_ + free_slots_.size();
  }

  /// Tombstoned fraction of the wired slots (live + tombstoned); the
  /// compaction trigger. 0 for an empty store.
  double TombstoneFraction() const {
    const std::size_t wired = num_live_ + num_tombstones_;
    return wired == 0 ? 0.0
                      : static_cast<double>(num_tombstones_) /
                            static_cast<double>(wired);
  }

  SlotState state(VertexId v) const { return states_[v]; }
  bool IsLive(VertexId v) const {
    return std::size_t{v} < num_slots_ && states_[v] == SlotState::kLive;
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

  /// Total number of valid edges in the store.
  std::size_t NumEdges() const;

  /// Allocates a live slot: pops the most recently released slot if any,
  /// otherwise extends the high-water mark. Returns std::nullopt when the
  /// store is at capacity. The returned slot's row is empty.
  std::optional<VertexId> AllocSlot();

  /// Marks a live slot deleted. Its row is kept (still traversable) but the
  /// slot disappears from search results and live counts.
  void Tombstone(VertexId v);

  /// Releases a tombstoned slot onto the free list and clears its row.
  /// Caller (compaction) must have already unlinked every edge into v.
  void ReleaseTombstone(VertexId v);

  /// Appends this store's binary record (v3 format) to an open stream, so
  /// container formats (HnswGraph, shard files) can embed
  /// graphs in one file. Returns false on IO failure.
  bool WriteTo(std::FILE* file) const;

  /// Reads one record from the stream's current position. Accepts the
  /// current v3 format and the legacy v1 format (pre-lifecycle: all slots
  /// live, capacity == num_slots). Returns std::nullopt on a short read,
  /// format mismatch, or a header whose sizes exceed the store's limits
  /// (truncated, corrupt or foreign files fail cleanly, never crash).
  static std::optional<GraphStore> ReadFrom(std::FILE* file);

 private:
  std::size_t Row(VertexId v) const { return std::size_t{v} * d_max_; }

  /// Reserves every per-slot array for capacity_ slots.
  void ReserveCapacity();

  std::size_t capacity_;
  std::size_t d_max_;
  std::size_t num_slots_;
  std::size_t num_live_;
  std::size_t num_tombstones_ = 0;
  std::vector<VertexId> ids_;
  std::vector<Dist> dists_;
  std::vector<std::uint32_t> degrees_;
  std::vector<SlotState> states_;
  /// Released slots, LIFO (back is the next allocation).
  std::vector<VertexId> free_slots_;
};

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_GRAPH_STORE_H_
