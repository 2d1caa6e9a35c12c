#include "graph/graph_store.h"

#include <algorithm>

#include "common/logging.h"

namespace ganns {
namespace graph {
namespace {

constexpr std::uint32_t kMagic = 0x474e4e53;  // "GNNS"
/// v1: pre-lifecycle record (num_vertices, d_max, all slots live). v3: the
/// unified store record with capacity, slot states, and the free list (v2
/// was a since-retired index container revision; record versions skip it
/// so that "format v3" names the same on-disk generation everywhere).
constexpr std::uint32_t kVersionLegacy = 1;
constexpr std::uint32_t kVersion = 3;

/// Slot ids are VertexIds and kInvalidVertex is the row sentinel, so no
/// store holds more slots than that.
constexpr std::uint64_t kMaxSlots = kInvalidVertex;
constexpr std::uint64_t kMaxDegree = std::uint64_t{1} << 20;
/// Largest adjacency reservation a record may ask for, in (id, dist) cells
/// at capacity: 2^31 cells is 16 GiB of rows. A header asking for more is
/// corrupt, and is rejected before anything is allocated.
constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 31;

}  // namespace

GraphStore::GraphStore(std::size_t num_vertices, std::size_t d_max,
                       std::size_t capacity)
    : capacity_(std::max(capacity, num_vertices)),
      d_max_(d_max),
      num_slots_(num_vertices),
      num_live_(num_vertices) {
  GANNS_CHECK(d_max >= 1);
  ReserveCapacity();
  ids_.resize(num_vertices * d_max, kInvalidVertex);
  dists_.resize(num_vertices * d_max, kInfDist);
  degrees_.resize(num_vertices, 0);
  states_.resize(num_vertices, SlotState::kLive);
}

GraphStore::GraphStore(const GraphStore& other)
    : capacity_(other.capacity_),
      d_max_(other.d_max_),
      num_slots_(other.num_slots_),
      num_live_(other.num_live_),
      num_tombstones_(other.num_tombstones_),
      free_slots_(other.free_slots_) {
  ReserveCapacity();
  ids_.assign(other.ids_.begin(), other.ids_.end());
  dists_.assign(other.dists_.begin(), other.dists_.end());
  degrees_.assign(other.degrees_.begin(), other.degrees_.end());
  states_.assign(other.states_.begin(), other.states_.end());
}

GraphStore& GraphStore::operator=(const GraphStore& other) {
  if (this != &other) *this = GraphStore(other);
  return *this;
}

void GraphStore::ReserveCapacity() {
  ids_.reserve(capacity_ * d_max_);
  dists_.reserve(capacity_ * d_max_);
  degrees_.reserve(capacity_);
  states_.reserve(capacity_);
}

void GraphStore::InsertNeighbor(VertexId v, VertexId u, Dist dist) {
  GANNS_CHECK(v < num_slots_ && u < num_slots_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  const std::size_t degree = degrees_[v];

  // Locate the insertion position by binary search over (dist, id).
  std::size_t lo = 0;
  std::size_t hi = degree;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (row_dists[mid] < dist ||
        (row_dists[mid] == dist && row_ids[mid] < u)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == d_max_) return;  // worse than every kept neighbor; full row

  // Reject duplicates (u may already be present at the same distance).
  for (std::size_t i = 0; i < degree; ++i) {
    if (row_ids[i] == u) return;
  }

  const std::size_t new_degree = degree < d_max_ ? degree + 1 : d_max_;
  // Shift the tail right by one, discarding the last entry if full.
  for (std::size_t i = new_degree - 1; i > lo; --i) {
    row_ids[i] = row_ids[i - 1];
    row_dists[i] = row_dists[i - 1];
  }
  row_ids[lo] = u;
  row_dists[lo] = dist;
  degrees_[v] = static_cast<std::uint32_t>(new_degree);
}

void GraphStore::SetNeighbors(VertexId v, std::span<const Edge> edges) {
  GANNS_CHECK(v < num_slots_);
  GANNS_CHECK(edges.size() <= d_max_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  std::size_t count = 0;
  for (const Edge& edge : edges) {
    if (edge.id == kInvalidVertex) continue;
    GANNS_CHECK(edge.id < num_slots_);
    if (count > 0) {
      GANNS_CHECK_MSG(row_dists[count - 1] < edge.dist ||
                          (row_dists[count - 1] == edge.dist &&
                           row_ids[count - 1] < edge.id),
                      "SetNeighbors input not sorted for vertex " << v);
    }
    row_ids[count] = edge.id;
    row_dists[count] = edge.dist;
    ++count;
  }
  for (std::size_t i = count; i < d_max_; ++i) {
    row_ids[i] = kInvalidVertex;
    row_dists[i] = kInfDist;
  }
  degrees_[v] = static_cast<std::uint32_t>(count);
}

void GraphStore::ClearVertex(VertexId v) {
  GANNS_CHECK(v < num_slots_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  for (std::size_t i = 0; i < d_max_; ++i) {
    row_ids[i] = kInvalidVertex;
    row_dists[i] = kInfDist;
  }
  degrees_[v] = 0;
}

bool GraphStore::RemoveNeighbor(VertexId v, VertexId u) {
  GANNS_CHECK(v < num_slots_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  const std::size_t degree = degrees_[v];
  for (std::size_t i = 0; i < degree; ++i) {
    if (row_ids[i] != u) continue;
    for (std::size_t j = i + 1; j < degree; ++j) {
      row_ids[j - 1] = row_ids[j];
      row_dists[j - 1] = row_dists[j];
    }
    row_ids[degree - 1] = kInvalidVertex;
    row_dists[degree - 1] = kInfDist;
    degrees_[v] = static_cast<std::uint32_t>(degree - 1);
    return true;
  }
  return false;
}

std::size_t GraphStore::NumEdges() const {
  std::size_t total = 0;
  for (std::size_t v = 0; v < num_slots_; ++v) total += degrees_[v];
  return total;
}

std::optional<VertexId> GraphStore::AllocSlot() {
  VertexId v;
  if (!free_slots_.empty()) {
    v = free_slots_.back();
    free_slots_.pop_back();
  } else if (num_slots_ < capacity_) {
    // Within the reservation: appending the sentinel row moves no row.
    v = static_cast<VertexId>(num_slots_++);
    ids_.resize(num_slots_ * d_max_, kInvalidVertex);
    dists_.resize(num_slots_ * d_max_, kInfDist);
    degrees_.push_back(0);
    states_.push_back(SlotState::kFree);
  } else {
    return std::nullopt;
  }
  states_[v] = SlotState::kLive;
  ++num_live_;
  return v;
}

void GraphStore::Tombstone(VertexId v) {
  GANNS_CHECK(std::size_t{v} < num_slots_);
  GANNS_CHECK_MSG(states_[v] == SlotState::kLive,
                  "tombstone of non-live slot " << v);
  states_[v] = SlotState::kTombstone;
  --num_live_;
  ++num_tombstones_;
}

void GraphStore::ReleaseTombstone(VertexId v) {
  GANNS_CHECK(std::size_t{v} < num_slots_);
  GANNS_CHECK_MSG(states_[v] == SlotState::kTombstone,
                  "release of non-tombstoned slot " << v);
  ClearVertex(v);
  states_[v] = SlotState::kFree;
  --num_tombstones_;
  free_slots_.push_back(v);
}

bool GraphStore::WriteTo(std::FILE* file) const {
  const std::uint64_t header[8] = {kMagic,    kVersion,         num_slots_,
                                   d_max_,    capacity_,        num_live_,
                                   num_tombstones_, free_slots_.size()};
  if (std::fwrite(header, sizeof(header), 1, file) != 1) return false;
  const std::size_t cells = num_slots_ * d_max_;
  if (cells > 0) {
    if (std::fwrite(ids_.data(), sizeof(VertexId), cells, file) != cells) {
      return false;
    }
    if (std::fwrite(dists_.data(), sizeof(Dist), cells, file) != cells) {
      return false;
    }
  }
  if (num_slots_ > 0) {
    if (std::fwrite(degrees_.data(), sizeof(std::uint32_t), num_slots_,
                    file) != num_slots_) {
      return false;
    }
    if (std::fwrite(states_.data(), sizeof(SlotState), num_slots_, file) !=
        num_slots_) {
      return false;
    }
  }
  if (!free_slots_.empty() &&
      std::fwrite(free_slots_.data(), sizeof(VertexId), free_slots_.size(),
                  file) != free_slots_.size()) {
    return false;
  }
  return true;
}

std::optional<GraphStore> GraphStore::ReadFrom(std::FILE* file) {
  // Both versions share the first four header words
  // {magic, version, num_slots, d_max}; v3 appends
  // {capacity, num_live, num_tombstones, free_count}.
  std::uint64_t head[4] = {};
  if (std::fread(head, sizeof(head), 1, file) != 1) return std::nullopt;
  if (head[0] != kMagic) return std::nullopt;
  const std::uint64_t version = head[1];
  if (version != kVersionLegacy && version != kVersion) return std::nullopt;
  // Reject absurd sizes before allocating (a truncated or foreign file must
  // fail cleanly, not bad_alloc).
  const std::uint64_t num_slots = head[2];
  const std::uint64_t d_max = head[3];
  if (num_slots > kMaxSlots || d_max == 0 || d_max > kMaxDegree) {
    return std::nullopt;
  }

  std::uint64_t capacity = num_slots;
  std::uint64_t num_live = num_slots;
  std::uint64_t num_tombstones = 0;
  std::uint64_t free_count = 0;
  if (version == kVersion) {
    std::uint64_t tail[4] = {};
    if (std::fread(tail, sizeof(tail), 1, file) != 1) return std::nullopt;
    capacity = tail[0];
    num_live = tail[1];
    num_tombstones = tail[2];
    free_count = tail[3];
    if (capacity > kMaxSlots || capacity < num_slots) return std::nullopt;
    if (num_live + num_tombstones + free_count != num_slots) {
      return std::nullopt;
    }
  }
  // Both factors are bounded above, so the product cannot wrap.
  if (capacity * d_max > kMaxCells) return std::nullopt;

  // The constructor reserves for capacity; the live rows are read straight
  // into place.
  GraphStore store(0, d_max, capacity);
  store.num_slots_ = num_slots;
  store.num_live_ = num_live;
  store.num_tombstones_ = num_tombstones;
  const std::size_t cells = num_slots * d_max;
  store.ids_.resize(cells);
  store.dists_.resize(cells);
  store.degrees_.resize(num_slots);
  store.states_.resize(num_slots);
  if (cells > 0) {
    if (std::fread(store.ids_.data(), sizeof(VertexId), cells, file) !=
        cells) {
      return std::nullopt;
    }
    if (std::fread(store.dists_.data(), sizeof(Dist), cells, file) != cells) {
      return std::nullopt;
    }
  }
  if (num_slots > 0 &&
      std::fread(store.degrees_.data(), sizeof(std::uint32_t), num_slots,
                 file) != num_slots) {
    return std::nullopt;
  }
  for (std::size_t v = 0; v < num_slots; ++v) {
    if (store.degrees_[v] > d_max) return std::nullopt;
  }

  if (version == kVersionLegacy) {
    std::fill(store.states_.begin(), store.states_.end(), SlotState::kLive);
    return store;
  }

  if (num_slots > 0 &&
      std::fread(store.states_.data(), sizeof(SlotState), num_slots, file) !=
          num_slots) {
    return std::nullopt;
  }
  // Recount the states: the header counts must describe the state bytes, or
  // the record is corrupt.
  std::uint64_t live = 0, tombs = 0, free = 0;
  for (std::size_t v = 0; v < num_slots; ++v) {
    switch (store.states_[v]) {
      case SlotState::kLive: ++live; break;
      case SlotState::kTombstone: ++tombs; break;
      case SlotState::kFree: ++free; break;
      default: return std::nullopt;
    }
  }
  if (live != num_live || tombs != num_tombstones || free != free_count) {
    return std::nullopt;
  }
  store.free_slots_.resize(free_count);
  if (free_count > 0 &&
      std::fread(store.free_slots_.data(), sizeof(VertexId), free_count,
                 file) != free_count) {
    return std::nullopt;
  }
  std::vector<bool> seen(num_slots, false);
  for (VertexId v : store.free_slots_) {
    if (std::size_t{v} >= num_slots ||
        store.states_[v] != SlotState::kFree || seen[v]) {
      return std::nullopt;
    }
    seen[v] = true;
  }
  return store;
}

}  // namespace graph
}  // namespace ganns
