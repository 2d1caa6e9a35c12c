#include "graph/proximity_graph.h"

#include <algorithm>

#include "common/file.h"
#include "common/logging.h"

namespace ganns {
namespace graph {
namespace {

constexpr std::uint32_t kMagic = 0x474e4e53;  // "GNNS"
/// The only record version read: it carries capacity and per-vertex states
/// (v1 records, without them, are rejected).
constexpr std::uint32_t kVersion = 3;
/// Words of the record header.
constexpr std::size_t kHeaderWords = 8;

}  // namespace

ProximityGraph::ProximityGraph(std::size_t num_vertices, std::size_t d_max,
                               std::size_t capacity)
    : capacity_(std::max(capacity, num_vertices)),
      d_max_(d_max),
      num_vertices_(num_vertices),
      num_live_(num_vertices) {
  GANNS_CHECK(d_max >= 1);
  ReserveCapacity();
  ids_.resize(num_vertices * d_max, kInvalidVertex);
  dists_.resize(num_vertices * d_max, kInfDist);
  degrees_.resize(num_vertices, 0);
  states_.resize(num_vertices, SlotState::kLive);
}

ProximityGraph::ProximityGraph(const ProximityGraph& other)
    : capacity_(other.capacity_),
      d_max_(other.d_max_),
      num_vertices_(other.num_vertices_),
      num_live_(other.num_live_),
      num_tombstones_(other.num_tombstones_) {
  ReserveCapacity();
  ids_.assign(other.ids_.begin(), other.ids_.end());
  dists_.assign(other.dists_.begin(), other.dists_.end());
  degrees_.assign(other.degrees_.begin(), other.degrees_.end());
  states_.assign(other.states_.begin(), other.states_.end());
}

ProximityGraph& ProximityGraph::operator=(const ProximityGraph& other) {
  if (this != &other) *this = ProximityGraph(other);
  return *this;
}

void ProximityGraph::ReserveCapacity() {
  ids_.reserve(capacity_ * d_max_);
  dists_.reserve(capacity_ * d_max_);
  degrees_.reserve(capacity_);
  states_.reserve(capacity_);
}

void ProximityGraph::Reserve(std::size_t capacity) {
  if (capacity <= capacity_) return;
  capacity_ = capacity;
  ReserveCapacity();
}

void ProximityGraph::InsertNeighbor(VertexId v, VertexId u, Dist dist) {
  GANNS_CHECK(v < num_vertices_ && u < num_vertices_);
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

void ProximityGraph::SetNeighbors(VertexId v, std::span<const Edge> edges) {
  GANNS_CHECK(v < num_vertices_);
  GANNS_CHECK(edges.size() <= d_max_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  std::size_t count = 0;
  for (const Edge& edge : edges) {
    if (edge.id == kInvalidVertex) continue;
    GANNS_CHECK(edge.id < num_vertices_);
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

void ProximityGraph::ClearVertex(VertexId v) {
  GANNS_CHECK(v < num_vertices_);
  VertexId* row_ids = ids_.data() + Row(v);
  Dist* row_dists = dists_.data() + Row(v);
  for (std::size_t i = 0; i < d_max_; ++i) {
    row_ids[i] = kInvalidVertex;
    row_dists[i] = kInfDist;
  }
  degrees_[v] = 0;
}

bool ProximityGraph::RemoveNeighbor(VertexId v, VertexId u) {
  GANNS_CHECK(v < num_vertices_);
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

std::size_t ProximityGraph::NumEdges() const {
  std::size_t total = 0;
  for (std::size_t v = 0; v < num_vertices_; ++v) total += degrees_[v];
  return total;
}

std::optional<VertexId> ProximityGraph::AllocVertex() {
  if (num_vertices_ == capacity_) return std::nullopt;
  // Within the reservation: appending the sentinel row moves no row.
  const VertexId v = static_cast<VertexId>(num_vertices_++);
  ids_.resize(num_vertices_ * d_max_, kInvalidVertex);
  dists_.resize(num_vertices_ * d_max_, kInfDist);
  degrees_.push_back(0);
  states_.push_back(SlotState::kLive);
  ++num_live_;
  return v;
}

void ProximityGraph::Tombstone(VertexId v) {
  GANNS_CHECK(std::size_t{v} < num_vertices_);
  GANNS_CHECK_MSG(states_[v] == SlotState::kLive,
                  "tombstone of non-live vertex " << v);
  states_[v] = SlotState::kTombstone;
  --num_live_;
  ++num_tombstones_;
}

bool ProximityGraph::SaveTo(const std::string& path) const {
  File file(path, "wb");
  if (!file) return false;
  return WriteTo(file.get()) && file.Close();
}

std::optional<ProximityGraph> ProximityGraph::LoadFrom(
    const std::string& path) {
  File file(path, "rb");
  if (!file) return std::nullopt;
  return ReadFrom(file.get());
}

std::uint64_t ProximityGraph::RecordBytes(std::uint64_t num_vertices,
                                          std::uint64_t d_max) {
  return kHeaderWords * sizeof(std::uint64_t) +
         num_vertices * d_max * (sizeof(VertexId) + sizeof(Dist)) +
         num_vertices * (sizeof(std::uint32_t) + sizeof(SlotState));
}

bool ProximityGraph::WriteTo(std::FILE* file) const {
  // The last word is the v3 record's free-slot count: always 0, since no
  // graph holds a released slot.
  const std::uint64_t header[kHeaderWords] = {
      kMagic,    kVersion,  num_vertices_,   d_max_,
      capacity_, num_live_, num_tombstones_, 0};
  if (std::fwrite(header, sizeof(header), 1, file) != 1) return false;
  const std::size_t cells = num_vertices_ * d_max_;
  if (cells > 0) {
    if (std::fwrite(ids_.data(), sizeof(VertexId), cells, file) != cells) {
      return false;
    }
    if (std::fwrite(dists_.data(), sizeof(Dist), cells, file) != cells) {
      return false;
    }
  }
  if (num_vertices_ > 0) {
    if (std::fwrite(degrees_.data(), sizeof(std::uint32_t), num_vertices_,
                    file) != num_vertices_) {
      return false;
    }
    if (std::fwrite(states_.data(), sizeof(SlotState), num_vertices_,
                    file) != num_vertices_) {
      return false;
    }
  }
  return true;
}

std::optional<ProximityGraph> ProximityGraph::ReadFrom(std::FILE* file) {
  // {magic, version, num_vertices, d_max, capacity, num_live,
  //  num_tombstones, free_count}
  std::uint64_t header[kHeaderWords] = {};
  if (std::fread(header, sizeof(header), 1, file) != 1) return std::nullopt;
  if (header[0] != kMagic || header[1] != kVersion) return std::nullopt;
  // Reject absurd sizes before allocating (a truncated or foreign file must
  // fail cleanly, not bad_alloc).
  const std::uint64_t num_vertices = header[2];
  const std::uint64_t d_max = header[3];
  const std::uint64_t capacity = header[4];
  const std::uint64_t num_live = header[5];
  const std::uint64_t num_tombstones = header[6];
  if (num_vertices > kMaxVertices || d_max == 0 || d_max > kMaxDegree ||
      capacity > kMaxVertices || capacity < num_vertices) {
    return std::nullopt;
  }
  // Both factors are bounded above, so the product cannot wrap.
  if (capacity * d_max > kMaxCells) return std::nullopt;
  // Every vertex is live or tombstoned: a free-listed slot is corrupt.
  if (header[7] != 0 || num_live + num_tombstones != num_vertices) {
    return std::nullopt;
  }

  // The rest of the record must be in the file before anything is
  // allocated for it.
  const std::uint64_t body_bytes =
      RecordBytes(num_vertices, d_max) - sizeof(header);
  if (BytesLeft(file) < body_bytes) return std::nullopt;

  // The constructor reserves for capacity; the arrays are sized unfilled
  // and read straight into place.
  ProximityGraph graph(0, d_max, capacity);
  graph.num_vertices_ = num_vertices;
  graph.num_live_ = num_live;
  graph.num_tombstones_ = num_tombstones;
  const std::size_t cells = num_vertices * d_max;
  graph.ids_.resize(cells);
  graph.dists_.resize(cells);
  graph.degrees_.resize(num_vertices);
  graph.states_.resize(num_vertices);
  if (!ReadBulk(file, graph.ids_.data(), cells * sizeof(VertexId)) ||
      !ReadBulk(file, graph.dists_.data(), cells * sizeof(Dist)) ||
      !ReadBulk(file, graph.degrees_.data(),
                num_vertices * sizeof(std::uint32_t)) ||
      !ReadBulk(file, graph.states_.data(),
                num_vertices * sizeof(SlotState))) {
    return std::nullopt;
  }
  for (std::size_t v = 0; v < num_vertices; ++v) {
    if (graph.degrees_[v] > d_max) return std::nullopt;
  }
  // Recount the states: the header counts must describe the state bytes, or
  // the record is corrupt.
  std::uint64_t live = 0;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    switch (graph.states_[v]) {
      case SlotState::kLive: ++live; break;
      case SlotState::kTombstone: break;
      default: return std::nullopt;
    }
  }
  if (live != num_live) return std::nullopt;
  return graph;
}

}  // namespace graph
}  // namespace ganns
