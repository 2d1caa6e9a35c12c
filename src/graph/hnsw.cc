#include "graph/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/file.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/scratch.h"
#include "common/timer.h"
#include "data/query_distance.h"

namespace {

/// One greedy hill-climbing step shared by the descent loops: batch-computes
/// the distances of `current`'s adjacency row on `layer` and moves to the
/// row's best vertex if it improves. Identical to the scalar scan it
/// replaces — the row minimum with first-index tie-break is what the
/// sequential improve-as-you-go update converged to. Layer graphs address
/// the full corpus id space, so code slots index directly. Returns true if
/// `current` moved.
bool GreedyStep(const ganns::graph::ProximityGraph& layer,
                const ganns::data::QueryDistance& dist,
                ganns::VertexId& current, ganns::Dist& current_dist,
                ganns::graph::BeamSearchStats& stats) {
  const auto neighbors = layer.Neighbors(current);
  const std::size_t degree = layer.Degree(current);
  if (degree == 0) return false;
  ganns::SearchScratch& scratch = ganns::ThreadLocalSearchScratch();
  scratch.dists.resize(degree);
  dist.Many(neighbors.subspan(0, degree), scratch.dists);
  stats.distance_computations += degree;
  bool improved = false;
  for (std::size_t i = 0; i < degree; ++i) {
    if (scratch.dists[i] < current_dist) {
      current_dist = scratch.dists[i];
      current = neighbors[i];
      improved = true;
    }
  }
  return improved;
}

}  // namespace

namespace ganns {
namespace graph {

namespace {

constexpr std::uint64_t kHnswVersion = 1;

}  // namespace

bool HnswGraph::WriteTo(std::FILE* file) const {
  const std::uint64_t header[6] = {kRecordMagic,
                                   kHnswVersion,
                                   levels_.size(),
                                   layers_[0].d_max(),
                                   static_cast<std::uint64_t>(max_level_) + 1,
                                   entry_};
  if (std::fwrite(header, sizeof(header), 1, file) != 1) return false;
  if (std::fwrite(levels_.data(), 1, levels_.size(), file) != levels_.size()) {
    return false;
  }
  for (const ProximityGraph& layer : layers_) {
    if (!layer.WriteTo(file)) return false;
  }
  return true;
}

std::optional<HnswGraph> HnswGraph::ReadFrom(std::FILE* file) {
  std::uint64_t header[6] = {};
  if (std::fread(header, sizeof(header), 1, file) != 1) return std::nullopt;
  if (header[0] != kRecordMagic || header[1] != kHnswVersion) {
    return std::nullopt;
  }
  const std::uint64_t num_vertices = header[2];
  const std::uint64_t d_max = header[3];
  const std::uint64_t num_layers = header[4];
  const std::uint64_t entry = header[5];
  // Each layer is a full-size graph record: hold the header to the same
  // limits before allocating anything. Both factors of the cell count are
  // bounded, so the product cannot wrap.
  if (num_vertices > ProximityGraph::kMaxVertices || d_max == 0 ||
      d_max > ProximityGraph::kMaxDegree ||
      num_vertices * d_max > ProximityGraph::kMaxCells || num_layers == 0 ||
      num_layers > 256 || entry >= num_vertices) {
    return std::nullopt;
  }
  // The level array and every layer record must be in the file before
  // anything is allocated. Bounded as above: no product can wrap.
  if (BytesLeft(file) <
      num_vertices +
          num_layers * ProximityGraph::RecordBytes(num_vertices, d_max)) {
    return std::nullopt;
  }
  Levels levels(num_vertices);  // unfilled: read over below
  if (!ReadBulk(file, levels.data(), levels.size())) return std::nullopt;
  // The level array determines the layer count; a file whose layer records
  // disagree with its own levels is corrupt.
  const std::uint64_t top = *std::max_element(levels.begin(), levels.end());
  if (top + 1 != num_layers) return std::nullopt;
  std::vector<ProximityGraph> layers;
  layers.reserve(num_layers);
  for (std::uint64_t l = 0; l < num_layers; ++l) {
    auto layer = ProximityGraph::ReadFrom(file);
    if (!layer.has_value() || layer->num_vertices() != num_vertices ||
        layer->d_max() != d_max) {
      return std::nullopt;
    }
    layers.push_back(*std::move(layer));
  }
  return HnswGraph(std::move(levels), std::move(layers),
                   static_cast<VertexId>(entry));
}

bool HnswGraph::SaveTo(const std::string& path) const {
  File file(path, "wb");
  if (!file) return false;
  return WriteTo(file.get()) && file.Close();
}

std::optional<HnswGraph> HnswGraph::LoadFrom(const std::string& path) {
  File file(path, "rb");
  if (!file) return std::nullopt;
  return ReadFrom(file.get());
}

HnswGraph::HnswGraph(std::size_t num_vertices, std::size_t d_max,
                     Levels levels)
    : levels_(std::move(levels)) {
  GANNS_CHECK(levels_.size() == num_vertices);
  max_level_ = 0;
  for (std::uint8_t l : levels_) max_level_ = std::max(max_level_, int{l});
  layers_.reserve(max_level_ + 1);
  for (int l = 0; l <= max_level_; ++l) {
    layers_.emplace_back(num_vertices, d_max);
  }
}

HnswGraph::HnswGraph(Levels levels, std::vector<ProximityGraph> layers,
                     VertexId entry)
    : levels_(std::move(levels)),
      layers_(std::move(layers)),
      max_level_(static_cast<int>(layers_.size()) - 1),
      entry_(entry) {}

std::size_t HnswGraph::LayerSize(int l) const {
  std::size_t count = 0;
  for (std::uint8_t level : levels_) {
    if (int{level} >= l) ++count;
  }
  return count;
}

VertexId HnswGraph::DescendToLayer0(const data::Dataset& base,
                                    std::span<const float> query,
                                    BeamSearchStats* stats,
                                    const SearchContext& ctx) const {
  const data::QueryDistance dist(base, query, ctx.quant);
  VertexId current = entry_;
  Dist current_dist = dist.One(current);
  BeamSearchStats local;
  ++local.distance_computations;
  for (int l = max_level_; l >= 1; --l) {
    // Greedy hill climbing on layer l.
    bool improved = true;
    while (improved) {
      ++local.iterations;
      improved = GreedyStep(layers_[l], dist, current, current_dist, local);
    }
  }
  if (stats != nullptr) stats->Add(local);
  return current;
}

HnswGraph::Levels HnswGraph::SampleLevels(std::size_t num_vertices,
                                          const HnswParams& params) {
  // The HNSW paper's level multiplier m_L = 1 / ln(d_min).
  const double m_l = 1.0 / std::log(static_cast<double>(
                                std::max<std::size_t>(2, params.nsw.d_min)));
  Levels levels(num_vertices, 0);
  Rng rng(params.seed);
  constexpr int kMaxLevel = 24;
  for (std::size_t v = 0; v < num_vertices; ++v) {
    double u = rng.NextDouble();
    if (u <= 0) u = 1e-18;
    const int level =
        std::min(kMaxLevel, static_cast<int>(-std::log(u) * m_l));
    levels[v] = static_cast<std::uint8_t>(level);
  }
  return levels;
}

CpuHnswBuildResult BuildHnswCpu(const data::Dataset& base,
                                const HnswParams& params,
                                const CpuCostModel& cost) {
  GANNS_CHECK(base.size() >= 1);
  WallTimer timer;
  const NswParams& nsw = params.nsw;

  HnswGraph::Levels levels = HnswGraph::SampleLevels(base.size(), params);
  CpuHnswBuildResult result{
      HnswGraph(base.size(), nsw.d_max, std::move(levels)), 0.0, 0.0, {}};
  HnswGraph& graph = result.graph;

  BeamSearchStats stats;
  std::size_t adjacency_inserts = 0;
  int top_level = graph.level(0);
  graph.set_entry(0);

  for (std::size_t i = 1; i < base.size(); ++i) {
    const VertexId v = static_cast<VertexId>(i);
    const std::span<const float> point = base.Point(v);
    const int v_level = graph.level(v);

    // Greedy descent through layers above v's level.
    const data::QueryDistance dist(base, point);
    VertexId ep = graph.entry();
    Dist ep_dist = dist.One(ep);
    ++stats.distance_computations;
    for (int l = top_level; l > v_level; --l) {
      bool improved = true;
      while (improved) {
        ++stats.iterations;
        improved = GreedyStep(graph.layer(l), dist, ep, ep_dist, stats);
      }
    }

    // Beam search + bidirectional linking on layers [min(v_level, top)..0].
    for (int l = std::min(v_level, top_level); l >= 0; --l) {
      const std::vector<Neighbor> nearest =
          BeamSearch(graph.layer(l), base, point, nsw.d_min,
                     nsw.ef_construction, ep, &stats, /*restrict_to=*/v);
      std::vector<ProximityGraph::Edge> forward;
      forward.reserve(nearest.size());
      for (const Neighbor& n : nearest) forward.push_back({n.id, n.dist});
      graph.layer(l).SetNeighbors(v, forward);
      for (const Neighbor& n : nearest) {
        graph.layer(l).InsertNeighbor(n.id, v, n.dist);
        ++adjacency_inserts;
      }
      adjacency_inserts += nearest.size();
      if (!nearest.empty()) ep = nearest.front().id;
    }

    if (v_level > top_level) {
      top_level = v_level;
      graph.set_entry(v);
    }
  }

  result.search_stats = stats;
  result.sim_seconds =
      cost.Seconds(cost.SearchCycles(stats, base.dim()) +
                   cost.AdjacencyInsertCycles(adjacency_inserts, nsw.d_max));
  result.wall_seconds = timer.Seconds();
  return result;
}

std::vector<Neighbor> SearchHnsw(const HnswGraph& graph,
                                 const data::Dataset& base,
                                 std::span<const float> query, std::size_t k,
                                 std::size_t ef, BeamSearchStats* stats,
                                 const SearchContext& ctx) {
  const VertexId entry = graph.DescendToLayer0(base, query, stats, ctx);
  return BeamSearch(graph.layer(0), base, query, k, ef, entry, stats,
                    kInvalidVertex, ctx);
}

}  // namespace graph
}  // namespace ganns
