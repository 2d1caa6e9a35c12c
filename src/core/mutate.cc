#include "core/mutate.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "core/edge_update.h"
#include "data/distance.h"

namespace ganns {
namespace core {
namespace {

/// Forward row of a fresh insert: the selected neighbors, capped at both
/// d_min and the row width. Candidates arrive sorted by (dist, id) from the
/// search, which is exactly SetNeighbors' input contract.
std::vector<graph::ProximityGraph::Edge> ForwardRow(
    const std::vector<graph::Neighbor>& candidates, VertexId v,
    std::size_t d_min, std::size_t d_max) {
  std::vector<graph::ProximityGraph::Edge> row;
  row.reserve(std::min(d_min, d_max));
  for (const graph::Neighbor& n : candidates) {
    if (n.id == v) continue;  // the fresh vertex is unreachable, but be safe
    if (row.size() == std::min(d_min, d_max)) break;
    row.push_back({n.id, n.dist});
  }
  return row;
}

/// Live out-neighbors of v, read before the row is touched.
std::vector<graph::Neighbor> LiveRow(const graph::ProximityGraph& graph,
                                     VertexId v) {
  std::vector<graph::Neighbor> live;
  const auto ids = graph.Neighbors(v);
  const auto dists = graph.NeighborDists(v);
  const std::size_t degree = graph.Degree(v);
  live.reserve(degree);
  for (std::size_t i = 0; i < degree; ++i) {
    if (graph.IsLive(ids[i])) live.push_back({dists[i], ids[i]});
  }
  return live;
}

}  // namespace

UpdateResult InsertVertex(gpusim::Device& device, graph::ProximityGraph& graph,
                          const data::Dataset& base, VertexId v,
                          VertexId entry, const UpdateParams& params) {
  GANNS_CHECK(graph.IsLive(v));
  GANNS_CHECK(entry < graph.num_vertices() && entry != v);
  const double start_seconds = device.timeline_seconds();

  // Neighbor selection: one construction-style search block over the
  // current graph, querying the new vector itself.
  std::vector<graph::Neighbor> candidates;
  device.Launch("lifecycle.insert_search", 1, params.block_lanes,
                [&](gpusim::BlockContext& block) {
                  candidates = DispatchSearch(
                      block, params.kernel, graph, base, base.Point(v),
                      params.d_min, params.ef, entry);
                });

  const std::vector<graph::ProximityGraph::Edge> row =
      ForwardRow(candidates, v, params.d_min, graph.d_max());
  graph.SetNeighbors(v, row);

  // Reverse direction through the GGraphCon lazy-update machinery: each
  // selected neighbor is offered the new vertex, rows merged on the device.
  std::vector<BackwardEdge> backward;
  backward.reserve(row.size());
  for (const auto& edge : row) backward.push_back({edge.id, v, edge.dist});
  if (!backward.empty()) {
    const GatheredEdges gathered =
        GatherScatter(device, std::move(backward), params.block_lanes);
    ApplyBackwardEdges(device, gathered, graph, params.block_lanes);
  }

  return {device.timeline_seconds() - start_seconds, row.size()};
}

UpdateResult RemoveVertex(gpusim::Device& device, graph::ProximityGraph& graph,
                          const data::Dataset& base, VertexId v,
                          const UpdateParams& params) {
  GANNS_CHECK(graph.IsLive(v));
  const std::vector<graph::Neighbor> ring = LiveRow(graph, v);
  graph.Tombstone(v);
  if (ring.empty()) return {0.0, 0};
  const double start_seconds = device.timeline_seconds();

  // Repair kernel: one block per affected neighbor u. Each block drops
  // u -> v and proposes the rest of v's neighborhood to u (pairwise
  // distances charged like any construction search would charge them).
  // Blocks touch disjoint rows, so they are free to run concurrently.
  std::vector<std::vector<BackwardEdge>> proposals(ring.size());
  device.Launch(
      "lifecycle.remove_repair", static_cast<int>(ring.size()),
      params.block_lanes, [&](gpusim::BlockContext& block) {
        gpusim::Warp& warp = block.warp();
        const std::size_t i = static_cast<std::size_t>(block.block_id());
        const VertexId u = ring[i].id;
        warp.ChargeGlobalLoad(2 * graph.d_max(),
                              gpusim::CostCategory::kDataStructure);
        graph.RemoveNeighbor(u, v);
        auto& out = proposals[i];
        out.reserve(ring.size() - 1);
        for (const graph::Neighbor& w : ring) {
          if (w.id == u) continue;
          warp.ChargeDistance(base.dim());
          out.push_back({u, w.id,
                         data::ExactDistance(base.metric(), base.Point(u),
                                             base.Point(w.id))});
        }
      });

  std::vector<BackwardEdge> edges;
  for (auto& block_edges : proposals) {
    edges.insert(edges.end(), block_edges.begin(), block_edges.end());
  }
  if (!edges.empty()) {
    const GatheredEdges gathered =
        GatherScatter(device, std::move(edges), params.block_lanes);
    ApplyBackwardEdges(device, gathered, graph, params.block_lanes);
  }
  return {device.timeline_seconds() - start_seconds, ring.size()};
}

}  // namespace core
}  // namespace ganns
