#include "core/edge_update.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "gpusim/bitonic.h"
#include "gpusim/global_sort.h"
#include "gpusim/scan.h"
#include "graph/beam_search.h"

namespace ganns {
namespace core {
namespace {

/// Total order by (from, dist, to) with invalid entries at the tail —
/// Algorithm 2 step 2: "organize edges in E by the IDs of the starting
/// vertices, with the ties broken by the distances".
bool EdgeLess(const BackwardEdge& a, const BackwardEdge& b) {
  if (a.from != b.from) return a.from < b.from;
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.to < b.to;
}

constexpr std::size_t kIndicatorTile = 1024;

}  // namespace

GatheredEdges GatherScatter(gpusim::Device& device,
                            std::vector<BackwardEdge> edges,
                            int block_lanes) {
  GatheredEdges out;
  if (edges.empty()) return out;

  // (1) Cross-block bitonic sort of the padded edge list. Invalid entries
  // (from == kInvalidVertex) carry the maximal key and sink to the tail.
  edges.resize(gpusim::NextPow2(edges.size()));
  gpusim::GlobalBitonicSort(device, std::span<BackwardEdge>(edges), EdgeLess,
                            block_lanes,
                            gpusim::CostCategory::kDataStructure);

  std::size_t num_valid = 0;
  while (num_valid < edges.size() &&
         edges[num_valid].from != kInvalidVertex) {
    ++num_valid;
  }
  edges.resize(num_valid);
  out.edges = std::move(edges);
  if (num_valid == 0) return out;

  // (2) Indicator array: I[i] = 1 iff edge i is the first edge of its
  // starting vertex.
  std::vector<std::uint32_t> indicator(num_valid, 0);
  const std::size_t num_tiles =
      (num_valid + kIndicatorTile - 1) / kIndicatorTile;
  device.Launch(
      "edge_update.indicator", static_cast<int>(num_tiles), block_lanes,
      [&](gpusim::BlockContext& block) {
        gpusim::Warp& warp = block.warp();
        const std::size_t begin =
            static_cast<std::size_t>(block.block_id()) * kIndicatorTile;
        const std::size_t end =
            std::min(num_valid, begin + kIndicatorTile);
        warp.ParallelFor(
            end - begin, gpusim::CostCategory::kDataStructure,
            warp.params().alu_step + 2 * warp.params().global_transaction,
            [&](std::size_t offset) {
              const std::size_t i = begin + offset;
              indicator[i] =
                  (i == 0 || out.edges[i].from != out.edges[i - 1].from) ? 1
                                                                         : 0;
            });
      });

  // (3) Prefix sum of I: rank of each starting vertex.
  std::vector<std::uint32_t> ranks(num_valid, 0);
  const std::uint32_t num_starts = gpusim::GlobalExclusiveScan(
      device, indicator, std::span<std::uint32_t>(ranks), block_lanes,
      gpusim::CostCategory::kDataStructure);
  out.num_starts = num_starts;

  // (4) Scatter: offsets[rank] = position of each first edge.
  out.offsets.assign(num_starts + 1, 0);
  out.offsets[num_starts] = static_cast<std::uint32_t>(num_valid);
  device.Launch(
      "edge_update.scatter", static_cast<int>(num_tiles), block_lanes,
      [&](gpusim::BlockContext& block) {
        gpusim::Warp& warp = block.warp();
        const std::size_t begin =
            static_cast<std::size_t>(block.block_id()) * kIndicatorTile;
        const std::size_t end =
            std::min(num_valid, begin + kIndicatorTile);
        warp.ParallelFor(
            end - begin, gpusim::CostCategory::kDataStructure,
            warp.params().alu_step + 2 * warp.params().global_transaction,
            [&](std::size_t offset) {
              const std::size_t i = begin + offset;
              if (indicator[i] != 0) {
                out.offsets[ranks[i]] = static_cast<std::uint32_t>(i);
              }
            });
      });
  return out;
}

std::size_t ApplyBackwardEdges(gpusim::Device& device,
                               const GatheredEdges& gathered,
                               graph::ProximityGraph& graph,
                               int block_lanes) {
  if (gathered.num_starts == 0) return 0;
  const std::size_t d_max = graph.d_max();
  std::atomic<std::size_t> changed_rows{0};

  device.Launch(
      "edge_update.apply_backward", static_cast<int>(gathered.num_starts),
      block_lanes,
      [&](gpusim::BlockContext& block) {
        gpusim::Warp& warp = block.warp();
        const std::size_t s = static_cast<std::size_t>(block.block_id());
        const std::uint32_t begin = gathered.offsets[s];
        const std::uint32_t end = gathered.offsets[s + 1];
        const VertexId u = gathered.edges[begin].from;

        // (2) Load the current adjacency row of u. (Loaded first so the
        // incoming edges can be filtered against it.)
        auto row = block.AllocShared<graph::Neighbor>(d_max);
        warp.ChargeGlobalLoad(2 * d_max,
                              gpusim::CostCategory::kDataStructure);
        const auto ids = graph.Neighbors(u);
        const auto dists = graph.NeighborDists(u);
        const std::size_t degree = graph.Degree(u);
        for (std::size_t i = 0; i < degree; ++i) {
          row[i] = {dists[i], ids[i]};
        }

        // (1) Load this vertex's gathered edges, dropping duplicates: a
        // target proposed more than once sits in adjacent sorted slots, and
        // a target already adjacent to u is found by parallel binary search
        // over the sorted row (same primitive as the search kernel's lazy
        // check).
        auto incoming = block.AllocShared<graph::Neighbor>(d_max);
        std::size_t num_new = 0;
        warp.ChargeGlobalLoad(2 * (end - begin),
                              gpusim::CostCategory::kDataStructure);
        warp.ChargeBinarySearch(end - begin, degree == 0 ? 1 : degree,
                                gpusim::CostCategory::kDataStructure);
        for (std::uint32_t i = begin; i < end && num_new < d_max; ++i) {
          const BackwardEdge& edge = gathered.edges[i];
          if (i > begin && edge.to == gathered.edges[i - 1].to) continue;
          bool present = false;
          for (std::size_t r = 0; r < degree; ++r) {
            if (row[r].id == edge.to) {
              present = true;
              break;
            }
          }
          if (present) continue;
          incoming[num_new++] = {edge.dist, edge.to};
        }
        if (num_new == 0) return;  // nothing to merge for this vertex

        // (3) Bitonic-merge the two sorted lists; first d_max entries win.
        auto scratch =
            block.AllocShared<graph::Neighbor>(2 * gpusim::NextPow2(d_max));
        gpusim::MergeSortedKeepFirst(
            warp, std::span<graph::Neighbor>(row),
            std::span<const graph::Neighbor>(incoming.data(), num_new),
            std::span<graph::Neighbor>(scratch),
            [](const graph::Neighbor& a, const graph::Neighbor& b) {
              return a < b;
            },
            gpusim::CostCategory::kDataStructure);

        std::vector<graph::ProximityGraph::Edge> merged;
        merged.reserve(d_max);
        bool changed = false;
        for (std::size_t i = 0; i < d_max; ++i) {
          if (row[i].id == kInvalidVertex) break;
          if (i >= degree || ids[i] != row[i].id) changed = true;
          merged.push_back({row[i].id, row[i].dist});
        }
        if (merged.size() != degree) changed = true;
        warp.ChargeGlobalLoad(2 * merged.size(),
                              gpusim::CostCategory::kDataStructure);
        graph.SetNeighbors(u, merged);
        if (changed) changed_rows.fetch_add(1, std::memory_order_relaxed);
      });
  return changed_rows.load();
}

}  // namespace core
}  // namespace ganns
