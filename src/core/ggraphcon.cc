#include "core/ggraphcon.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "core/edge_update.h"
#include "gpusim/bitonic.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace core {
namespace {

/// Charges one sorted adjacency insertion executed cooperatively within a
/// block (Algorithm 2, local construction step 2): a binary search for the
/// position plus a lane-parallel shift of the row tail.
void ChargeAdjacencyInsert(gpusim::Warp& warp, std::size_t d_max) {
  warp.ChargeBinarySearch(1, d_max, gpusim::CostCategory::kDataStructure);
  warp.cost().Charge(gpusim::CostCategory::kDataStructure,
                     warp.StepsFor(d_max) *
                         (warp.params().shared_access +
                          warp.params().global_transaction / gpusim::kWarpSize));
}

std::vector<graph::ProximityGraph::Edge> ToEdges(
    const std::vector<graph::Neighbor>& neighbors) {
  std::vector<graph::ProximityGraph::Edge> edges;
  edges.reserve(neighbors.size());
  for (const graph::Neighbor& n : neighbors) edges.push_back({n.id, n.dist});
  return edges;
}

/// Finalizes a build result from the device timeline accumulated since
/// ResetTimeline().
GpuBuildResult Finish(gpusim::Device& device, graph::ProximityGraph&& graph,
                      const WallTimer& timer) {
  GpuBuildResult result{std::move(graph), 0, 0, 0, 0};
  result.sim_seconds = device.timeline_seconds();
  result.wall_seconds = timer.Seconds();
  result.distance_work_cycles =
      device.timeline_work(gpusim::CostCategory::kDistance);
  result.ds_work_cycles =
      device.timeline_work(gpusim::CostCategory::kDataStructure);
  return result;
}

}  // namespace

GpuBuildResult BuildNswGGraphCon(gpusim::Device& device,
                                 const data::Dataset& base,
                                 const GpuBuildParams& params,
                                 std::size_t num_points) {
  const std::size_t n = num_points == 0 ? base.size() : num_points;
  GANNS_CHECK(n >= 1 && n <= base.size());
  const graph::NswParams& nsw = params.nsw;
  GANNS_CHECK(nsw.d_min >= 1 && nsw.d_min <= nsw.d_max);
  const int num_groups =
      std::max(1, std::min<int>(params.num_groups,
                                static_cast<int>((n + 1) / 2)));
  const std::size_t group_size =
      (n + static_cast<std::size_t>(num_groups) - 1) /
      static_cast<std::size_t>(num_groups);

  WallTimer timer;
  device.ResetTimeline();

  // G: the result graph. G': intermediate per-point nearest neighbors among
  // same-group predecessors (pre-allocated in global memory, Algorithm 2).
  graph::ProximityGraph result_graph(base.size(), nsw.d_max);
  graph::ProximityGraph local_nn(base.size(), nsw.d_min);

  const auto group_begin = [&](int i) {
    return std::min(n, static_cast<std::size_t>(i) * group_size);
  };

  // ---- Phase 1: local graph construction (one block per group). ----
  device.Launch("ggraphcon.local_build", num_groups, params.block_lanes,
                [&](gpusim::BlockContext& block) {
                  const std::size_t begin = group_begin(block.block_id());
                  const std::size_t end = group_begin(block.block_id() + 1);
                  if (begin >= end) return;
                  const VertexId entry = static_cast<VertexId>(begin);
                  for (std::size_t p = begin + 1; p < end; ++p) {
                    block.ResetShared();
                    const VertexId v = static_cast<VertexId>(p);
                    // Step 1: d_min nearest neighbors on the local graph.
                    const std::vector<graph::Neighbor> nearest =
                        DispatchSearch(block, params.kernel, result_graph,
                                       base, base.Point(v), nsw.d_min,
                                       nsw.ef_construction, entry);
                    const auto edges = ToEdges(nearest);
                    result_graph.SetNeighbors(v, edges);  // v.N
                    local_nn.SetNeighbors(v, edges);      // v.N'
                    // Step 2: backward links, in parallel within the block.
                    for (const graph::Neighbor& u : nearest) {
                      result_graph.InsertNeighbor(u.id, v, u.dist);
                      ChargeAdjacencyInsert(block.warp(), nsw.d_max);
                    }
                  }
                });

  // ---- Phase 2: iteratively merge groups 1..t into G_0. ----
  for (int i = 1; i < num_groups; ++i) {
    const std::size_t begin = group_begin(i);
    const std::size_t end = group_begin(i + 1);
    if (begin >= end) break;
    const std::size_t m = end - begin;

    // Step 1: re-search every vertex of G_i against G_0, merge with its
    // saved local neighbors (forward edges), and emit backward edges into
    // the fixed-stride global edge list E.
    const double round_start = device.trace_cycles();
    std::vector<BackwardEdge> edge_list(m * nsw.d_min);
    device.Launch(
        "ggraphcon.merge_search", static_cast<int>(m), params.block_lanes,
        [&](gpusim::BlockContext& block) {
          gpusim::Warp& warp = block.warp();
          const std::size_t j = static_cast<std::size_t>(block.block_id());
          const VertexId v = static_cast<VertexId>(begin + j);
          std::vector<graph::Neighbor> from_g0 =
              DispatchSearch(block, params.kernel, result_graph, base,
                             base.Point(v), nsw.d_min, nsw.ef_construction,
                             /*entry=*/0);

          // Merge with v.N' (disjoint id ranges: G_0 ids < group begin,
          // N' ids within the group) keeping the d_min nearest — v's final
          // forward edges.
          auto merged = block.AllocShared<graph::Neighbor>(nsw.d_min);
          auto scratch = block.AllocShared<graph::Neighbor>(
              2 * gpusim::NextPow2(nsw.d_min));
          for (std::size_t s = 0; s < from_g0.size(); ++s) merged[s] = from_g0[s];
          const auto prior_ids = local_nn.Neighbors(v);
          const auto prior_dists = local_nn.NeighborDists(v);
          const std::size_t prior_degree = local_nn.Degree(v);
          std::vector<graph::Neighbor> prior(prior_degree);
          for (std::size_t s = 0; s < prior_degree; ++s) {
            prior[s] = {prior_dists[s], prior_ids[s]};
          }
          warp.ChargeGlobalLoad(2 * nsw.d_min,
                                gpusim::CostCategory::kDataStructure);
          gpusim::MergeSortedKeepFirst(
              warp, std::span<graph::Neighbor>(merged),
              std::span<const graph::Neighbor>(prior), scratch,
              [](const graph::Neighbor& a, const graph::Neighbor& b) {
                return a < b;
              },
              gpusim::CostCategory::kDataStructure);

          std::vector<graph::ProximityGraph::Edge> forward;
          forward.reserve(nsw.d_min);
          for (std::size_t s = 0; s < merged.size(); ++s) {
            if (merged[s].id == kInvalidVertex) break;
            forward.push_back({merged[s].id, merged[s].dist});
          }
          result_graph.SetNeighbors(v, forward);
          warp.ChargeGlobalLoad(2 * forward.size(),
                                gpusim::CostCategory::kDataStructure);

          // Backward edges into E at this block's fixed stride.
          for (std::size_t s = 0; s < forward.size(); ++s) {
            edge_list[j * nsw.d_min + s] =
                BackwardEdge{forward[s].id, v, forward[s].dist};
          }
          warp.ChargeGlobalLoad(3 * forward.size(),
                                gpusim::CostCategory::kDataStructure);
        });

    // Steps 2-3: CSR-organize E and merge the backward edges into the
    // adjacency rows of their starting vertices.
    GatheredEdges gathered =
        GatherScatter(device, std::move(edge_list), params.block_lanes);
    ApplyBackwardEdges(device, gathered, result_graph, params.block_lanes);

    if (obs::TracingEnabled()) {
      // One enclosing span per merge round on the kernel track; the round's
      // kernels nest inside it (arg = merged group index).
      static const obs::NameId kRound = obs::InternName("ggraphcon.merge_round");
      obs::TraceRecorder::Global().Add(
          {kRound, obs::kDevicePid, obs::kKernelTrack, round_start,
           device.trace_cycles() - round_start, i, obs::InternName("group")});
    }
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global().GetCounter("ggraphcon.merge_rounds").Add();
    }
  }

  return Finish(device, std::move(result_graph), timer);
}

GpuBuildResult BuildNswGSerial(gpusim::Device& device,
                               const data::Dataset& base,
                               const GpuBuildParams& params) {
  const std::size_t n = base.size();
  GANNS_CHECK(n >= 1);
  const graph::NswParams& nsw = params.nsw;
  WallTimer timer;
  device.ResetTimeline();

  graph::ProximityGraph result_graph(n, nsw.d_max);
  for (std::size_t p = 1; p < n; ++p) {
    const VertexId v = static_cast<VertexId>(p);
    // One single-block kernel per insertion: the device runs exactly one
    // block while every other SM idles, and each launch pays the fixed
    // overhead — the two wastes §IV-A calls out.
    device.Launch("gserial.insert", 1, params.block_lanes,
                  [&](gpusim::BlockContext& block) {
      const std::vector<graph::Neighbor> nearest =
          DispatchSearch(block, params.kernel, result_graph, base,
                         base.Point(v), nsw.d_min, nsw.ef_construction,
                         /*entry=*/0);
      result_graph.SetNeighbors(v, ToEdges(nearest));
      for (const graph::Neighbor& u : nearest) {
        result_graph.InsertNeighbor(u.id, v, u.dist);
        ChargeAdjacencyInsert(block.warp(), nsw.d_max);
      }
    });
  }
  return Finish(device, std::move(result_graph), timer);
}

GpuBuildResult BuildNswGNaiveParallel(gpusim::Device& device,
                                      const data::Dataset& base,
                                      const GpuBuildParams& params) {
  const std::size_t n = base.size();
  GANNS_CHECK(n >= 1);
  const graph::NswParams& nsw = params.nsw;
  // The straightforward parallel method exists to fill the device, so its
  // batches are at least a device-full of blocks — which is exactly what
  // makes its in-batch blindness hurt graph quality.
  const std::size_t batch_size = std::max<std::size_t>(256, n / 16);
  WallTimer timer;
  device.ResetTimeline();

  graph::ProximityGraph result_graph(n, nsw.d_max);
  for (std::size_t begin = 1; begin < n; begin += batch_size) {
    const std::size_t end = std::min(n, begin + batch_size);
    const std::size_t m = end - begin;

    // Every point of the batch searches the *previous* graph concurrently;
    // same-batch points are invisible to each other (the quality flaw).
    std::vector<BackwardEdge> edge_list(m * nsw.d_min);
    std::vector<std::vector<graph::ProximityGraph::Edge>> forward(m);
    device.Launch(
        "gnaive.batch_search", static_cast<int>(m), params.block_lanes,
        [&](gpusim::BlockContext& block) {
          const std::size_t j = static_cast<std::size_t>(block.block_id());
          const VertexId v = static_cast<VertexId>(begin + j);
          const std::vector<graph::Neighbor> nearest =
              DispatchSearch(block, params.kernel, result_graph, base,
                             base.Point(v), nsw.d_min, nsw.ef_construction,
                             /*entry=*/0);
          forward[j] = ToEdges(nearest);
          for (std::size_t s = 0; s < nearest.size(); ++s) {
            edge_list[j * nsw.d_min + s] =
                BackwardEdge{nearest[s].id, v, nearest[s].dist};
          }
          block.warp().ChargeGlobalLoad(
              5 * nearest.size(), gpusim::CostCategory::kDataStructure);
        });
    // Aggregate the batch's edges after the search kernel (the searches must
    // not observe them).
    for (std::size_t j = 0; j < m; ++j) {
      result_graph.SetNeighbors(static_cast<VertexId>(begin + j), forward[j]);
    }
    GatheredEdges gathered =
        GatherScatter(device, std::move(edge_list), params.block_lanes);
    ApplyBackwardEdges(device, gathered, result_graph, params.block_lanes);
  }
  return Finish(device, std::move(result_graph), timer);
}

}  // namespace core
}  // namespace ganns
