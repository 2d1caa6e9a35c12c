#include "core/hnsw_gpu.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace ganns {
namespace core {

GpuHnswBuildResult BuildHnswGGraphCon(gpusim::Device& device,
                                      const data::Dataset& base,
                                      const graph::HnswParams& hnsw_params,
                                      const GpuBuildParams& gpu_params) {
  const std::size_t n = base.size();
  GANNS_CHECK(n >= 1);
  WallTimer timer;

  // Levels use the same sampler (and seed) as the CPU baseline, so both
  // builders produce the same layer membership.
  const graph::HnswGraph::Levels levels =
      graph::HnswGraph::SampleLevels(n, hnsw_params);

  // Shuffle ids: stable-sort by descending level. shuffled_to_original[s] is
  // the original id placed at shuffled position s; every layer l is then the
  // shuffled-id prefix [0, LayerSize(l)).
  std::vector<VertexId> shuffled_to_original(n);
  std::iota(shuffled_to_original.begin(), shuffled_to_original.end(), 0u);
  std::stable_sort(shuffled_to_original.begin(), shuffled_to_original.end(),
                   [&](VertexId a, VertexId b) {
                     if (levels[a] != levels[b]) return levels[a] > levels[b];
                     return a < b;
                   });

  // Materialize the permuted corpus the layer builders index into.
  data::Dataset permuted(base.name() + "-shuffled", base.dim(), base.metric());
  permuted.Reserve(n);
  for (VertexId original : shuffled_to_original) {
    permuted.Append(base.Point(original));
  }

  graph::HnswGraph result(n, gpu_params.nsw.d_max, levels);
  const int max_level = result.max_level();

  // Per-layer prefix sizes in the shuffled id space.
  std::vector<std::size_t> layer_sizes(max_level + 1, 0);
  for (std::uint8_t l : levels) {
    for (int i = 0; i <= int{l}; ++i) ++layer_sizes[i];
  }

  double sim_seconds = 0;
  for (int l = max_level; l >= 0; --l) {
    const std::size_t n_l = layer_sizes[l];
    if (n_l <= 1) continue;  // a single vertex needs no edges
    // Scale the group count down on sparse upper layers so groups keep
    // enough points to form meaningful local graphs.
    GpuBuildParams layer_params = gpu_params;
    layer_params.num_groups = static_cast<int>(std::max<std::size_t>(
        1, std::min<std::size_t>(gpu_params.num_groups, n_l / 8)));
    const double layer_start = device.trace_cycles();
    GpuBuildResult layer_result =
        BuildNswGGraphCon(device, permuted, layer_params, n_l);
    sim_seconds += layer_result.sim_seconds;
    if (obs::TracingEnabled()) {
      static const obs::NameId kLayer = obs::InternName("hnsw.layer_build");
      obs::TraceRecorder::Global().Add(
          {kLayer, obs::kDevicePid, obs::kKernelTrack, layer_start,
           device.trace_cycles() - layer_start, l, obs::InternName("level")});
    }

    // Recover original ids while copying the layer into the result graph.
    graph::ProximityGraph& layer = result.layer(l);
    std::vector<graph::ProximityGraph::Edge> row;
    for (std::size_t s = 0; s < n_l; ++s) {
      const auto ids = layer_result.graph.Neighbors(static_cast<VertexId>(s));
      const auto dists =
          layer_result.graph.NeighborDists(static_cast<VertexId>(s));
      const std::size_t degree =
          layer_result.graph.Degree(static_cast<VertexId>(s));
      std::vector<graph::Neighbor> mapped(degree);
      for (std::size_t i = 0; i < degree; ++i) {
        mapped[i] = {dists[i], shuffled_to_original[ids[i]]};
      }
      // Re-sort: mapping changes the id tiebreaker order.
      std::sort(mapped.begin(), mapped.end());
      row.clear();
      for (const graph::Neighbor& m : mapped) row.push_back({m.id, m.dist});
      layer.SetNeighbors(shuffled_to_original[s], row);
    }
  }

  result.set_entry(shuffled_to_original[0]);  // highest-level vertex
  GpuHnswBuildResult out{std::move(result), sim_seconds, timer.Seconds()};
  return out;
}

}  // namespace core
}  // namespace ganns
