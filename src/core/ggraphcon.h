#ifndef GANNS_CORE_GGRAPHCON_H_
#define GANNS_CORE_GGRAPHCON_H_

#include <cstddef>

#include "core/search_dispatch.h"
#include "data/dataset.h"
#include "gpusim/device.h"
#include "graph/cpu_nsw.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace core {

/// Parameters shared by the GPU NSW builders.
struct GpuBuildParams {
  graph::NswParams nsw;
  /// Number of disjoint point groups == thread blocks of the local-graph
  /// construction phase (the grid size swept in Figure 14).
  int num_groups = 64;
  /// Search kernel embedded in the builder (GGraphCon_GANNS vs
  /// GGraphCon_SONG).
  SearchKernel kernel = SearchKernel::kGanns;
  /// Threads per block (n_t).
  int block_lanes = 32;
};

/// Result of a GPU graph build.
struct GpuBuildResult {
  graph::ProximityGraph graph;
  /// Simulated end-to-end device time (sum of all kernel launches).
  double sim_seconds = 0;
  /// Host wall time spent simulating, reference only.
  double wall_seconds = 0;
  /// Work-cycle breakdown for the Figure 14-style analysis.
  double distance_work_cycles = 0;
  double ds_work_cycles = 0;
};

/// GGraphCon — the paper's divide-and-conquer NSW construction
/// (Algorithm 2). Phase 1 builds one local NSW graph per group in parallel
/// (one block each); phase 2 merges groups 1..t into group 0's graph one at
/// a time, each iteration running a parallel re-search of the group against
/// G_0, a forward-edge merge with the saved local neighbors (G'), and the
/// gather-scatter + merge kernels for backward edges. `num_points` limits
/// construction to the id prefix [0, num_points) (used by the HNSW layers);
/// 0 means the whole dataset.
GpuBuildResult BuildNswGGraphCon(gpusim::Device& device,
                                 const data::Dataset& base,
                                 const GpuBuildParams& params,
                                 std::size_t num_points = 0);

/// GSerial — the straightforward sequential GPU baseline (§IV-A): one
/// single-block kernel launch per inserted point. Correct and
/// quality-equivalent to the CPU construction, but wastes the entire device:
/// no inter-block parallelism and a fixed launch overhead per point.
GpuBuildResult BuildNswGSerial(gpusim::Device& device,
                               const data::Dataset& base,
                               const GpuBuildParams& params);

/// GNaiveParallel — the straightforward parallel GPU baseline (§IV-A):
/// inserts points in batches, searching every point of a batch concurrently
/// against the graph of *previous* batches only. Fast, but each point
/// ignores all other points of its own batch, which is exactly the quality
/// loss Figure 12 shows.
GpuBuildResult BuildNswGNaiveParallel(gpusim::Device& device,
                                      const data::Dataset& base,
                                      const GpuBuildParams& params);

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_GGRAPHCON_H_
