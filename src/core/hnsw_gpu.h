#ifndef GANNS_CORE_HNSW_GPU_H_
#define GANNS_CORE_HNSW_GPU_H_

#include "core/ggraphcon.h"
#include "graph/hnsw.h"

namespace ganns {
namespace core {

/// Graph family an index is built as.
enum class GraphKind {
  kNsw,   ///< flat navigable-small-world graph (the paper's default)
  kHnsw,  ///< hierarchical NSW: greedy descent picks the layer-0 entry
};

/// Result of a GPU HNSW build.
struct GpuHnswBuildResult {
  graph::HnswGraph graph;
  double sim_seconds = 0;
  double wall_seconds = 0;
};

/// GGraphCon extended to HNSW graphs (§IV-D): the graph is built
/// level-by-level, each layer an NSW graph over the points whose sampled
/// level reaches it.
///
/// The paper's id-shuffle trick is implemented literally: vertex ids are
/// permuted so that ids sort by descending level, making every layer a
/// contiguous id prefix [0, n_l). Each layer is then built by the NSW
/// GGraphCon over that prefix of the permuted corpus — adjacency lists are
/// addressable by vertex id with no per-layer index — and ids are mapped
/// back to the original numbering afterwards ("vertex IDs are recovered
/// based on the stored mapping after construction").
GpuHnswBuildResult BuildHnswGGraphCon(gpusim::Device& device,
                                      const data::Dataset& base,
                                      const graph::HnswParams& hnsw_params,
                                      const GpuBuildParams& gpu_params);

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_HNSW_GPU_H_
