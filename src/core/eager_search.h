#ifndef GANNS_CORE_EAGER_SEARCH_H_
#define GANNS_CORE_EAGER_SEARCH_H_

#include "core/ganns_search.h"

namespace ganns {
namespace core {

/// The eager-update counterfactual to GANNS's lazy strategy (§III-A):
/// identical traversal and data layout (sorted array N, staging array T),
/// but every visiting vertex is inserted into N *immediately* — a binary
/// search for its position followed by a lane-parallel shift of the array
/// tail — instead of being batched through the bitonic sort + merge.
///
/// This is what porting the CPU paradigm's "insert each neighbor into the
/// candidate structure as you see it" to a data-parallel array looks like:
/// each of the d_max insertions pays O(log l_n + l_n / n_t) on its own,
/// where the lazy pipeline amortizes one O((log^2 l_t + log l_n) * l_t/n_t)
/// batch over all of them. Results are identical to GannsSearchOne (same
/// vertices, same order); only the charged data-structure cost differs —
/// exactly the quantity the ablation bench contrasts.
std::vector<graph::Neighbor> EagerSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry);

/// Batched variant (one block per query), mirroring GannsSearchBatch.
graph::BatchSearchResult EagerSearchBatch(gpusim::Device& device,
                                          const graph::ProximityGraph& graph,
                                          const data::Dataset& base,
                                          const data::Dataset& queries,
                                          const GannsParams& params,
                                          int block_lanes = 32,
                                          VertexId entry = 0);

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_EAGER_SEARCH_H_
