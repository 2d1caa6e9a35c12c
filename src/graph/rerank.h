#ifndef GANNS_GRAPH_RERANK_H_
#define GANNS_GRAPH_RERANK_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/query_distance.h"
#include "graph/beam_search.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace graph {

/// Second stage of the compressed search path: `candidates` arrive sorted
/// ascending by approximate (code) distance; the top
/// min(|candidates|, max(k, rerank_factor * k)) of them get exact float
/// distances from the base rows, are re-sorted by (dist, id), and the list
/// is truncated to at most k. Emits the quantize.rerank_* metrics and
/// returns the number of exact distance evaluations performed (the caller
/// charges them to the simulated cost model where applicable).
std::size_t ExactRerank(const data::Dataset& base,
                        std::span<const float> query,
                        std::vector<Neighbor>& candidates, std::size_t k,
                        std::size_t rerank_factor);

/// Result write-back shared by GANNS, SONG and the CPU beam search. `found`
/// arrives sorted ascending by traversal distance. Drops tombstoned vertices
/// (they route the walk but are never returned), exact-reranks through
/// ExactRerank when `dist` evaluated codes, and truncates to k. Returns the
/// number of exact evaluations the rerank performed (0 on the exact path);
/// a simulated kernel charges each as a full-width distance.
std::size_t FinishResults(const ProximityGraph& graph,
                          const data::Dataset& base,
                          std::span<const float> query,
                          const data::QueryDistance& dist,
                          std::vector<Neighbor>& found, std::size_t k);

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_RERANK_H_
