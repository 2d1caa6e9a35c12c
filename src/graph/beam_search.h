#ifndef GANNS_GRAPH_BEAM_SEARCH_H_
#define GANNS_GRAPH_BEAM_SEARCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"
#include "data/dataset.h"
#include "graph/proximity_graph.h"
#include "graph/search_context.h"

namespace ganns {
namespace graph {

/// Operation counters for the CPU reference search. The CPU construction
/// baselines convert these into simulated CPU time through CpuCostModel so
/// that CPU-vs-GPU comparisons use one consistent cost basis (see DESIGN.md
/// §1-2).
struct BeamSearchStats {
  std::size_t distance_computations = 0;
  std::size_t heap_ops = 0;   ///< pushes/pops on C and N
  std::size_t hash_ops = 0;   ///< visited-set lookups/inserts
  std::size_t iterations = 0; ///< outer loop trips (vertices popped)

  void Add(const BeamSearchStats& other) {
    distance_computations += other.distance_computations;
    heap_ops += other.heap_ops;
    hash_ops += other.hash_ops;
    iterations += other.iterations;
  }
};

/// One (distance, id) search result.
struct Neighbor {
  Dist dist = kInfDist;
  VertexId id = kInvalidVertex;

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.id < b.id;
  }
  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.dist == b.dist && a.id == b.id;
  }
};

/// CPU beam search on a proximity graph — Algorithm 1 of the paper, with the
/// standard candidate-pool budget `ef >= k` for backtracking (§II-B: "search
/// more nearest neighbors than required"). Maintains a min-heap C of
/// candidates, a bounded max-heap N of the best `ef` results, and a visited
/// set H. Returns up to k results sorted ascending by (dist, id);
/// `restrict_to` (optional) limits traversal to vertex ids < restrict_to,
/// which the construction algorithms use to search the prefix subgraph.
std::vector<Neighbor> BeamSearch(const ProximityGraph& graph,
                                 const data::Dataset& base,
                                 std::span<const float> query, std::size_t k,
                                 std::size_t ef, VertexId entry,
                                 BeamSearchStats* stats = nullptr,
                                 VertexId restrict_to = kInvalidVertex,
                                 const SearchContext& ctx = {});

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_BEAM_SEARCH_H_
