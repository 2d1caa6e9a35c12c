#include "graph/beam_search.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "common/scratch.h"
#include "data/query_distance.h"
#include "graph/rerank.h"

namespace ganns {
namespace graph {

std::vector<Neighbor> BeamSearch(const ProximityGraph& graph,
                                 const data::Dataset& base,
                                 std::span<const float> query, std::size_t k,
                                 std::size_t ef, VertexId entry,
                                 BeamSearchStats* stats,
                                 VertexId restrict_to,
                                 const SearchContext& ctx) {
  GANNS_CHECK(k >= 1);
  GANNS_CHECK(entry < graph.num_vertices());
  if (ef < k) ef = k;
  BeamSearchStats local_stats;

  // Float rows or packed codes; on codes the exact rows are only touched by
  // the final rerank.
  const data::QueryDistance dist(base, query, ctx.quant);

  // C: min-heap of candidates (std::*_heap with greater-than comparator).
  // N: max-heap of the best <= ef results so far (worst on top).
  const auto candidate_order = [](const Neighbor& a, const Neighbor& b) {
    return b < a;  // min-heap
  };
  std::vector<Neighbor> candidates;  // C
  std::vector<Neighbor> results;     // N
  // H — recycled across queries on this thread; clear() keeps the bucket
  // array, so steady-state searches allocate nothing here.
  thread_local std::unordered_set<VertexId> visited;
  visited.clear();

  const Neighbor start{dist.One(entry), entry};
  ++local_stats.distance_computations;
  candidates.push_back(start);
  visited.insert(entry);
  ++local_stats.heap_ops;
  ++local_stats.hash_ops;

  while (!candidates.empty()) {
    ++local_stats.iterations;
    // Pop the candidate closest to q.
    std::pop_heap(candidates.begin(), candidates.end(), candidate_order);
    const Neighbor closest = candidates.back();
    candidates.pop_back();
    ++local_stats.heap_ops;

    // Termination: v_c worse than the ef-th best and N is full.
    if (results.size() == ef && !(closest < results.front())) break;

    // Insert v_c into N, evicting the worst when full.
    if (results.size() == ef) {
      std::pop_heap(results.begin(), results.end());
      results.pop_back();
      ++local_stats.heap_ops;
    }
    results.push_back(closest);
    std::push_heap(results.begin(), results.end());
    ++local_stats.heap_ops;

    // Expand unvisited outgoing neighbors: gather them, compute the whole
    // batch in one call, then apply the same insertion filter. `results`
    // does not change within this loop, so batching does not alter which
    // candidates survive.
    const auto neighbor_ids = graph.Neighbors(closest.id);
    const std::size_t degree = graph.Degree(closest.id);
    if (ctx.hardness != nullptr && local_stats.iterations == 1) {
      ctx.hardness->early_fanout = static_cast<std::uint32_t>(degree);
    }
    SearchScratch& scratch = ThreadLocalSearchScratch();
    scratch.ids.clear();
    for (std::size_t i = 0; i < degree; ++i) {
      const VertexId u = neighbor_ids[i];
      if (restrict_to != kInvalidVertex && u >= restrict_to) continue;
      ++local_stats.hash_ops;
      if (!visited.insert(u).second) continue;
      scratch.ids.push_back(u);
    }
    scratch.dists.resize(scratch.ids.size());
    dist.Many(scratch.ids, scratch.dists);
    local_stats.distance_computations += scratch.ids.size();
    for (std::size_t i = 0; i < scratch.ids.size(); ++i) {
      const Neighbor entry_u{scratch.dists[i], scratch.ids[i]};
      // Skip candidates that cannot beat a full result set (SONG's bounded
      // priority-queue optimization; purely a constant-factor saving).
      if (results.size() == ef && !(entry_u < results.front())) continue;
      candidates.push_back(entry_u);
      std::push_heap(candidates.begin(), candidates.end(), candidate_order);
      ++local_stats.heap_ops;
    }
  }

  std::sort(results.begin(), results.end());
  local_stats.distance_computations +=
      FinishResults(graph, base, query, dist, results, k);
  if (stats != nullptr) stats->Add(local_stats);
  if (ctx.hardness != nullptr) {
    ctx.hardness->entry_distance = start.dist;
    ctx.hardness->visited =
        static_cast<std::uint32_t>(local_stats.distance_computations);
    ctx.hardness->budget = static_cast<std::uint32_t>(ef);
  }
  return results;
}

}  // namespace graph
}  // namespace ganns
