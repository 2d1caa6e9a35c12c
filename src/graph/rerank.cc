#include "graph/rerank.h"

#include <algorithm>

#include "data/distance.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace graph {

std::size_t ExactRerank(const data::Dataset& base,
                        std::span<const float> query,
                        std::vector<Neighbor>& candidates, std::size_t k,
                        std::size_t rerank_factor) {
  const std::size_t pool = std::min(
      candidates.size(), std::max(k, rerank_factor * k));
  candidates.resize(pool);
  if (pool > 0) {
    std::vector<VertexId> ids(pool);
    for (std::size_t i = 0; i < pool; ++i) ids[i] = candidates[i].id;
    std::vector<Dist> dists(pool);
    data::DistanceMany(base, ids, query, dists);
    for (std::size_t i = 0; i < pool; ++i) candidates[i].dist = dists[i];
    std::sort(candidates.begin(), candidates.end());
  }
  if (candidates.size() > k) candidates.resize(k);
  if (obs::MetricsEnabled()) {
    auto& registry = obs::MetricsRegistry::Global();
    registry.GetHdr("quantize.rerank_candidates").Record(pool);
    registry.GetCounter("quantize.rerank_distance_evals").Add(pool);
  }
  return pool;
}

std::size_t FinishResults(const ProximityGraph& graph,
                          const data::Dataset& base,
                          std::span<const float> query,
                          const data::QueryDistance& dist,
                          std::vector<Neighbor>& found, std::size_t k) {
  // The branch is never taken on an unmutated graph.
  if (graph.HasTombstones()) {
    std::erase_if(found,
                  [&](const Neighbor& n) { return !graph.IsLive(n.id); });
  }
  const std::size_t evals =
      dist.quantized()
          ? ExactRerank(base, query, found, k, dist.rerank_factor())
          : 0;
  if (found.size() > k) found.resize(k);
  return evals;
}

}  // namespace graph
}  // namespace ganns
