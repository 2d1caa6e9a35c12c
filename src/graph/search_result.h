#ifndef GANNS_GRAPH_SEARCH_RESULT_H_
#define GANNS_GRAPH_SEARCH_RESULT_H_

#include <vector>

#include "common/logging.h"
#include "common/types.h"
#include "data/dataset.h"
#include "gpusim/device.h"
#include "graph/beam_search.h"

namespace ganns {
namespace graph {

/// Outcome of one batched GPU search (one thread block per query): per-query
/// result ids plus the launch's simulated timing, from which the paper's
/// "Queries Per Second" metric is derived.
struct BatchSearchResult {
  /// results[q] holds up to k neighbor ids of query q, ascending by distance.
  std::vector<std::vector<VertexId>> results;
  /// Stats of the single kernel launch that processed the batch.
  gpusim::KernelStats kernel;
  /// Simulated batch duration in seconds at the device clock.
  double sim_seconds = 0;
  /// Completed queries per simulated second (Figure 6's y-axis).
  double qps = 0;
};

/// Launch-and-collect behind every batched GPU search: one thread block per
/// query of `queries`, `block_lanes` lanes each, named `kernel` in traces.
/// `search_one(block, q)` runs query q inside its block and returns its
/// neighbors; their ids land in results[q], and the launch's cycles give
/// sim_seconds and qps.
template <typename SearchOne>
BatchSearchResult LaunchSearchBatch(gpusim::Device& device, const char* kernel,
                                    const data::Dataset& base,
                                    const data::Dataset& queries,
                                    int block_lanes,
                                    const SearchOne& search_one) {
  GANNS_CHECK(base.dim() == queries.dim());
  BatchSearchResult batch;
  batch.results.resize(queries.size());
  batch.kernel = device.Launch(
      kernel, static_cast<int>(queries.size()), block_lanes,
      [&](gpusim::BlockContext& block) {
        const VertexId q = static_cast<VertexId>(block.block_id());
        const std::vector<Neighbor> found = search_one(block, q);
        std::vector<VertexId>& out = batch.results[q];
        out.reserve(found.size());
        for (const Neighbor& n : found) out.push_back(n.id);
      });
  batch.sim_seconds = device.CyclesToSeconds(batch.kernel.sim_cycles);
  batch.qps = batch.sim_seconds > 0
                  ? static_cast<double>(queries.size()) / batch.sim_seconds
                  : 0;
  return batch;
}

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_SEARCH_RESULT_H_
