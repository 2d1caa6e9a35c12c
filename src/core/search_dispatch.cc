#include "core/search_dispatch.h"

#include "core/ganns_search.h"
#include "gpusim/bitonic.h"
#include "song/song_search.h"

namespace ganns {
namespace core {

const char* SearchKernelName(SearchKernel kernel) {
  switch (kernel) {
    case SearchKernel::kGanns:
      return "GANNS";
    case SearchKernel::kSong:
      return "SONG";
    case SearchKernel::kBeam:
      return "beam";
  }
  return "?";
}

std::vector<graph::Neighbor> DispatchSearch(
    gpusim::BlockContext& block, SearchKernel kernel,
    const graph::ProximityGraph& graph, const data::Dataset& base,
    std::span<const float> query, std::size_t k, std::size_t budget,
    VertexId entry, const graph::SearchContext& ctx) {
  if (budget < k) budget = k;
  if (kernel == SearchKernel::kGanns) {
    GannsParams params;
    params.k = k;
    params.l_n = gpusim::NextPow2(budget);
    return GannsSearchOne(block, graph, base, query, params, entry, nullptr,
                          ctx);
  }
  if (kernel == SearchKernel::kBeam) {
    return graph::BeamSearch(graph, base, query, k, budget, entry, nullptr,
                             kInvalidVertex, ctx);
  }
  song::SongParams params;
  params.k = k;
  params.queue_size = budget;
  return song::SongSearchOne(block, graph, base, query, params, entry,
                             nullptr, ctx);
}

}  // namespace core
}  // namespace ganns
