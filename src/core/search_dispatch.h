#ifndef GANNS_CORE_SEARCH_DISPATCH_H_
#define GANNS_CORE_SEARCH_DISPATCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "gpusim/block.h"
#include "graph/beam_search.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace core {

/// Which search kernel a construction algorithm embeds — the paper's
/// GGraphCon_GANNS vs GGraphCon_SONG distinction (§V-B) — or, for the
/// serving engine, which kernel answers online queries. kBeam is the CPU
/// reference beam search (Algorithm 1) run on the host lane; it exists so
/// the serving layer can fall back to a simulator-free engine.
enum class SearchKernel {
  kGanns,
  kSong,
  kBeam,
};

/// Human-readable kernel name ("GANNS" / "SONG") for benchmark tables.
const char* SearchKernelName(SearchKernel kernel);

/// Runs one k-NN search inside `block` with the selected kernel.
/// `budget` is the beam width: GANNS uses l_n = NextPow2(max(budget, k)),
/// SONG uses queue_size = max(budget, k), so both kernels get the same
/// candidate-pool size during construction. `ctx` is handed to the kernel
/// unchanged.
std::vector<graph::Neighbor> DispatchSearch(
    gpusim::BlockContext& block, SearchKernel kernel,
    const graph::ProximityGraph& graph, const data::Dataset& base,
    std::span<const float> query, std::size_t k, std::size_t budget,
    VertexId entry, const graph::SearchContext& ctx = {});

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_SEARCH_DISPATCH_H_
