#ifndef GANNS_CORE_GANNS_SEARCH_H_
#define GANNS_CORE_GANNS_SEARCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "gpusim/block.h"
#include "gpusim/device.h"
#include "graph/beam_search.h"
#include "graph/proximity_graph.h"
#include "graph/search_result.h"

namespace ganns {
namespace core {

/// GANNS search parameters (§III-B).
struct GannsParams {
  /// Number of returned nearest neighbors.
  std::size_t k = 10;
  /// Length of the result/candidate array N. Must be a power of two (the
  /// paper: "we set l_n to the power of 2 for ease of GPU memory
  /// management") and >= k. Plays the role of the beam budget.
  std::size_t l_n = 64;
  /// Number of leading entries of N considered for exploration — the
  /// fine-grained efficiency/accuracy knob `e` of §V. 0 means l_n.
  std::size_t e = 0;
  /// When true, phase (4) is skipped entirely: vertices are never checked
  /// against N before the merge, so a vertex can re-enter N and be
  /// re-explored. Exists only for the lazy-check ablation bench; the paper's
  /// algorithm always runs the check.
  bool disable_lazy_check = false;

  std::size_t EffectiveE() const {
    return e == 0 || e > l_n ? l_n : e;
  }
};

/// The six phases of Figure 3, indexed in execution order.
inline constexpr int kNumGannsPhases = 6;

/// Short phase label ("locate", "explore", ...) for reports and traces.
const char* GannsPhaseName(int phase);

/// Per-query execution record: the search counters plus, for the phase
/// breakdown, cycle snapshots taken around each phase. Snapshotting reads
/// state the simulator maintains anyway, so profiling never changes the
/// charged totals.
struct GannsQueryProfile {
  std::uint32_t hops = 0;  ///< explored vertices (search iterations)
  std::uint32_t distance_computations = 0;
  /// Distance computations for vertices that were already present in N when
  /// lazily checked — the redundancy the lazy strategy trades for
  /// hash-table-free operation (§III-A).
  std::uint32_t redundant_distances = 0;
  /// Valid entries of the result array N at termination (<= l_n) — the
  /// candidate-buffer occupancy.
  std::uint32_t result_occupancy = 0;
  double total_cycles = 0;
  std::array<double, kNumGannsPhases> phase_cycles{};
};

/// Runs the GANNS 6-phase search (Figure 3) for one query inside one
/// simulated thread block:
///   (1) candidate locating via __ballot_sync / __ffs over N's explored
///       flags, (2) neighborhood exploration into T, (3) warp-parallel bulk
///   distance computation, (4) lazy check of T against N by parallel binary
///   search, (5) bitonic sort of T, (6) bitonic merge keeping the l_n
///   closest of T ∪ N.
/// Returns up to k neighbors sorted ascending by (dist, id); a non-null
/// `profile` receives the query's GannsQueryProfile.
std::vector<graph::Neighbor> GannsSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry,
    GannsQueryProfile* profile = nullptr,
    const graph::SearchContext& ctx = {});

/// Batched GANNS search: one thread block per query, `block_lanes`
/// cooperating threads per block. When `profiles` is non-null it is resized
/// to one GannsQueryProfile per query (indexed by query id).
graph::BatchSearchResult GannsSearchBatch(
    gpusim::Device& device, const graph::ProximityGraph& graph,
    const data::Dataset& base, const data::Dataset& queries,
    const GannsParams& params, int block_lanes = 32, VertexId entry = 0,
    std::vector<GannsQueryProfile>* profiles = nullptr,
    const graph::SearchContext& ctx = {});

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_GANNS_SEARCH_H_
