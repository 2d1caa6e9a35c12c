#ifndef GANNS_SONG_SONG_SEARCH_H_
#define GANNS_SONG_SONG_SEARCH_H_

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
#include "song/visited.h"

namespace ganns {
namespace song {

/// SONG search parameters. `queue_size` is the capacity of both the
/// candidate min-max heap C and the result max-heap N; it is SONG's
/// accuracy/throughput knob (the priority-queue budget swept in Figure 6).
/// `visited` selects the visited-vertex structure (§III-A design space);
/// the default is the one SONG ships.
struct SongParams {
  std::size_t k = 10;
  std::size_t queue_size = 64;
  VisitedKind visited = VisitedKind::kHashBounded;
};

/// The three stages of SONG's search iteration (§II-D), indexed in
/// execution order: candidates locating + visited maintenance on the host
/// lane, warp-parallel bulk distance computation, candidate-queue update.
inline constexpr int kNumSongStages = 3;

/// Short stage label ("locate_update", "distance", "queue_update").
const char* SongStageName(int stage);

/// Per-query execution record, mirroring core::GannsQueryProfile so the
/// profiling CLI and Figure 7 bench treat both algorithms uniformly: the
/// search counters plus cycle snapshots taken around each stage. Recording
/// never changes the charged totals.
struct SongQueryProfile {
  std::uint32_t hops = 0;  ///< search iterations (popped candidates)
  std::uint32_t distance_computations = 0;
  std::uint32_t host_ops = 0;  ///< serial heap/hash operations on the host lane
  double total_cycles = 0;
  std::array<double, kNumSongStages> stage_cycles{};
};

/// Runs SONG's three-stage search (§II-D) for one query inside one simulated
/// thread block: (1) candidates locating and data-structure maintenance on a
/// single host lane, (2) warp-parallel bulk distance computation,
/// (3) host-lane candidate-queue update. Returns up to k neighbors sorted
/// ascending by (dist, id); a non-null `profile` receives the query's
/// SongQueryProfile.
std::vector<graph::Neighbor> SongSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const SongParams& params, VertexId entry,
    SongQueryProfile* profile = nullptr, const graph::SearchContext& ctx = {});

/// Batched SONG search: one thread block per query (inter-block
/// parallelism), `block_lanes` cooperating threads per block. When
/// `profiles` is non-null it is resized to one SongQueryProfile per query.
graph::BatchSearchResult SongSearchBatch(
    gpusim::Device& device, const graph::ProximityGraph& graph,
    const data::Dataset& base, const data::Dataset& queries,
    const SongParams& params, int block_lanes = 32, VertexId entry = 0,
    std::vector<SongQueryProfile>* profiles = nullptr,
    const graph::SearchContext& ctx = {});

}  // namespace song
}  // namespace ganns

#endif  // GANNS_SONG_SONG_SEARCH_H_
