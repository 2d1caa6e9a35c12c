#ifndef GANNS_CORE_MUTATE_H_
#define GANNS_CORE_MUTATE_H_

#include <cstddef>

#include "data/dataset.h"
#include "gpusim/device.h"
#include "graph/proximity_graph.h"
#include "core/search_dispatch.h"

namespace ganns {
namespace core {

/// Parameters of the online insert/delete paths (the index lifecycle built
/// on ProximityGraph; see DESIGN.md "Index lifecycle").
struct UpdateParams {
  /// Edges linked per inserted vertex (the NSW d_min role).
  std::size_t d_min = 16;
  /// Visited budget of the neighbor-selection search.
  std::size_t ef = 64;
  /// Which kernel selects neighbors on the charged device path.
  SearchKernel kernel = SearchKernel::kGanns;
  int block_lanes = 32;
};

/// Outcome of one online update.
struct UpdateResult {
  /// Simulated device seconds charged by this update.
  double sim_seconds = 0;
  /// Insert: forward edges linked. Remove: neighbor rows repaired.
  std::size_t touched = 0;
};

/// Online insert of vertex `v` on the simulated device (charged through the
/// cost model end to end). The caller has already allocated the live slot
/// `v` and written its vector to `base`; `entry` must be a wired vertex
/// other than v. Neighbor selection runs the configured search kernel over
/// the current graph (one block, like a construction search), the selected
/// neighbors become v's forward row, and the reverse direction reuses the
/// GGraphCon merge machinery (GatherScatter + ApplyBackwardEdges) so rows
/// stay sorted, deduplicated, and capped at d_max.
UpdateResult InsertVertex(gpusim::Device& device, graph::ProximityGraph& graph,
                          const data::Dataset& base, VertexId v,
                          VertexId entry, const UpdateParams& params);

/// Online delete of live vertex `v` on the simulated device: tombstone plus
/// local repair. v's row is kept traversable (in-edges from anywhere in the
/// graph may still route through it until compaction) but v leaves every
/// search result immediately. Repair re-links v's neighborhood: each live
/// out-neighbor u drops its u -> v edge and is offered the other members of
/// v's row as replacement candidates through the same backward-edge merge
/// the builders use, so the neighborhood stays mutually connected.
UpdateResult RemoveVertex(gpusim::Device& device, graph::ProximityGraph& graph,
                          const data::Dataset& base, VertexId v,
                          const UpdateParams& params);

}  // namespace core
}  // namespace ganns

#endif  // GANNS_CORE_MUTATE_H_
