#include "core/eager_search.h"

#include "common/logging.h"
#include "common/scratch.h"
#include "data/query_distance.h"
#include "gpusim/bitonic.h"
#include "graph/rerank.h"

namespace ganns {
namespace core {
namespace {

struct Slot {
  Dist dist = kInfDist;
  VertexId id = kInvalidVertex;
  bool explored = true;
};

bool SlotLess(const Slot& a, const Slot& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

}  // namespace

std::vector<graph::Neighbor> EagerSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry) {
  GANNS_CHECK(params.k >= 1);
  GANNS_CHECK(params.l_n >= params.k);
  GANNS_CHECK_MSG((params.l_n & (params.l_n - 1)) == 0,
                  "l_n must be a power of two, got " << params.l_n);
  GANNS_CHECK(entry < graph.num_vertices());
  gpusim::Warp& warp = block.warp();

  const std::size_t l_n = params.l_n;
  const std::size_t e = params.EffectiveE();
  std::span<Slot> result_array = block.AllocShared<Slot>(l_n);

  const data::QueryDistance dist(base, query);

  // Eager sorted-array insertion: binary search for the slot, then shift
  // the tail one position right (lane-parallel over l_n / n_t steps per
  // element — the cost the lazy batch amortizes away). Returns false when
  // the element was already present or falls off the end.
  const auto insert_eagerly = [&](const Slot& element) {
    warp.ChargeBinarySearch(1, l_n, gpusim::CostCategory::kDataStructure);
    std::size_t lo = 0;
    std::size_t hi = l_n;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (SlotLess(result_array[mid], element)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == l_n) return false;
    if (result_array[lo].id == element.id &&
        result_array[lo].dist == element.dist) {
      return false;  // duplicate: the eager binary search doubles as check
    }
    for (std::size_t i = l_n - 1; i > lo; --i) {
      result_array[i] = result_array[i - 1];
    }
    result_array[lo] = element;
    warp.cost().Charge(gpusim::CostCategory::kDataStructure,
                       warp.StepsFor(l_n - lo) *
                           2 * warp.params().shared_access);
    return true;
  };

  warp.ChargeDistance(dist.words());
  result_array[0] = Slot{dist.One(entry), entry, false};

  const std::size_t max_iterations = l_n * 64;
  for (std::size_t iterations = 0; iterations < max_iterations;
       ++iterations) {
    // Candidate locating: identical ballot scan to the lazy kernel.
    std::size_t explore_pos = e;
    for (std::size_t chunk = 0; chunk < e; chunk += gpusim::kWarpSize) {
      const int width = static_cast<int>(
          chunk + gpusim::kWarpSize <= e ? gpusim::kWarpSize : e - chunk);
      const std::uint32_t mask = warp.BallotSync(width, [&](int lane) {
        const Slot& slot = result_array[chunk + lane];
        return slot.id != kInvalidVertex && !slot.explored;
      });
      if (mask != 0) {
        explore_pos = chunk + static_cast<std::size_t>(gpusim::Warp::Ffs(mask));
        break;
      }
    }
    if (explore_pos == e) break;

    const VertexId exploring = result_array[explore_pos].id;
    result_array[explore_pos].explored = true;
    warp.ChargeGlobalLoad(graph.d_max(), gpusim::CostCategory::kDataStructure);
    const auto neighbor_ids = graph.Neighbors(exploring);
    const std::size_t degree = graph.Degree(exploring);

    // Bulk distance in one call, then immediate insertion one neighbor at a
    // time (the eager variant's defining cost).
    if (degree > 0) {
      SearchScratch& scratch = ThreadLocalSearchScratch();
      scratch.dists.resize(degree);
      dist.Many(neighbor_ids.subspan(0, degree), scratch.dists);
      for (std::size_t i = 0; i < degree; ++i) {
        warp.ChargeDistance(dist.words());
        insert_eagerly(Slot{scratch.dists[i], neighbor_ids[i], false});
      }
    }
  }

  std::vector<graph::Neighbor> out;
  out.reserve(l_n);
  for (std::size_t i = 0; i < l_n && result_array[i].id != kInvalidVertex;
       ++i) {
    out.push_back({result_array[i].dist, result_array[i].id});
  }
  graph::FinishResults(graph, base, query, dist, out, params.k);
  warp.cost().Charge(gpusim::CostCategory::kOther,
                     warp.StepsFor(params.k) * warp.params().global_transaction);
  return out;
}

graph::BatchSearchResult EagerSearchBatch(gpusim::Device& device,
                                          const graph::ProximityGraph& graph,
                                          const data::Dataset& base,
                                          const data::Dataset& queries,
                                          const GannsParams& params,
                                          int block_lanes, VertexId entry) {
  return graph::LaunchSearchBatch(
      device, "eager_search", base, queries, block_lanes,
      [&](gpusim::BlockContext& block, VertexId q) {
        return EagerSearchOne(block, graph, base, queries.Point(q), params,
                              entry);
      });
}

}  // namespace core
}  // namespace ganns
