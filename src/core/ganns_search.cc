#include "core/ganns_search.h"

#include <algorithm>

#include "common/logging.h"
#include "common/scratch.h"
#include "data/query_distance.h"
#include "gpusim/bitonic.h"
#include "graph/rerank.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace core {
namespace {

constexpr const char* kPhaseNames[kNumGannsPhases] = {
    "locate", "explore", "distance", "lazy_check", "sort", "merge"};

/// Cycle-snapshot phase timer for one GannsSearchOne call. Inactive unless
/// the caller wants a profile or the launch is tracing; active it reads the
/// block's running charge total around each phase — observation only, the
/// totals themselves are untouched.
class PhaseTimer {
 public:
  PhaseTimer(gpusim::BlockContext& block, bool active)
      : block_(block), active_(active), tracing_(active && block.tracing()) {
    if (tracing_) {
      static const obs::NameId kIds[kNumGannsPhases] = {
          obs::InternName("ganns.locate"),      obs::InternName("ganns.explore"),
          obs::InternName("ganns.distance"),    obs::InternName("ganns.lazy_check"),
          obs::InternName("ganns.sort"),        obs::InternName("ganns.merge")};
      ids_ = kIds;
    }
  }

  void Begin() {
    if (active_) begin_ = block_.cost().total_cycles();
  }

  void End(int phase) {
    if (!active_) return;
    const double now = block_.cost().total_cycles();
    phase_cycles_[phase] += now - begin_;
    if (tracing_ && now > begin_) {
      block_.TraceSpan(ids_[phase], begin_, now);
    }
    begin_ = now;
  }

  const std::array<double, kNumGannsPhases>& phase_cycles() const {
    return phase_cycles_;
  }

 private:
  gpusim::BlockContext& block_;
  bool active_;
  bool tracing_;
  const obs::NameId* ids_ = nullptr;
  double begin_ = 0;
  std::array<double, kNumGannsPhases> phase_cycles_{};
};

/// One element of the fixed-length arrays N and T: distance to the query,
/// vertex id, and the explored flag of §III-B. Sentinel slots carry
/// (kInfDist, kInvalidVertex, explored=true) so they sort to the tail and
/// are never selected for exploration.
struct Slot {
  Dist dist = kInfDist;
  VertexId id = kInvalidVertex;
  bool explored = true;
};

constexpr Slot kSentinelSlot{};

/// (dist, id) order: the lazy check's lookup key. It ignores the explored
/// flag, so the explored copy of a vertex in N still matches its probe.
bool VertexLess(const Slot& a, const Slot& b) {
  if (a.dist != b.dist) return a.dist < b.dist;
  return a.id < b.id;
}

bool SameVertex(const Slot& a, const Slot& b) {
  return a.dist == b.dist && a.id == b.id;
}

/// Strict total order by (dist, id, explored), explored first — the sort key
/// of phases (5)/(6). The paper sorts on (dist, id) with the explored flag
/// riding along; the flag as last key makes ties identical, which the host
/// sort and merge need to reproduce the network's output.
bool SlotLess(const Slot& a, const Slot& b) {
  if (!SameVertex(a, b)) return VertexLess(a, b);
  return a.explored && !b.explored;
}

/// Host side of phases (4)-(6), step one: compacts to the front of `t` the
/// entries that can enter `n` and returns their count. An entry not below
/// n's last slot cannot enter; with `lazy_check`, one whose (dist, id) is
/// already in `n` is a redundant computation — counted and dropped.
std::size_t FilterCandidates(std::span<const Slot> n, std::span<Slot> t,
                             bool lazy_check, std::uint32_t& redundant) {
  const Slot& last = n.back();
  std::size_t kept = 0;
  for (const Slot& probe : t) {
    const bool enters = SlotLess(probe, last);
    if (lazy_check) {
      const Slot& hit =
          enters ? *std::lower_bound(n.begin(), n.end(), probe, VertexLess)
                 : last;
      if (SameVertex(hit, probe)) {
        ++redundant;
        continue;
      }
    }
    if (enters) t[kept++] = probe;
  }
  return kept;
}

}  // namespace

const char* GannsPhaseName(int phase) {
  GANNS_CHECK(phase >= 0 && phase < kNumGannsPhases);
  return kPhaseNames[phase];
}

std::vector<graph::Neighbor> GannsSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const GannsParams& params, VertexId entry, GannsQueryProfile* profile,
    const graph::SearchContext& ctx) {
  GANNS_CHECK(params.k >= 1);
  GANNS_CHECK(params.l_n >= params.k);
  GANNS_CHECK_MSG((params.l_n & (params.l_n - 1)) == 0,
                  "l_n must be a power of two, got " << params.l_n);
  GANNS_CHECK(entry < graph.num_vertices());
  gpusim::Warp& warp = block.warp();
  GannsQueryProfile local;

  const std::size_t l_n = params.l_n;
  const std::size_t l_t = gpusim::NextPow2(graph.d_max());
  const std::size_t e = params.EffectiveE();

  // Shared-memory arrays (§III-B "Data Structures and Memory Allocation"):
  // N holds the top results and potential exploring vertices, T the visiting
  // vertices of the current iteration.
  std::span<Slot> result_array = block.AllocShared<Slot>(l_n);    // N
  std::span<Slot> visiting = block.AllocShared<Slot>(l_t);        // T
  // The merge network's buffer. The host merges in place, but the device
  // kernel holds it, so it counts against the shared-memory limit.
  block.AllocShared<Slot>(2 * gpusim::NextPow2(std::max(l_n, l_t)));

  // Float rows or packed codes (narrower loads); a PQ LUT is built — and
  // charged — once per query up front.
  const data::QueryDistance dist(base, query, ctx.quant);
  warp.ChargeLutBuild(dist.lut_build_words());

  warp.ChargeDistance(dist.words());
  ++local.distance_computations;
  result_array[0] = Slot{dist.One(entry), entry, false};
  if (ctx.hardness != nullptr) {
    ctx.hardness->entry_distance = result_array[0].dist;
  }

  PhaseTimer phases(block, profile != nullptr || block.tracing());

  // Safety bound: every iteration explores one unexplored slot of N and a
  // vertex can only be re-explored when the ablation disables the lazy
  // check, so l_n * 64 is far beyond any legitimate run.
  const std::size_t max_iterations = l_n * 64;
  while (local.hops < max_iterations) {
    phases.Begin();
    // Phase (1): candidate locating. Warp-wide ballot over the explored
    // flags of N[0..e), __ffs picks the first unexplored vertex.
    std::size_t explore_pos = e;
    for (std::size_t chunk = 0; chunk < e; chunk += gpusim::kWarpSize) {
      const int n = static_cast<int>(
          chunk + gpusim::kWarpSize <= e ? gpusim::kWarpSize : e - chunk);
      const std::uint32_t mask = warp.BallotSync(n, [&](int lane) {
        const Slot& slot = result_array[chunk + lane];
        return slot.id != kInvalidVertex && !slot.explored;
      });
      if (mask != 0) {
        explore_pos = chunk + static_cast<std::size_t>(gpusim::Warp::Ffs(mask));
        break;
      }
    }
    if (explore_pos == e) {
      phases.End(0);
      break;  // all candidates explored: terminate
    }
    phases.End(0);
    ++local.hops;

    // Phase (2): neighborhood exploration. Load the adjacency row of the
    // exploring vertex into T cooperatively; mark it explored.
    const VertexId exploring = result_array[explore_pos].id;
    result_array[explore_pos].explored = true;
    warp.ChargeGlobalLoad(graph.d_max(), gpusim::CostCategory::kDataStructure);
    const auto neighbor_ids = graph.Neighbors(exploring);
    const std::size_t degree = graph.Degree(exploring);
    if (ctx.hardness != nullptr && local.hops == 1) {
      ctx.hardness->early_fanout = static_cast<std::uint32_t>(degree);
    }
    warp.ParallelFor(l_t, gpusim::CostCategory::kDataStructure,
                     warp.params().shared_access, [&](std::size_t i) {
                       visiting[i] = i < degree
                                         ? Slot{0.0f, neighbor_ids[i], false}
                                         : kSentinelSlot;
                     });
    phases.End(1);

    // Phase (3): bulk distance computation, one vertex of T at a time with
    // every lane of the warp cooperating (sub-vector per lane +
    // __shfl_down_sync reduction). The host computes the whole batch in one
    // call; the simulated cost is charged per vertex.
    if (degree > 0) {
      SearchScratch& scratch = ThreadLocalSearchScratch();
      scratch.ids.clear();
      for (std::size_t i = 0; i < degree; ++i) {
        scratch.ids.push_back(visiting[i].id);
      }
      scratch.dists.resize(degree);
      dist.Many(scratch.ids, scratch.dists);
      for (std::size_t i = 0; i < degree; ++i) {
        warp.ChargeDistance(dist.words());
        ++local.distance_computations;
        visiting[i].dist = scratch.dists[i];
      }
    }
    phases.End(2);

    // Phases (4)-(6) on the device: (4) lazy check, a parallel binary search
    // of each visiting vertex in the sorted array N — a hit means its
    // distance was re-computed redundantly, and the slot is dropped;
    // (5) bitonic sort of T by (dist, id, explored); (6) bitonic merge
    // keeping the l_n closest of T ∪ N in N. A vertex that was explored and
    // later discarded from N can never re-enter: the l_n-th distance of N
    // only decreases.
    // Each phase charges its network's schedule between its own timer
    // boundaries, so profiles and traces keep the device split. The host
    // then does all three in one pass over the T entries that can enter N:
    // filter and dedupe, sort the survivors, merge them into N from the
    // first insertion point.
    if (!params.disable_lazy_check) {
      warp.ChargeBinarySearch(degree, l_n,
                              gpusim::CostCategory::kDataStructure);
    }
    phases.End(3);
    gpusim::ChargeBitonicSort(warp, l_t, gpusim::CostCategory::kDataStructure);
    phases.End(4);
    gpusim::ChargeMergeKeepFirst(warp, l_n, l_t,
                                 gpusim::CostCategory::kDataStructure);
    const std::size_t kept =
        FilterCandidates(result_array, visiting.first(degree),
                         !params.disable_lazy_check, local.redundant_distances);
    std::sort(visiting.begin(), visiting.begin() + kept, SlotLess);
    gpusim::MergeKeepFirstInPlace(
        result_array, std::span<const Slot>(visiting.first(kept)), SlotLess);
    phases.End(5);
  }

  // Result write-back: the valid entries of N (already sorted) go through
  // the shared filter / rerank / truncate; rerank distances are full-width
  // reads, charged like any exact distance.
  std::vector<graph::Neighbor> out;
  out.reserve(l_n);
  for (std::size_t i = 0; i < l_n && result_array[i].id != kInvalidVertex;
       ++i) {
    out.push_back({result_array[i].dist, result_array[i].id});
  }
  const std::size_t evals =
      graph::FinishResults(graph, base, query, dist, out, params.k);
  for (std::size_t i = 0; i < evals; ++i) warp.ChargeDistance(base.dim());
  local.distance_computations += static_cast<std::uint32_t>(evals);
  warp.cost().Charge(gpusim::CostCategory::kOther,
                     warp.StepsFor(params.k) * warp.params().global_transaction);
  if (ctx.hardness != nullptr) {
    ctx.hardness->visited = local.distance_computations;
    ctx.hardness->budget = static_cast<std::uint32_t>(l_n);
  }

  if (profile != nullptr) {
    for (std::size_t i = 0; i < l_n; ++i) {
      if (result_array[i].id != kInvalidVertex) ++local.result_occupancy;
    }
    local.total_cycles = block.cost().total_cycles();
    local.phase_cycles = phases.phase_cycles();
    *profile = local;
  }
  return out;
}

graph::BatchSearchResult GannsSearchBatch(gpusim::Device& device,
                                          const graph::ProximityGraph& graph,
                                          const data::Dataset& base,
                                          const data::Dataset& queries,
                                          const GannsParams& params,
                                          int block_lanes, VertexId entry,
                                          std::vector<GannsQueryProfile>* profiles,
                                          const graph::SearchContext& ctx) {
  // Metrics want per-query numbers even when the caller did not ask for
  // profiles; collect into a local vector in that case.
  std::vector<GannsQueryProfile> metrics_profiles;
  if (profiles == nullptr && obs::MetricsEnabled()) {
    profiles = &metrics_profiles;
  }
  if (profiles != nullptr) {
    profiles->assign(queries.size(), GannsQueryProfile{});
  }

  graph::BatchSearchResult batch = graph::LaunchSearchBatch(
      device, "ganns_search", base, queries, block_lanes,
      [&](gpusim::BlockContext& block, VertexId q) {
        return GannsSearchOne(block, graph, base, queries.Point(q), params,
                              entry,
                              profiles != nullptr ? &(*profiles)[q] : nullptr,
                              ctx.ForQuery(q));
      });

  if (obs::MetricsEnabled() && profiles != nullptr) {
    auto& registry = obs::MetricsRegistry::Global();
    obs::HdrHistogram& hops = registry.GetHdr("ganns.hops_per_query");
    obs::HdrHistogram& dists = registry.GetHdr("ganns.dist_evals_per_query");
    obs::HdrHistogram& occupancy = registry.GetHdr("ganns.result_occupancy");
    for (const GannsQueryProfile& p : *profiles) {
      hops.Record(p.hops);
      dists.Record(p.distance_computations);
      occupancy.Record(p.result_occupancy);
    }
    registry.GetCounter("ganns.queries").Add(queries.size());
    registry.GetCounter("ganns.redundant_distances")
        .Add([&] {
          std::uint64_t total = 0;
          for (const GannsQueryProfile& p : *profiles)
            total += p.redundant_distances;
          return total;
        }());
  }
  return batch;
}

}  // namespace core
}  // namespace ganns
