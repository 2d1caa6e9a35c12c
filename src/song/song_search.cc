#include "song/song_search.h"

#include "common/logging.h"
#include "data/query_distance.h"
#include "graph/rerank.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "song/bounded_max_heap.h"
#include "song/minmax_heap.h"
#include "song/open_hash.h"

namespace ganns {
namespace song {
namespace {

constexpr const char* kStageNames[kNumSongStages] = {"locate_update",
                                                     "distance",
                                                     "queue_update"};

/// Cycle-snapshot stage timer, the SONG twin of core's PhaseTimer. Reads the
/// block's running charge total around each stage; observation only.
class StageTimer {
 public:
  StageTimer(gpusim::BlockContext& block, bool active)
      : block_(block), active_(active), tracing_(active && block.tracing()) {
    if (tracing_) {
      static const obs::NameId kIds[kNumSongStages] = {
          obs::InternName("song.locate_update"), obs::InternName("song.distance"),
          obs::InternName("song.queue_update")};
      ids_ = kIds;
    }
  }

  void Begin() {
    if (active_) begin_ = block_.cost().total_cycles();
  }

  void End(int stage) {
    if (!active_) return;
    const double now = block_.cost().total_cycles();
    stage_cycles_[stage] += now - begin_;
    if (tracing_ && now > begin_) {
      block_.TraceSpan(ids_[stage], begin_, now);
    }
    begin_ = now;
  }

  const std::array<double, kNumSongStages>& stage_cycles() const {
    return stage_cycles_;
  }

 private:
  gpusim::BlockContext& block_;
  bool active_;
  bool tracing_;
  const obs::NameId* ids_ = nullptr;
  double begin_ = 0;
  std::array<double, kNumSongStages> stage_cycles_{};
};

/// Per-thread recycled search state: the C and N heaps are re-armed per
/// query instead of reallocated. The visited structure is still built per
/// query — its kind and extent are per-call parameters and (for the bitmap
/// variant) clearing costs the same as building.
struct SongScratch {
  MinMaxHeap candidates{1};
  BoundedMaxHeap results{1};
};

SongScratch& ThreadLocalSongScratch() {
  thread_local SongScratch scratch;
  return scratch;
}

}  // namespace

const char* SongStageName(int stage) {
  GANNS_CHECK(stage >= 0 && stage < kNumSongStages);
  return kStageNames[stage];
}

std::vector<graph::Neighbor> SongSearchOne(
    gpusim::BlockContext& block, const graph::ProximityGraph& graph,
    const data::Dataset& base, std::span<const float> query,
    const SongParams& params, VertexId entry, SongQueryProfile* profile,
    const graph::SearchContext& ctx) {
  GANNS_CHECK(params.k >= 1);
  GANNS_CHECK(params.queue_size >= params.k);
  GANNS_CHECK(entry < graph.num_vertices());
  gpusim::Warp& warp = block.warp();
  SongQueryProfile local;

  SongScratch& heaps = ThreadLocalSongScratch();
  MinMaxHeap& candidates = heaps.candidates;  // C
  BoundedMaxHeap& results = heaps.results;    // N
  candidates.Reset(params.queue_size);
  results.Reset(params.queue_size);
  // H, sized for N ∪ C under the default bounded-hash policy.
  std::unique_ptr<VisitedSet> visited = MakeVisitedSet(
      params.visited, params.queue_size * 2, graph.num_vertices(),
      warp.params());
  // cand / dist staging arrays live in shared memory (§II-D).
  auto cand = block.AllocShared<VertexId>(graph.d_max());
  auto cand_dist = block.AllocShared<Dist>(graph.d_max());

  // Float rows or packed codes; a PQ LUT is built — and charged — once per
  // query up front.
  const data::QueryDistance dist(base, query, ctx.quant);
  warp.ChargeLutBuild(dist.lut_build_words());
  // Heap comparisons/swaps are host-lane ops; the visited structure prices
  // its own probes by memory tier. Both are charged as deltas per stage.
  std::size_t charged_heap_ops = 0;
  double charged_visited_cycles = 0;
  const auto charge_host_ops = [&] {
    const std::size_t heap_total = candidates.ops() + results.ops();
    if (heap_total > charged_heap_ops) {
      warp.ChargeHostOps(static_cast<double>(heap_total - charged_heap_ops),
                         gpusim::CostCategory::kDataStructure);
      local.host_ops += heap_total - charged_heap_ops;
      charged_heap_ops = heap_total;
    }
    const double visited_total = visited->cycles();
    if (visited_total > charged_visited_cycles) {
      warp.cost().Charge(gpusim::CostCategory::kDataStructure,
                         visited_total - charged_visited_cycles);
      charged_visited_cycles = visited_total;
    }
  };

  warp.ChargeDistance(dist.words());
  ++local.distance_computations;
  const Dist entry_dist = dist.One(entry);
  if (ctx.hardness != nullptr) ctx.hardness->entry_distance = entry_dist;
  candidates.InsertBounded({entry_dist, entry});
  visited->Insert(entry);
  charge_host_ops();

  StageTimer stages(block, profile != nullptr || block.tracing());

  while (!candidates.empty()) {
    stages.Begin();
    ++local.hops;

    // Stage 1: candidates locating (host lane). Pop the closest candidate,
    // test it against the current worst result, and gather its unvisited
    // neighbors into the staging array.
    const graph::Neighbor closest = candidates.Min();
    candidates.PopMin();
    if (results.full() && !(closest < results.Max())) {
      charge_host_ops();
      stages.End(0);
      break;
    }
    // Insert v_c into N; if that evicts the old worst, SONG's visited
    // deletion optimization drops the evictee from H (it is no longer in
    // N ∪ C), accepting possible re-computation later.
    if (results.full()) {
      const graph::Neighbor evicted = results.Max();
      results.InsertBounded(closest);
      visited->Remove(evicted.id);
    } else {
      results.InsertBounded(closest);
    }

    warp.ChargeGlobalLoad(graph.d_max(),
                          gpusim::CostCategory::kDataStructure);
    const auto neighbor_ids = graph.Neighbors(closest.id);
    const std::size_t degree = graph.Degree(closest.id);
    if (ctx.hardness != nullptr && local.hops == 1) {
      ctx.hardness->early_fanout = static_cast<std::uint32_t>(degree);
    }
    std::size_t num_cand = 0;
    for (std::size_t i = 0; i < degree; ++i) {
      const VertexId u = neighbor_ids[i];
      // The host thread checks H "point by point" (§II-D).
      if (visited->Insert(u)) {
        cand[num_cand++] = u;
      }
    }
    warp.ChargeHostOps(static_cast<double>(degree),
                       gpusim::CostCategory::kDataStructure);
    local.host_ops += degree;
    charge_host_ops();
    stages.End(0);

    // Stage 2: bulk distance computation (all lanes cooperate per point;
    // partial sums combine via __shfl_xor_sync). The staged candidates are
    // already contiguous, so the whole batch is computed in one call; the
    // simulated cost is charged per point.
    dist.Many(cand.first(num_cand), cand_dist.first(num_cand));
    for (std::size_t i = 0; i < num_cand; ++i) {
      warp.ChargeDistance(dist.words());
      ++local.distance_computations;
    }
    stages.End(1);

    // Stage 3: data-structures updating (host lane): sequential bounded
    // insertion of the staged candidates into C. Points that do not make it
    // into C (rejected, or evicted later) leave H as well — H tracks exactly
    // N ∪ C (§II-D), which keeps it at a fixed 2k-class size but means a
    // dropped point can be revisited and its distance re-computed.
    for (std::size_t i = 0; i < num_cand; ++i) {
      if (candidates.full()) {
        const graph::Neighbor worst = candidates.Max();
        if (candidates.InsertBounded({cand_dist[i], cand[i]})) {
          visited->Remove(worst.id);
        } else {
          visited->Remove(cand[i]);
        }
      } else {
        candidates.InsertBounded({cand_dist[i], cand[i]});
      }
    }
    charge_host_ops();
    stages.End(2);
  }

  std::vector<graph::Neighbor> sorted = results.SortedAscending();
  warp.ChargeHostOps(
      static_cast<double>(sorted.size()) *
          (sorted.empty() ? 0.0
                          : static_cast<double>(std::bit_width(sorted.size()))),
      gpusim::CostCategory::kOther);  // final heap drain / write-back
  // Rerank distances are full-width reads, charged like exact distances.
  const std::size_t evals =
      graph::FinishResults(graph, base, query, dist, sorted, params.k);
  for (std::size_t i = 0; i < evals; ++i) warp.ChargeDistance(base.dim());
  local.distance_computations += static_cast<std::uint32_t>(evals);
  if (ctx.hardness != nullptr) {
    ctx.hardness->visited = local.distance_computations;
    ctx.hardness->budget = static_cast<std::uint32_t>(params.queue_size);
  }
  if (profile != nullptr) {
    local.total_cycles = block.cost().total_cycles();
    local.stage_cycles = stages.stage_cycles();
    *profile = local;
  }
  return sorted;
}

graph::BatchSearchResult SongSearchBatch(gpusim::Device& device,
                                         const graph::ProximityGraph& graph,
                                         const data::Dataset& base,
                                         const data::Dataset& queries,
                                         const SongParams& params,
                                         int block_lanes, VertexId entry,
                                         std::vector<SongQueryProfile>* profiles,
                                         const graph::SearchContext& ctx) {
  std::vector<SongQueryProfile> metrics_profiles;
  if (profiles == nullptr && obs::MetricsEnabled()) {
    profiles = &metrics_profiles;
  }
  if (profiles != nullptr) {
    profiles->assign(queries.size(), SongQueryProfile{});
  }

  graph::BatchSearchResult batch = graph::LaunchSearchBatch(
      device, "song_search", base, queries, block_lanes,
      [&](gpusim::BlockContext& block, VertexId q) {
        return SongSearchOne(block, graph, base, queries.Point(q), params,
                             entry,
                             profiles != nullptr ? &(*profiles)[q] : nullptr,
                             ctx.ForQuery(q));
      });

  if (obs::MetricsEnabled() && profiles != nullptr) {
    auto& registry = obs::MetricsRegistry::Global();
    obs::HdrHistogram& hops = registry.GetHdr("song.hops_per_query");
    obs::HdrHistogram& dists = registry.GetHdr("song.dist_evals_per_query");
    obs::HdrHistogram& host_ops = registry.GetHdr("song.host_ops_per_query");
    for (const SongQueryProfile& p : *profiles) {
      hops.Record(p.hops);
      dists.Record(p.distance_computations);
      host_ops.Record(p.host_ops);
    }
    registry.GetCounter("song.queries").Add(queries.size());
  }
  return batch;
}

}  // namespace song
}  // namespace ganns
