#include "serve/shard_router.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/kway_merge.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace ganns {
namespace serve {
std::shared_ptr<const ShardedIndex::GlobalIds> ShardedIndex::IotaGlobalIds(
    VertexId offset, std::size_t n) {
  auto ids = std::make_shared<GlobalIds>(n);
  std::iota(ids->begin(), ids->end(), offset);
  return ids;
}

ShardedIndex::~ShardedIndex() { StopCompactor(); }

std::size_t ShardedIndex::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto snap = PinSnapshot(s);
    total += snap->graph != nullptr ? snap->graph->num_live()
                                    : snap->base->size();
  }
  return total;
}

std::size_t ShardedIndex::dim() const {
  return PinSnapshot(0)->base->dim();
}

std::size_t ShardedIndex::resident_bytes_per_vector() const {
  const auto snap = PinSnapshot(0);
  if (snap->quantizer != nullptr) return snap->quantizer->code_bytes();
  return snap->base->dim() * sizeof(float);
}

std::size_t ShardedIndex::ShardImageBytes(std::size_t s) const {
  const auto snap = PinSnapshot(s);
  const graph::ProximityGraph& bottom =
      shards_[s]->hnsw != nullptr ? shards_[s]->hnsw->layer(0) : *snap->graph;
  const std::size_t per_vector = snap->quantizer != nullptr
                                     ? snap->quantizer->code_bytes()
                                     : snap->base->dim() * sizeof(float);
  // Vector rows (or codes) for every slot, the d_max (id, dist) adjacency
  // row per slot, and the slot -> global id map.
  return bottom.num_vertices() *
         (per_vector + bottom.d_max() * (sizeof(VertexId) + sizeof(float)) +
          sizeof(VertexId));
}

const graph::ProximityGraph& ShardedIndex::shard_graph(std::size_t s) const {
  const Shard& shard = *shards_[s];
  if (shard.hnsw != nullptr) return shard.hnsw->layer(0);
  return *PinSnapshot(s)->graph;
}

double ShardedIndex::TombstoneFraction(std::size_t s) const {
  const auto snap = PinSnapshot(s);
  return snap->graph != nullptr ? snap->graph->TombstoneFraction() : 0.0;
}

std::uint64_t ShardedIndex::inserts() const {
  return writes_->inserts.load(std::memory_order_relaxed);
}
std::uint64_t ShardedIndex::removes() const {
  return writes_->removes.load(std::memory_order_relaxed);
}
std::uint64_t ShardedIndex::compactions() const {
  return writes_->compactions.load(std::memory_order_relaxed);
}
double ShardedIndex::update_sim_seconds() const {
  return writes_->update_sim_seconds.load(std::memory_order_relaxed);
}
double ShardedIndex::build_sim_seconds() const {
  double slowest = 0;
  for (const auto& shard : shards_) {
    slowest = std::max(slowest, shard->build_sim_seconds);
  }
  return slowest;
}

std::size_t ShardedIndex::PerShardBudget(std::size_t budget,
                                         std::size_t k) const {
  return std::max(k, budget / shards_.size());
}

std::shared_ptr<const ShardedIndex::Snapshot> ShardedIndex::PinSnapshot(
    std::size_t s) const {
  const Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.snapshot_mutex);
  return shard.snapshot;
}

void ShardedIndex::PublishSnapshot(std::size_t s,
                                   std::shared_ptr<const Snapshot> next) {
  Shard& shard = *shards_[s];
  std::lock_guard<std::mutex> lock(shard.snapshot_mutex);
  shard.snapshot = std::move(next);
}

data::Dataset ShardedIndex::SliceDataset(const data::Dataset& base,
                                         VertexId begin, VertexId end) {
  data::Dataset slice(base.name() + ".shard", base.dim(), base.metric());
  const std::size_t stride = base.padded_dim();
  slice.AppendPaddedRows(
      base.values().subspan(begin * stride, (end - begin) * stride));
  return slice;
}

core::GpuBuildParams ShardedIndex::MakeBuildParams(
    const ShardBuildOptions& options, std::size_t shard_size) {
  core::GpuBuildParams build;
  build.nsw = options.nsw;
  build.kernel = options.construction_kernel;
  build.block_lanes = options.block_lanes;
  // Keep GGraphCon groups meaningful on small slices (>= ~32 points each).
  build.num_groups = static_cast<int>(std::clamp<std::size_t>(
      shard_size / 32, 1, static_cast<std::size_t>(options.num_groups)));
  return build;
}

core::UpdateParams ShardedIndex::MakeUpdateParams() const {
  core::UpdateParams params;
  params.d_min = options_.nsw.d_min;
  params.ef = options_.update.ef_insert;
  params.kernel = options_.construction_kernel;
  params.block_lanes = options_.block_lanes;
  return params;
}

std::unique_ptr<ShardedIndex::Shard> ShardedIndex::BuildShard(
    const data::Dataset& base, VertexId begin, VertexId end,
    const ShardBuildOptions& options) {
  auto shard = std::make_unique<Shard>();
  data::Dataset slice = SliceDataset(base, begin, end);
  shard->offset = begin;
  shard->initial_size = slice.size();
  shard->device = std::make_unique<gpusim::Device>(options.device);
  shard->update_device = std::make_unique<gpusim::Device>(options.device);

  const core::GpuBuildParams build = MakeBuildParams(options, slice.size());
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->entry = slice.size() > 0 ? 0 : kInvalidVertex;
  snapshot->global_ids = IotaGlobalIds(begin, slice.size());

  if (options.kind == core::GraphKind::kNsw) {
    core::GpuBuildResult result =
        core::BuildNswGGraphCon(*shard->device, slice, build);
    shard->build_sim_seconds = result.sim_seconds;
    const std::size_t capacity =
        slice.size() + static_cast<std::size_t>(std::ceil(
                           static_cast<double>(slice.size()) *
                           std::max(0.0, options.update.capacity_slack)));
    // The builder sizes the graph exactly; serving adds insert headroom.
    result.graph.Reserve(capacity);
    snapshot->graph =
        std::make_shared<graph::ProximityGraph>(std::move(result.graph));
  } else {
    graph::HnswParams hnsw = options.hnsw;
    hnsw.nsw = options.nsw;
    core::GpuHnswBuildResult result =
        core::BuildHnswGGraphCon(*shard->device, slice, hnsw, build);
    shard->build_sim_seconds = result.sim_seconds;
    shard->hnsw = std::make_unique<graph::HnswGraph>(std::move(result.graph));
  }
  // Compressed serving: per-shard codebooks over the slice, packed codes
  // mirroring the slot space. Deterministic in (slice, quantize options).
  if (options.quantize.precision != data::Precision::kFloat32) {
    auto quantizer = std::make_shared<data::Quantizer>(
        data::Quantizer::Train(slice, options.quantize));
    snapshot->codes = std::make_shared<data::QuantizedCodes>(
        data::QuantizedCodes::EncodeAll(*quantizer, slice));
    snapshot->quantizer = std::move(quantizer);
  }
  snapshot->base = std::make_shared<data::Dataset>(std::move(slice));
  shard->snapshot = std::move(snapshot);
  return shard;
}

ShardedIndex ShardedIndex::Build(const data::Dataset& base,
                                 std::size_t num_shards,
                                 const ShardBuildOptions& options) {
  GANNS_CHECK(num_shards >= 1);
  GANNS_CHECK_MSG(base.size() >= num_shards,
                  "cannot split " << base.size() << " points into "
                                  << num_shards << " shards");
  ShardedIndex index;
  index.options_ = options;
  index.initial_total_ = base.size();
  index.writes_->next_global_id = static_cast<VertexId>(base.size());
  index.shards_.reserve(num_shards);
  const std::vector<VertexId> bounds = ShardBounds(base.size(), num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    index.shards_.push_back(
        BuildShard(base, bounds[s], bounds[s + 1], options));
  }
  return index;
}

std::vector<VertexId> ShardedIndex::ShardBounds(std::size_t total,
                                                std::size_t num_shards) {
  // Contiguous split with the remainder spread over the leading shards, so
  // shard sizes differ by at most one point.
  const std::size_t per_shard = total / num_shards;
  const std::size_t remainder = total % num_shards;
  std::vector<VertexId> bounds(num_shards + 1, 0);
  for (std::size_t s = 0; s < num_shards; ++s) {
    bounds[s + 1] = bounds[s] + static_cast<VertexId>(per_shard) +
                    (s < remainder ? 1 : 0);
  }
  return bounds;
}

double ShardedIndex::SearchShard(std::size_t s,
                                 std::span<const RoutedQuery> queries,
                                 core::SearchKernel kernel,
                                 std::span<std::vector<graph::Neighbor>> rows,
                                 std::span<graph::QueryHardness> hardness) {
  return SearchShardReplica(s, *shards_[s]->device, queries, kernel, rows,
                            hardness);
}

double ShardedIndex::SearchShardReplica(
    std::size_t s, gpusim::Device& device,
    std::span<const RoutedQuery> queries, core::SearchKernel kernel,
    std::span<std::vector<graph::Neighbor>> rows,
    std::span<graph::QueryHardness> hardness) {
  Shard& shard = *shards_[s];
  // Pin the shard's current epoch for the whole launch: concurrent writers
  // publish replacement snapshots but never mutate a published one, so the
  // batch sees a single consistent (graph, vectors, id map) triple.
  const std::shared_ptr<const Snapshot> snap = PinSnapshot(s);
  const data::Dataset& base = *snap->base;
  const GlobalIds& global_ids = *snap->global_ids;
  if (shard.hnsw == nullptr && snap->entry == kInvalidVertex) {
    // Every point of this shard was deleted: nothing to search, no kernel.
    return 0.0;
  }
  const graph::ProximityGraph& bottom =
      shard.hnsw != nullptr ? shard.hnsw->layer(0) : *snap->graph;
  const data::SearchQuantization quant = snap->Quant();
  const gpusim::KernelStats stats = device.Launch(
      "serve.shard_search", static_cast<int>(queries.size()),
      options_.block_lanes, [&](gpusim::BlockContext& block) {
        const std::size_t q = static_cast<std::size_t>(block.block_id());
        const RoutedQuery& request = queries[q];
        // Hierarchical shards pick a per-query layer-0 entry; flat shards
        // enter at the snapshot's entry vertex.
        const VertexId entry =
            shard.hnsw != nullptr
                ? shard.hnsw->DescendToLayer0(base, request.query, nullptr,
                                              {&quant})
                : snap->entry;
        rows[q] = core::DispatchSearch(
            block, kernel, bottom, base, request.query, request.k,
            PerShardBudget(request.budget, request.k), entry,
            {&quant, hardness.empty() ? nullptr : &hardness[q]});
        // Rebase shard-local slots onto the global numbering.
        for (graph::Neighbor& neighbor : rows[q]) {
          neighbor.id = global_ids[neighbor.id];
        }
      });
  kernel_queries_->fetch_add(queries.size(), std::memory_order_relaxed);
  return stats.sim_cycles;
}

std::vector<std::vector<graph::Neighbor>> ShardedIndex::SearchBatch(
    std::span<const RoutedQuery> queries, core::SearchKernel kernel,
    RouteStats* stats) {
  const std::size_t num_queries = queries.size();
  const std::size_t num_shards = shards_.size();
  // per_shard[s][q] — written only by shard s's task, read after the join.
  std::vector<std::vector<std::vector<graph::Neighbor>>> per_shard(num_shards);
  for (auto& rows : per_shard) rows.resize(num_queries);
  std::vector<double> shard_cycles(num_shards, 0.0);
  // Per-(shard, query) hardness signals, collected whenever the caller wants
  // stats. Each shard task writes only its own rows; aggregated post-join.
  std::vector<std::vector<graph::QueryHardness>> per_shard_hardness;
  if (stats != nullptr) {
    per_shard_hardness.resize(num_shards);
    for (auto& h : per_shard_hardness) h.resize(num_queries);
  }

  // Stage timestamps for request tracing: cheap clock reads (a handful per
  // batch), taken regardless of sampling so the engine can project them
  // into any sampled request's span tree. Pure observation — nothing below
  // reads them back.
  if (stats != nullptr) {
    stats->shards.assign(num_shards, RouteStats::ShardSpan{});
    stats->fanout_start_us = WallSpanNow() * 1e6;
  }

  // One task per shard, so shards execute concurrently — the host-side
  // analogue of n GPUs serving in parallel. Each shard's Device::Launch is a
  // nested ParallelFor that shares the pool, so a shard's blocks spread over
  // every idle worker instead of running serially on the one that claimed
  // the shard.
  ThreadPool::Global().ParallelFor(num_shards, [&](std::size_t s) {
    const double start_us = WallSpanNow() * 1e6;
    shard_cycles[s] = SearchShard(
        s, queries, kernel, per_shard[s],
        stats != nullptr ? std::span<graph::QueryHardness>(per_shard_hardness[s])
                         : std::span<graph::QueryHardness>{});
    if (stats != nullptr) {
      // Each task writes only its own slot; read after the join.
      stats->shards[s] = {start_us, WallSpanNow() * 1e6, shard_cycles[s]};
    }
  });

  if (stats != nullptr) {
    stats->fanout_end_us = WallSpanNow() * 1e6;
    stats->sim_cycles =
        *std::max_element(shard_cycles.begin(), shard_cycles.end());
    stats->sim_seconds = shards_[0]->device->CyclesToSeconds(stats->sim_cycles);
    stats->merge_start_us = stats->fanout_end_us;
    // Shard-order aggregation (never completion order), skipping shards that
    // ran no kernel (every point deleted: budget stays 0).
    stats->hardness.assign(num_queries, graph::QueryHardness{});
    for (std::size_t q = 0; q < num_queries; ++q) {
      for (std::size_t s = 0; s < num_shards; ++s) {
        const graph::QueryHardness& shard = per_shard_hardness[s][q];
        if (shard.budget == 0) continue;
        stats->hardness[q].MergeShard(shard);
      }
    }
  }

  std::vector<std::vector<graph::Neighbor>> merged(num_queries);
  std::vector<std::vector<graph::Neighbor>> heads(num_shards);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      heads[s] = std::move(per_shard[s][q]);
    }
    merged[q] = common::MergeTopK<graph::Neighbor>(heads, queries[q].k);
  }
  if (stats != nullptr) stats->merge_end_us = WallSpanNow() * 1e6;
  return merged;
}

std::vector<std::vector<graph::Neighbor>> ShardedIndex::SearchSerial(
    std::span<const RoutedQuery> queries, core::SearchKernel kernel) {
  std::vector<std::vector<graph::Neighbor>> merged(queries.size());
  std::vector<std::vector<graph::Neighbor>> heads(shards_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      heads[s].clear();
      SearchShard(s, queries.subspan(q, 1), kernel,
                  std::span<std::vector<graph::Neighbor>>(&heads[s], 1));
    }
    merged[q] = common::MergeTopK<graph::Neighbor>(heads, queries[q].k);
  }
  return merged;
}

}  // namespace serve
}  // namespace ganns
