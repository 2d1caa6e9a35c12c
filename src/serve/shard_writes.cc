// Write routing for ShardedIndex: online insert/delete, tombstone-driven
// compaction, and the v3 shard-container persistence that round-trips a
// live-mutated shard. The read path lives in shard_router.cc.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/file.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/mutate.h"
#include "data/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/shard_router.h"

namespace ganns {
namespace serve {
namespace {

constexpr std::uint64_t kShardMagic = 0x33485347;  // "GSH3"
constexpr std::uint64_t kShardVersion = 3;

/// fetch_add for std::atomic<double> (not guaranteed before C++20 TS
/// support everywhere): plain CAS loop, relaxed — it is a counter.
void AddDouble(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void RecordUpdateLatency(const char* name, double start_us) {
  if (!obs::MetricsEnabled()) return;
  const double elapsed = WallSpanNow() * 1e6 - start_us;
  obs::MetricsRegistry::Global().GetHdr(name).Record(
      static_cast<std::uint64_t>(std::max(0.0, elapsed)));
}

void SetShardError(std::string& error, const std::string& path,
                   std::string message) {
  error = "shard file '" + path + "': " + std::move(message);
}

}  // namespace

ShardedIndex& ShardedIndex::operator=(ShardedIndex&& other) {
  if (this != &other) {
    StopCompactor();
    options_ = std::move(other.options_);
    shards_ = std::move(other.shards_);
    initial_total_ = other.initial_total_;
    writes_ = std::move(other.writes_);
    kernel_queries_ = std::move(other.kernel_queries_);
  }
  return *this;
}

std::optional<std::pair<std::size_t, VertexId>> ShardedIndex::ResolveGlobalId(
    VertexId global_id) const {
  // The explicit map wins: it carries inserted points and every survivor of
  // a compaction (whose slot no longer matches the offset arithmetic).
  const auto it = writes_->dynamic_slots.find(global_id);
  if (it != writes_->dynamic_slots.end()) {
    return std::make_pair(static_cast<std::size_t>(it->second.first),
                          it->second.second);
  }
  if (global_id >= initial_total_) return std::nullopt;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (global_id < shard.offset + shard.initial_size) {
      return std::make_pair(s, global_id - shard.offset);
    }
  }
  return std::nullopt;
}

std::optional<VertexId> ShardedIndex::Insert(std::span<const float> vector) {
  GANNS_CHECK_MSG(options_.kind == core::GraphKind::kNsw,
                  "online updates require NSW shards");
  GANNS_CHECK(vector.size() == dim());
  const double start_us = WallSpanNow() * 1e6;

  // Cosine corpora are normalized at construction; an online insert must
  // match or its dot-product distances are meaningless.
  std::vector<float> point(vector.begin(), vector.end());
  if (PinSnapshot(0)->base->metric() == data::Metric::kCosine) {
    data::NormalizeRow(point);
  }

  std::lock_guard<std::mutex> lock(writes_->write_mutex);
  EnsureCompactorLocked();

  // Route to the shard with the most free slots; ties break on the lowest
  // shard index so routing is deterministic.
  std::size_t best = 0;
  std::size_t best_free = 0;
  std::vector<std::shared_ptr<const Snapshot>> pinned(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    pinned[s] = PinSnapshot(s);
    const std::size_t free = pinned[s]->graph->FreeCapacity();
    if (free > best_free) {
      best = s;
      best_free = free;
    }
  }
  if (best_free == 0) return std::nullopt;  // every shard is full

  const std::shared_ptr<const Snapshot>& snap = pinned[best];
  Shard& shard = *shards_[best];

  // Clone-on-write: mutate private copies, publish when consistent. The
  // graph clone copies allocated rows only (its capacity stays a
  // reservation); the corpus clone reserves one row of headroom, so an
  // append does not reallocate and copy the shard's rows a second time.
  auto graph = std::make_shared<graph::ProximityGraph>(*snap->graph);
  auto base = std::make_shared<data::Dataset>(
      snap->base->name(), snap->base->dim(), snap->base->metric());
  base->Reserve(snap->base->size() + 1);
  base->AppendPaddedRows(snap->base->values());
  auto gids = std::make_shared<GlobalIds>(*snap->global_ids);

  // The new slot is the graph's high-water mark, one past the last row.
  const std::optional<VertexId> slot = graph->AllocVertex();
  GANNS_CHECK(slot.has_value() && *slot == base->size());
  base->Append(point);
  const VertexId gid = writes_->next_global_id++;
  gids->push_back(gid);

  // Compressed shards keep the code array in lockstep with the slot space:
  // clone it and encode the new row with the shard's (fixed) codebooks.
  std::shared_ptr<const data::QuantizedCodes> codes = snap->codes;
  if (snap->quantizer != nullptr) {
    auto cloned = std::make_shared<data::QuantizedCodes>(*snap->codes);
    cloned->EncodeRow(*snap->quantizer, *slot, point);
    codes = std::move(cloned);
  }

  VertexId entry = snap->entry;
  core::UpdateResult result;
  if (entry == kInvalidVertex) {
    // First point of an emptied shard: it becomes the entry, no edges yet.
    entry = *slot;
  } else {
    result = core::InsertVertex(*shard.update_device, *graph, *base, *slot,
                                entry, MakeUpdateParams());
  }

  auto next = std::make_shared<Snapshot>();
  next->epoch = snap->epoch + 1;
  next->entry = entry;
  next->graph = std::move(graph);
  next->base = std::move(base);
  next->global_ids = std::move(gids);
  next->quantizer = snap->quantizer;
  next->codes = std::move(codes);
  PublishSnapshot(best, std::move(next));

  writes_->dynamic_slots[gid] = {static_cast<std::uint32_t>(best), *slot};
  writes_->inserts.fetch_add(1, std::memory_order_relaxed);
  AddDouble(writes_->update_sim_seconds, result.sim_seconds);
  RecordUpdateLatency("update.insert_latency_us", start_us);
  RecordTombstoneGauge();
  return gid;
}

bool ShardedIndex::Remove(VertexId global_id) {
  GANNS_CHECK_MSG(options_.kind == core::GraphKind::kNsw,
                  "online updates require NSW shards");
  const double start_us = WallSpanNow() * 1e6;
  std::lock_guard<std::mutex> lock(writes_->write_mutex);
  EnsureCompactorLocked();

  const auto resolved = ResolveGlobalId(global_id);
  if (!resolved.has_value()) return false;
  const auto [s, slot] = *resolved;
  const std::shared_ptr<const Snapshot> snap = PinSnapshot(s);
  // Re-validate against the snapshot's id map: the resolved slot may be
  // stale (compaction moved or dropped the point) or reused by an insert.
  if (slot >= snap->graph->num_vertices() ||
      (*snap->global_ids)[slot] != global_id || !snap->graph->IsLive(slot)) {
    return false;
  }

  Shard& shard = *shards_[s];
  auto graph = std::make_shared<graph::ProximityGraph>(*snap->graph);
  const core::UpdateResult result = core::RemoveVertex(
      *shard.update_device, *graph, *snap->base, slot, MakeUpdateParams());

  VertexId entry = snap->entry;
  if (entry == slot) {
    // The entry point died; restart from the lowest live slot.
    entry = kInvalidVertex;
    for (VertexId v = 0; v < graph->num_vertices(); ++v) {
      if (graph->IsLive(v)) {
        entry = v;
        break;
      }
    }
  }

  auto next = std::make_shared<Snapshot>();
  next->epoch = snap->epoch + 1;
  next->entry = entry;
  next->graph = graph;
  next->base = snap->base;
  next->global_ids = snap->global_ids;
  // Tombstoning leaves rows (and their codes) in place.
  next->quantizer = snap->quantizer;
  next->codes = snap->codes;
  PublishSnapshot(s, std::move(next));

  writes_->removes.fetch_add(1, std::memory_order_relaxed);
  AddDouble(writes_->update_sim_seconds, result.sim_seconds);
  RecordUpdateLatency("update.remove_latency_us", start_us);
  RecordTombstoneGauge();

  if (options_.update.auto_compact &&
      graph->TombstoneFraction() >= options_.update.compact_threshold &&
      !shard.compaction_pending.exchange(true)) {
    ScheduleCompaction(s);
  }
  return true;
}

bool ShardedIndex::Compact(std::size_t s) {
  std::lock_guard<std::mutex> lock(writes_->write_mutex);
  return CompactLocked(s);
}

bool ShardedIndex::CompactLocked(std::size_t s) {
  Shard& shard = *shards_[s];
  if (shard.hnsw != nullptr) return false;
  const std::shared_ptr<const Snapshot> snap = PinSnapshot(s);
  if (snap->graph->num_tombstones() == 0) return false;
  ScopedWallSpan span("serve.compaction");

  // Repack the survivors into slots [0, n) in ascending old-slot order and
  // rebuild their graph from scratch with the construction pipeline — same
  // params as the original build, so a compacted shard is graph-identical
  // to a fresh build over the surviving points.
  const data::Dataset& old_base = *snap->base;
  auto base = std::make_shared<data::Dataset>(old_base.name(),
                                              old_base.dim(),
                                              old_base.metric());
  auto gids = std::make_shared<GlobalIds>();
  for (VertexId v = 0; v < snap->graph->num_vertices(); ++v) {
    if (!snap->graph->IsLive(v)) continue;
    base->Append(old_base.Point(v));
    gids->push_back((*snap->global_ids)[v]);
  }

  std::shared_ptr<graph::ProximityGraph> graph;
  double sim_seconds = 0;
  if (base->size() > 0) {
    core::GpuBuildResult result = core::BuildNswGGraphCon(
        *shard.update_device, *base, MakeBuildParams(options_, base->size()));
    sim_seconds = result.sim_seconds;
    result.graph.Reserve(snap->graph->capacity());
    graph = std::make_shared<graph::ProximityGraph>(std::move(result.graph));
  } else {
    graph = std::make_shared<graph::ProximityGraph>(
        0, snap->graph->d_max(), snap->graph->capacity());
  }

  auto next = std::make_shared<Snapshot>();
  next->epoch = snap->epoch + 1;
  next->entry = base->size() > 0 ? 0 : kInvalidVertex;
  next->graph = std::move(graph);
  next->base = std::move(base);
  next->global_ids = gids;
  // Survivors moved slots: re-encode the packed codes against the repacked
  // rows. The codebooks themselves stay valid (trained on the original
  // distribution), so compaction never retrains.
  if (snap->quantizer != nullptr) {
    next->quantizer = snap->quantizer;
    next->codes = std::make_shared<data::QuantizedCodes>(
        data::QuantizedCodes::EncodeAll(*snap->quantizer, *next->base));
  }
  PublishSnapshot(s, std::move(next));

  // Every survivor's slot changed; record the new ones so Remove() keeps
  // resolving ids after the move (stale map entries fail re-validation).
  for (VertexId slot = 0; slot < static_cast<VertexId>(gids->size());
       ++slot) {
    writes_->dynamic_slots[(*gids)[slot]] = {static_cast<std::uint32_t>(s),
                                             slot};
  }

  writes_->compactions.fetch_add(1, std::memory_order_relaxed);
  AddDouble(writes_->update_sim_seconds, sim_seconds);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter("serve.compactions").Add();
  }
  RecordTombstoneGauge();
  return true;
}

void ShardedIndex::ScheduleCompaction(std::size_t s) {
  {
    std::lock_guard<std::mutex> lock(writes_->queue_mutex);
    writes_->queue.push_back(s);
  }
  writes_->queue_cv.notify_one();
}

void ShardedIndex::EnsureCompactorLocked() {
  if (!options_.update.auto_compact) return;
  if (writes_->compactor.joinable()) return;
  writes_->compactor = std::thread([this] { CompactorLoop(); });
}

void ShardedIndex::CompactorLoop() {
  for (;;) {
    std::size_t s = 0;
    {
      std::unique_lock<std::mutex> lock(writes_->queue_mutex);
      writes_->queue_cv.wait(lock, [this] {
        return writes_->stop || !writes_->queue.empty();
      });
      if (writes_->stop) return;
      s = writes_->queue.front();
      writes_->queue.erase(writes_->queue.begin());
    }
    // Clear the pending flag before processing, not after: a removal that
    // crosses the threshold while the rebuild runs must be able to
    // reschedule, or the shard could settle above threshold with no
    // compaction queued. A spurious reschedule just fails the re-check.
    shards_[s]->compaction_pending.store(false);
    {
      std::lock_guard<std::mutex> lock(writes_->write_mutex);
      // Re-check under the write lock: a manual Compact() or further
      // removals may have changed the fraction since the schedule.
      const auto snap = PinSnapshot(s);
      if (snap->graph != nullptr &&
          snap->graph->TombstoneFraction() >=
              options_.update.compact_threshold) {
        CompactLocked(s);
      }
    }
  }
}

void ShardedIndex::StopCompactor() {
  if (writes_ == nullptr) return;  // moved-from shell
  {
    std::lock_guard<std::mutex> lock(writes_->queue_mutex);
    writes_->stop = true;
  }
  writes_->queue_cv.notify_all();
  if (writes_->compactor.joinable()) writes_->compactor.join();
  writes_->compactor = std::thread();
  // Reset so a later write can restart the task (e.g. after move-assign).
  std::lock_guard<std::mutex> lock(writes_->queue_mutex);
  writes_->stop = false;
  writes_->queue.clear();
}

void ShardedIndex::RecordTombstoneGauge() const {
  if (!obs::MetricsEnabled()) return;
  double worst = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    worst = std::max(worst, TombstoneFraction(s));
  }
  obs::MetricsRegistry::Global().GetGauge("serve.tombstone_fraction")
      .Set(worst);
}

bool ShardedIndex::SaveShards(const std::string& prefix) const {
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    paths.push_back(prefix + ".shard" + std::to_string(s));
  }
  // Each shard is written under a temporary name, and the files replace the
  // previous index only once all of them are written: a failed save leaves
  // it whole.
  return ReplaceFiles(paths, [&](std::size_t s, const std::string& tmp) {
    const Shard& shard = *shards_[s];
    const std::shared_ptr<const Snapshot> snap = PinSnapshot(s);
    // An HNSW shard is static: its bottom layer spans the slot space.
    const graph::ProximityGraph& graph =
        shard.hnsw != nullptr ? shard.hnsw->layer(0) : *snap->graph;
    const data::Dataset& base = *snap->base;
    File file(tmp, "wb");
    if (!file) return false;
    const std::uint64_t header[8] = {
        kShardMagic,
        kShardVersion,
        shard.offset,
        shard.initial_size,
        static_cast<std::uint64_t>(snap->entry),
        base.dim(),
        static_cast<std::uint64_t>(base.metric()),
        graph.num_vertices(),
    };
    if (std::fwrite(header, sizeof(header), 1, file.get()) != 1) return false;
    const bool graph_ok = shard.hnsw != nullptr
                              ? shard.hnsw->WriteTo(file.get())
                              : graph.WriteTo(file.get());
    if (!graph_ok) return false;
    const GlobalIds& gids = *snap->global_ids;
    if (!gids.empty() &&
        std::fwrite(gids.data(), sizeof(VertexId), gids.size(), file.get()) !=
            gids.size()) {
      return false;
    }
    // Rows are written unpadded, one per slot (dead slots keep their last
    // contents — harmless, and it keeps the layout trivially seekable).
    for (VertexId v = 0; v < base.size(); ++v) {
      if (std::fwrite(base.Point(v).data(), sizeof(float), base.dim(),
                      file.get()) != base.dim()) {
        return false;
      }
    }
    // Optional trailing section: the shard's codebooks + packed codes, so a
    // compressed shard round-trips without retraining.
    if (snap->quantizer != nullptr &&
        !data::WriteQuantizedSection(file.get(), *snap->quantizer,
                                     *snap->codes)) {
      return false;
    }
    return file.Close();
  });
}

std::unique_ptr<ShardedIndex::Shard> ShardedIndex::LoadShard(
    const std::string& path, const data::Dataset& base, VertexId begin,
    VertexId end, const ShardBuildOptions& options, LoadedIds& ids,
    std::string& error) {
  auto shard = std::make_unique<Shard>();
  shard->offset = begin;
  shard->initial_size = end - begin;
  shard->device = std::make_unique<gpusim::Device>(options.device);
  shard->update_device = std::make_unique<gpusim::Device>(options.device);

  File file(path, "rb");
  if (!file) {
    SetShardError(error, path, "cannot open");
    return nullptr;
  }
  std::uint64_t magic = 0;
  if (std::fread(&magic, sizeof(magic), 1, file.get()) != 1) {
    SetShardError(error, path, "truncated (cannot read magic word)");
    return nullptr;
  }
  if (magic != kShardMagic) {
    SetShardError(error, path,
                  "unknown magic word (not a GSH3 shard container)");
    return nullptr;
  }
  std::uint64_t rest[7] = {};
  if (std::fread(rest, sizeof(rest), 1, file.get()) != 1) {
    SetShardError(error, path, "shard header: truncated");
    return nullptr;
  }
  const std::uint64_t version = rest[0];
  if (version != kShardVersion) {
    SetShardError(error, path,
                  "shard header: unsupported version " +
                      std::to_string(version) + " (expected " +
                      std::to_string(kShardVersion) + ")");
    return nullptr;
  }
  if (rest[1] != shard->offset || rest[2] != shard->initial_size ||
      rest[4] != base.dim() ||
      rest[5] != static_cast<std::uint64_t>(base.metric())) {
    SetShardError(
        error, path,
        "shard header: geometry mismatch (file offset/size/dim/metric " +
            std::to_string(rest[1]) + "/" + std::to_string(rest[2]) + "/" +
            std::to_string(rest[4]) + "/" + std::to_string(rest[5]) +
            ", expected " + std::to_string(shard->offset) + "/" +
            std::to_string(shard->initial_size) + "/" +
            std::to_string(base.dim()) + "/" +
            std::to_string(static_cast<std::uint64_t>(base.metric())) +
            ")");
    return nullptr;
  }
  const VertexId entry = static_cast<VertexId>(rest[3]);
  const std::uint64_t num_rows = rest[6];
  // The graph record's own leading word names the shard's kind: an HNSW
  // hierarchy, or else a flat NSW graph (whose reader checks its magic).
  std::uint64_t record_magic = 0;
  const long record_at = std::ftell(file.get());
  const bool peeked =
      std::fread(&record_magic, sizeof(record_magic), 1, file.get()) == 1 &&
      std::fseek(file.get(), record_at, SEEK_SET) == 0;
  std::optional<graph::ProximityGraph> graph;
  const graph::ProximityGraph* bottom = nullptr;
  if (peeked && record_magic == graph::HnswGraph::kRecordMagic) {
    if (auto hnsw = graph::HnswGraph::ReadFrom(file.get())) {
      shard->hnsw = std::make_unique<graph::HnswGraph>(*std::move(hnsw));
      bottom = &shard->hnsw->layer(0);
    }
  } else if (peeked) {
    graph = graph::ProximityGraph::ReadFrom(file.get());
    if (graph.has_value()) bottom = &*graph;
  }
  if (bottom == nullptr || bottom->num_vertices() != num_rows) {
    SetShardError(error, path,
                  "graph record: truncated, corrupt, or vertex count "
                  "disagrees with shard header");
    return nullptr;
  }
  if (entry == kInvalidVertex) {
    if (bottom->num_live() != 0) {
      SetShardError(error, path,
                    "entry vertex: header says empty shard but graph "
                    "has live vertices");
      return nullptr;
    }
  } else if (entry >= num_rows || !bottom->IsLive(entry)) {
    SetShardError(error, path,
                  "entry vertex " + std::to_string(entry) +
                      " is out of range or tombstoned");
    return nullptr;
  }
  const std::size_t gid_bytes = num_rows * sizeof(VertexId);
  if (BytesLeft(file.get()) < gid_bytes) {
    SetShardError(error, path, "global id map: truncated");
    return nullptr;
  }
  auto gids = std::make_shared<GlobalIds>(num_rows);  // unfilled
  if (!ReadBulk(file.get(), gids->data(), gid_bytes)) {
    SetShardError(error, path, "global id map: truncated");
    return nullptr;
  }
  auto rows = std::make_shared<data::Dataset>(base.name() + ".shard",
                                              base.dim(), base.metric());
  const std::size_t rows_read = rows->ReadRows(file.get(), num_rows);
  if (rows_read != num_rows) {
    SetShardError(error, path,
                  "vector rows: truncated at row " +
                      std::to_string(rows_read) + " of " +
                      std::to_string(num_rows));
    return nullptr;
  }
  // Every slot's gid was issued once, so it advances the id counter;
  // tombstoned ones stay reserved but are not addressable. A live slot needs
  // a map entry only where the offset arithmetic of ResolveGlobalId would
  // miss it: inserted ids and compaction-moved initial ids. Identity slots
  // resolve as in a fresh build.
  for (VertexId slot = 0; slot < num_rows; ++slot) {
    const VertexId gid = (*gids)[slot];
    ids.next_global_id = std::max(ids.next_global_id, gid + 1);
    if (!bottom->IsLive(slot)) continue;
    if (slot < shard->initial_size && gid == shard->offset + slot) continue;
    ids.moved.emplace_back(gid, slot);
  }
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->entry = entry;
  if (graph.has_value()) {
    snapshot->graph =
        std::make_shared<graph::ProximityGraph>(*std::move(graph));
  }
  snapshot->base = std::move(rows);
  snapshot->global_ids = std::move(gids);
  // Optional trailing quantization section (compressed shards). Clean EOF
  // means an exact shard; a present-but-corrupt section is a load error.
  std::string quant_error;
  auto store = data::ReadQuantizedSection(file.get(), snapshot->base->size(),
                                          &quant_error);
  if (!quant_error.empty()) {
    SetShardError(error, path, quant_error);
    return nullptr;
  }
  if (store.has_value()) {
    if (store->quantizer.dim() != base.dim()) {
      SetShardError(error, path,
                    "quantization section: dim mismatch (section has " +
                        std::to_string(store->quantizer.dim()) +
                        ", corpus has " + std::to_string(base.dim()) + ")");
      return nullptr;
    }
    snapshot->quantizer =
        std::make_shared<data::Quantizer>(std::move(store->quantizer));
    snapshot->codes =
        std::make_shared<data::QuantizedCodes>(std::move(store->codes));
  }
  shard->snapshot = std::move(snapshot);
  return shard;
}

std::optional<ShardedIndex> ShardedIndex::LoadShards(
    const std::string& prefix, const data::Dataset& base,
    std::size_t num_shards, const ShardBuildOptions& options,
    std::string* error) {
  if (error != nullptr) error->clear();
  if (num_shards < 1 || base.size() < num_shards) {
    if (error != nullptr) {
      *error = "cannot split " + std::to_string(base.size()) +
               " points into " + std::to_string(num_shards) + " shards";
    }
    return std::nullopt;
  }
  const std::vector<VertexId> bounds = ShardBounds(base.size(), num_shards);
  // Shards are independent files: each loads as one pool task into its own
  // slot. Everything shared is written after the join, in shard order.
  std::vector<std::unique_ptr<Shard>> shards(num_shards);
  std::vector<LoadedIds> ids(num_shards);
  std::vector<std::string> errors(num_shards);
  ThreadPool::Global().ParallelFor(num_shards, [&](std::size_t s) {
    shards[s] = LoadShard(prefix + ".shard" + std::to_string(s), base,
                          bounds[s], bounds[s + 1], options, ids[s],
                          errors[s]);
  });
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (shards[s] == nullptr) {
      if (error != nullptr) *error = std::move(errors[s]);
      return std::nullopt;
    }
  }
  // One index has one graph kind: shard 0's, which every file must share.
  const bool hnsw = shards[0]->hnsw != nullptr;
  for (std::size_t s = 1; s < num_shards; ++s) {
    if ((shards[s]->hnsw != nullptr) != hnsw) {
      if (error != nullptr) {
        SetShardError(*error, prefix + ".shard" + std::to_string(s),
                      std::string("graph kind ") + (hnsw ? "NSW" : "HNSW") +
                          " differs from shard 0's " +
                          (hnsw ? "HNSW" : "NSW"));
      }
      return std::nullopt;
    }
  }

  ShardedIndex index;
  index.options_ = options;
  index.options_.kind = hnsw ? core::GraphKind::kHnsw : core::GraphKind::kNsw;
  index.initial_total_ = base.size();
  VertexId& next_global_id = index.writes_->next_global_id;
  next_global_id = static_cast<VertexId>(base.size());
  for (std::size_t s = 0; s < num_shards; ++s) {
    next_global_id = std::max(next_global_id, ids[s].next_global_id);
    for (const auto& [gid, slot] : ids[s].moved) {
      index.writes_->dynamic_slots[gid] = {static_cast<std::uint32_t>(s),
                                           slot};
    }
  }
  index.shards_ = std::move(shards);
  return index;
}

}  // namespace serve
}  // namespace ganns
