#ifndef GANNS_SERVE_SHARD_ROUTER_H_
#define GANNS_SERVE_SHARD_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/aligned.h"
#include "core/ggraphcon.h"
#include "core/hnsw_gpu.h"
#include "core/mutate.h"
#include "data/dataset.h"
#include "data/quantize.h"
#include "gpusim/device.h"
#include "graph/hnsw.h"
#include "graph/proximity_graph.h"
#include "graph/query_hardness.h"
#include "serve/types.h"

namespace ganns {
namespace serve {

/// Lifecycle configuration of a mutable (NSW) sharded index.
struct IndexUpdateOptions {
  /// Extra adjacency capacity per shard as a fraction of its initial size:
  /// slack 0.5 lets a shard grow 50% before it is full. Compaction repacks
  /// the survivors, so removed points' slots become free capacity again.
  double capacity_slack = 0.5;
  /// Visited budget of the insert neighbor-selection search.
  std::size_t ef_insert = 64;
  /// Tombstone fraction at which a shard is scheduled for compaction.
  double compact_threshold = 0.25;
  /// Run the background compaction task (manual Compact() otherwise).
  bool auto_compact = true;
};

/// Build-time configuration of a ShardedIndex — the library's only index
/// options. Every shard is built by the GGraphCon paths over its slice of
/// the corpus and owns a private simulated device — n shards model n GPUs
/// serving one collection; one shard is the single-GPU index of the paper.
struct ShardBuildOptions {
  core::GraphKind kind = core::GraphKind::kNsw;
  /// Degree bounds and construction beam width.
  graph::NswParams nsw;
  /// HNSW level sampling (used when kind == kHnsw).
  graph::HnswParams hnsw;
  /// GGraphCon grouping (clamped to one group per 32 points of a shard).
  int num_groups = 64;
  /// Search kernel embedded in construction, and lanes per thread block.
  core::SearchKernel construction_kernel = core::SearchKernel::kGanns;
  int block_lanes = 32;
  /// Device spec replicated per shard.
  gpusim::DeviceSpec device;
  /// Online insert/delete behavior (NSW shards only).
  IndexUpdateOptions update;
  /// Compressed-vector serving: with precision != kFloat32 each shard trains
  /// a quantizer over its slice, searches traverse packed codes, and results
  /// are exact-reranked before the cross-shard merge.
  data::QuantizerOptions quantize;
};

/// One query of a routed batch (borrowed views — the engine owns the
/// request storage for the duration of the call).
struct RoutedQuery {
  std::span<const float> query;
  std::size_t k = 10;
  /// Total visited budget; the router derives the per-shard beam width.
  std::size_t budget = 64;
  /// Trace propagation across layers: when trace.sampled, the cluster
  /// router emits this query's cross-node causality flow under
  /// trace.trace_id. Defaulted (unsampled) everywhere tracing is off; never
  /// affects routing or results.
  TraceContext trace;
};

/// Simulated-device timing of one routed batch, plus the wall-clock stage
/// intervals request tracing projects into per-request span trees. Wall
/// timestamps are on the obs wall-span timeline (microseconds); recording
/// them is observation only — they never feed back into results or
/// simulated cycles.
struct RouteStats {
  /// Batch duration: shards execute on parallel devices, so the batch ends
  /// when the slowest shard's kernel drains.
  double sim_cycles = 0;
  double sim_seconds = 0;

  /// Wall interval of one shard's kernel execution within the fan-out.
  struct ShardSpan {
    double start_us = 0;
    double end_us = 0;
    double sim_cycles = 0;
  };
  /// [fan-out start, fan-out end]: all shards dispatched to all shards done.
  double fanout_start_us = 0;
  double fanout_end_us = 0;
  /// [merge start, merge end]: the deterministic k-way merge over shard rows.
  double merge_start_us = 0;
  double merge_end_us = 0;
  /// One entry per shard, indexed by shard number.
  std::vector<ShardSpan> shards;

  /// Per-query hardness signals, aggregated across shards (nearest shard
  /// entry, bushiest first hop, summed visited/budget), indexed by query.
  /// Filled from values the kernels already compute — zero charged cycles.
  std::vector<graph::QueryHardness> hardness;
};

/// A dataset split into `num_shards` contiguous partitions, each carrying
/// its own proximity graph and simulated device. Shard s initially owns
/// global ids [offset(s), offset(s) + initial_size(s)); inserted vectors
/// receive fresh global ids past the initial corpus. Search results are
/// rebased onto global ids before the deterministic top-k merge.
///
/// Mutability (NSW shards): readers pin an immutable per-shard snapshot
/// (epoch, graph, base vectors, id map) for the duration of a batch;
/// writers clone the state they change, apply the update, and publish a new
/// snapshot under a brief mutex — an RCU-style swap, so writers never block
/// in-flight batches and a batch never observes a torn graph. Deletions
/// tombstone in place; a background task compacts a shard (rebuilding its
/// graph over the survivors on the shard's update device) once its
/// tombstone fraction crosses the configured threshold.
///
/// After the first write the index must stay at its address (the background
/// compactor holds a reference); move it only while read-only.
class ShardedIndex {
 public:
  /// Splits `base` into contiguous slices and builds one graph per shard
  /// (GGraphCon NSW or HNSW per `options.kind`). Deterministic in
  /// (base, num_shards, options).
  static ShardedIndex Build(const data::Dataset& base, std::size_t num_shards,
                            const ShardBuildOptions& options);

  ShardedIndex(ShardedIndex&&) = default;
  /// Stops the target's background compactor before adopting the source.
  ShardedIndex& operator=(ShardedIndex&& other);
  ~ShardedIndex();

  std::size_t num_shards() const { return shards_.size(); }
  /// Live corpus points across shards (tombstoned points excluded).
  std::size_t size() const;
  std::size_t dim() const;
  VertexId shard_offset(std::size_t s) const { return shards_[s]->offset; }
  /// The current bottom-layer graph of shard s. Owner-thread use only: the
  /// reference is into the current snapshot and a concurrent writer may
  /// retire it.
  const graph::ProximityGraph& shard_graph(std::size_t s) const;

  /// The beam width each shard receives for a request with `budget`:
  /// max(k, budget / num_shards), so total candidate capacity is held
  /// constant as the shard count varies.
  std::size_t PerShardBudget(std::size_t budget, std::size_t k) const;

  /// Routes a batch across every shard — shards run concurrently on the
  /// host ThreadPool, one simulated kernel launch per shard with one block
  /// per query — then k-way merges each query's per-shard rows.
  /// Results are aggregated by (shard, query) index, never by completion
  /// order, so the output is bit-identical to SearchSerial.
  std::vector<std::vector<graph::Neighbor>> SearchBatch(
      std::span<const RoutedQuery> queries, core::SearchKernel kernel,
      RouteStats* stats = nullptr);

  /// Single-threaded reference execution: one launch per (query, shard),
  /// strictly in index order. Exists to state (and test) the determinism
  /// contract: batching, micro-batch composition, and shard parallelism
  /// never change what a query returns.
  std::vector<std::vector<graph::Neighbor>> SearchSerial(
      std::span<const RoutedQuery> queries, core::SearchKernel kernel);

  // --- Write routing (NSW shards only) ---

  /// Inserts one vector (normalized first on cosine corpora), routing it to
  /// the shard with the most free capacity. Returns the new global id, or
  /// std::nullopt when every shard is full (capacity_slack exhausted since
  /// the last compaction).
  std::optional<VertexId> Insert(std::span<const float> vector);

  /// Deletes a point by global id. Returns false when the id is unknown or
  /// already deleted. The point leaves search results immediately; its slot
  /// is reclaimed by compaction.
  bool Remove(VertexId global_id);

  /// Compacts shard s now if it has any tombstones (repacks the survivors
  /// into the lowest slots and rebuilds their graph at the same capacity).
  /// Returns true when a rebuild happened. The background task calls this
  /// automatically past the threshold; tests and tools can force it.
  bool Compact(std::size_t s);

  /// Lifecycle introspection.
  double TombstoneFraction(std::size_t s) const;
  std::uint64_t inserts() const;
  std::uint64_t removes() const;
  std::uint64_t compactions() const;
  /// Simulated device seconds charged to inserts/removes/compactions.
  double update_sim_seconds() const;
  /// Simulated device seconds Build spent constructing the graphs: the
  /// slowest shard's, since shards build on parallel devices. 0 for an
  /// index restored by LoadShards.
  double build_sim_seconds() const;

  /// Lifetime count of (query, shard) kernel searches dispatched. Expired
  /// requests must never increment this — asserted by the serving tests.
  std::uint64_t kernel_queries() const {
    return kernel_queries_->load(std::memory_order_relaxed);
  }

  /// Persists every shard as `<prefix>.shard<N>` in the GSH3 container:
  /// geometry header, graph record (an NSW graph, or an HNSW hierarchy),
  /// global id map and vector rows, so a mutated shard round-trips exactly,
  /// plus the quantization section of a compressed shard. The files are
  /// written under temporary names and renamed into place only once all of
  /// them are written (common/file.h ReplaceFiles). Returns false on IO
  /// failure, which leaves the files of a previous save untouched.
  bool SaveShards(const std::string& prefix) const;

  /// Rebuild-free load: restores shard state written by SaveShards over the
  /// same corpus. The graph kind and the compression come from the files
  /// (each shard's graph record names its kind; shards of different kinds
  /// are an error); `options` supplies the device and the construction and
  /// update settings later writes use. Every bulk section is checked
  /// against the bytes left in its file before it is allocated, then read
  /// with positioned reads spread over the global pool (common/file.h
  /// ReadBulk) into storage nothing fills first. Returns std::nullopt on
  /// missing/truncated/mismatched files; when `error` is non-null it
  /// receives a description naming the offending file/section and the
  /// expected vs actual values.
  static std::optional<ShardedIndex> LoadShards(
      const std::string& prefix, const data::Dataset& base,
      std::size_t num_shards, const ShardBuildOptions& options,
      std::string* error = nullptr);

  /// Per-vector resident bytes on the traversal path (codes when compressed,
  /// float rows otherwise).
  std::size_t resident_bytes_per_vector() const;

  // --- Cluster replica hooks ---

  /// Runs shard s's batch as a single simulated kernel launch on a
  /// *caller-owned* device instead of the shard's own, returning the
  /// launch's simulated cycles and writing global-id rows into rows[q].
  ///
  /// This is how the cluster layer models replicas without copying data:
  /// every replica of shard s pins the same immutable snapshot and derives
  /// the same per-shard budget, so any replica's rows — and therefore the
  /// cross-node merge — are bit-identical to single-node serving. Only the
  /// device timeline (whose simulated cycles are charged) is per-replica.
  double SearchShardReplica(std::size_t s, gpusim::Device& device,
                            std::span<const RoutedQuery> queries,
                            core::SearchKernel kernel,
                            std::span<std::vector<graph::Neighbor>> rows,
                            std::span<graph::QueryHardness> hardness = {});

  /// Approximate resident bytes of shard s's serving image (vector rows or
  /// codes plus adjacency): what a rejoining cluster replica must reload
  /// from the shard file, and what a rebalance must copy across the wire.
  std::size_t ShardImageBytes(std::size_t s) const;

 private:
  /// The reader-visible state of one shard: immutable once published.
  /// Writers build a fresh Snapshot (sharing whatever sub-state they did
  /// not change) and swap the shared_ptr under the shard's snapshot mutex.
  /// Slot -> global id map; unfilled on a value-less resize (LoadShard
  /// reads it straight in).
  using GlobalIds = UnfilledVector<VertexId>;

  struct Snapshot {
    std::uint64_t epoch = 0;
    /// Search entry vertex; kInvalidVertex when the shard has no live point.
    VertexId entry = 0;
    std::shared_ptr<const graph::ProximityGraph> graph;
    std::shared_ptr<const data::Dataset> base;
    /// Slot -> global id (pristine shards: offset + slot).
    std::shared_ptr<const GlobalIds> global_ids;
    /// Compressed path (null for exact shards). The quantizer is trained
    /// once per shard and shared across epochs; the code array mirrors the
    /// slot space, so writers clone-and-re-encode it alongside `base`.
    std::shared_ptr<const data::Quantizer> quantizer;
    std::shared_ptr<const data::QuantizedCodes> codes;

    /// Borrowed kernel view; disabled when the shard is exact.
    data::SearchQuantization Quant() const {
      if (quantizer == nullptr || codes == nullptr) return {};
      return {quantizer.get(), codes.get(), quantizer->rerank_factor()};
    }
  };

  /// One partition. unique_ptr keeps shard addresses stable under vector
  /// moves; the atomic flag and mutex make the struct non-movable anyway.
  struct Shard {
    VertexId offset = 0;
    std::size_t initial_size = 0;
    std::unique_ptr<gpusim::Device> device;  ///< read path
    /// Separate device for charged updates/compaction, so writer launches
    /// never interleave with concurrent reader launches on one timeline.
    std::unique_ptr<gpusim::Device> update_device;
    std::unique_ptr<graph::HnswGraph> hnsw;  ///< kind == kHnsw (static)
    mutable std::mutex snapshot_mutex;
    std::shared_ptr<const Snapshot> snapshot;
    std::atomic<bool> compaction_pending{false};
    /// Simulated seconds of the shard's construction (0 when loaded).
    double build_sim_seconds = 0;
  };

  /// Writer-side state, heap-held so the index stays movable while
  /// read-only. All writes (Insert/Remove/Compact) serialize on
  /// write_mutex; readers never take it.
  struct WriteState {
    std::mutex write_mutex;
    /// Global id -> (shard, slot) for inserted points. Entries may be stale
    /// after compaction; Remove() re-validates against the id map.
    std::unordered_map<VertexId, std::pair<std::uint32_t, VertexId>>
        dynamic_slots;
    VertexId next_global_id = 0;
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> removes{0};
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<double> update_sim_seconds{0.0};
    // Background compactor: lazily started on the first write.
    std::thread compactor;
    std::mutex queue_mutex;
    std::condition_variable queue_cv;
    std::vector<std::size_t> queue;
    bool stop = false;
  };

  ShardedIndex() = default;

  std::shared_ptr<const Snapshot> PinSnapshot(std::size_t s) const;
  void PublishSnapshot(std::size_t s, std::shared_ptr<const Snapshot> next);

  /// Runs one shard's batch as a single simulated kernel launch on the
  /// shard's own read device, writing global-id rows into rows[q]. Returns
  /// the launch's simulated cycles. `hardness` (optional, one slot per query
  /// when non-empty) receives this shard's per-query hardness signals.
  /// Delegates to SearchShardReplica with the shard's device.
  double SearchShard(std::size_t s, std::span<const RoutedQuery> queries,
                     core::SearchKernel kernel,
                     std::span<std::vector<graph::Neighbor>> rows,
                     std::span<graph::QueryHardness> hardness = {});

  static std::unique_ptr<Shard> BuildShard(const data::Dataset& base,
                                           VertexId begin, VertexId end,
                                           const ShardBuildOptions& options);
  /// One shard's contribution to the shared id state, gathered by a
  /// parallel LoadShards task and applied after the join in shard order.
  struct LoadedIds {
    /// One past the largest global id the shard has ever issued.
    VertexId next_global_id = 0;
    /// (global id, slot) of live points the offset arithmetic does not
    /// resolve: inserted points and compaction-moved initial ones.
    std::vector<std::pair<VertexId, VertexId>> moved;
  };
  /// Parses `path` into the shard covering [begin, end) of `base`, touching
  /// no shared state. Returns nullptr with `error` set on failure.
  static std::unique_ptr<Shard> LoadShard(const std::string& path,
                                          const data::Dataset& base,
                                          VertexId begin, VertexId end,
                                          const ShardBuildOptions& options,
                                          LoadedIds& ids, std::string& error);
  /// Shard s covers global ids [bounds[s], bounds[s + 1]) of a `total`-point
  /// corpus; Build and LoadShards split alike.
  static std::vector<VertexId> ShardBounds(std::size_t total,
                                           std::size_t num_shards);
  /// A pristine shard's slot -> global id map: offset + slot.
  static std::shared_ptr<const GlobalIds> IotaGlobalIds(
      VertexId offset, std::size_t n);
  static data::Dataset SliceDataset(const data::Dataset& base, VertexId begin,
                                    VertexId end);
  static core::GpuBuildParams MakeBuildParams(const ShardBuildOptions& options,
                                              std::size_t shard_size);
  core::UpdateParams MakeUpdateParams() const;

  /// Resolves a global id to (shard, slot) without validating liveness.
  std::optional<std::pair<std::size_t, VertexId>> ResolveGlobalId(
      VertexId global_id) const;

  bool CompactLocked(std::size_t s);
  void ScheduleCompaction(std::size_t s);
  void EnsureCompactorLocked();
  void CompactorLoop();
  void StopCompactor();
  void RecordTombstoneGauge() const;

  ShardBuildOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Initial corpus size: global ids below this resolve by shard offsets.
  std::size_t initial_total_ = 0;
  std::unique_ptr<WriteState> writes_ = std::make_unique<WriteState>();
  /// Heap-held so the index stays movable (std::atomic is not).
  std::unique_ptr<std::atomic<std::uint64_t>> kernel_queries_ =
      std::make_unique<std::atomic<std::uint64_t>>(0);
};

}  // namespace serve
}  // namespace ganns

#endif  // GANNS_SERVE_SHARD_ROUTER_H_
