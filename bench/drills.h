#ifndef GANNS_BENCH_DRILLS_H_
#define GANNS_BENCH_DRILLS_H_

// The workload drivers shared by the bench/ binaries and the `ganns` CLI:
// closed-loop serving, the online-update drill with its survivor oracle,
// batched search (single-node or cluster), and the Fig. 7 phase / stage
// breakdown of per-query profiles. Each driver exists once; callers differ
// only in how they print what it returns.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/ganns_search.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "serve/serve_engine.h"
#include "serve/shard_router.h"
#include "song/song_search.h"

namespace ganns {
namespace bench {

using NeighborRows = std::vector<std::vector<graph::Neighbor>>;

/// One RoutedQuery per row of `queries`, borrowing the row's storage.
std::vector<serve::RoutedQuery> RouteQueries(const data::Dataset& queries,
                                             std::size_t k,
                                             std::size_t budget);

/// The neighbor ids of each row, in row order.
std::vector<std::vector<VertexId>> NeighborIds(const NeighborRows& rows);

// --- Closed-loop serving ---

struct ClosedLoopRun {
  /// Neighbor ids per query (empty for requests not answered kOk).
  std::vector<std::vector<VertexId>> ids;
  /// Latency of every kOk response, sorted ascending (wall clock).
  std::vector<double> latencies_us;
  serve::ServeCounters counters;
  double sim_seconds = 0;
  /// First submission to last response (wall clock).
  double wall_seconds = 0;

  /// Served requests per simulated second.
  double SimQps() const;
};

/// Starts `engine`, submits every row of `queries` at once (request id =
/// row; `deadline_us` > 0 gives each request that deadline), runs
/// `while_queued` (when set) while the requests are in flight, collects
/// every response, and shuts the engine down.
ClosedLoopRun RunClosedLoop(serve::ServeEngine& engine,
                            const data::Dataset& queries, std::size_t k,
                            std::size_t budget, long deadline_us = 0,
                            const std::function<void()>& while_queued = {});

// --- Batched search ---

/// Searches `routed` through `index` (a cluster::ClusterIndex, or the
/// serve::ShardedIndex that is its bit-identity reference) in consecutive
/// batches of `batch` queries; one row per query.
template <typename Index>
NeighborRows SearchInBatches(Index& index,
                             std::span<const serve::RoutedQuery> routed,
                             std::size_t batch, core::SearchKernel kernel) {
  NeighborRows rows(routed.size());
  for (std::size_t q = 0; q < routed.size(); q += batch) {
    const std::size_t count = std::min(batch, routed.size() - q);
    auto batch_rows = index.SearchBatch(routed.subspan(q, count), kernel);
    std::move(batch_rows.begin(), batch_rows.end(), rows.begin() + q);
  }
  return rows;
}

// --- Update drill ---

enum class UpdateOp : std::uint8_t { kRemove, kInsert };

/// Victims walk the live set with this stride, so removes spread across
/// shards and hit both initial and freshly inserted points.
constexpr std::size_t kVictimStride = 131;

/// The drill's op sequence: removes first, alternating with inserts; once
/// either kind runs out, the rest of the other fills the tail.
std::vector<UpdateOp> UpdateSchedule(std::size_t inserts, std::size_t removes);

struct UpdateTally {
  std::size_t inserts = 0;  ///< attempted
  std::size_t removes = 0;
  std::size_t failed_inserts = 0;  ///< capacity exhausted: counted, not fatal
  /// Wall-clock latency of every op, sorted ascending.
  std::vector<double> op_latencies_us;
  double wall_seconds = 0;

  std::size_t applied() const { return inserts + removes - failed_inserts; }
};

/// Brute-force oracle over the drill's survivors. Search results carry
/// global ids; Recall translates them to survivor rows before scoring.
struct SurvivorOracle {
  data::Dataset survivors;
  std::map<VertexId, VertexId> gid_to_row;
  data::GroundTruth truth;

  double Recall(const NeighborRows& rows, std::size_t k) const;
};

/// The survivor set of an index under online updates: global id -> vector,
/// in id order so the oracle is deterministic.
class UpdateDrill {
 public:
  /// Every row of `base` starts live under its row id.
  explicit UpdateDrill(const data::Dataset& base);

  /// Applies UpdateSchedule(inserts, removes) to `index`: removes take the
  /// live point at rank (step * kVictimStride) % live, inserts take rows of
  /// `pool` in order. std::nullopt (after printing why) when a remove of a
  /// live id fails. Requires removes <= the live count.
  std::optional<UpdateTally> Apply(serve::ShardedIndex& index,
                                   const data::Dataset& pool,
                                   std::size_t inserts, std::size_t removes);

  SurvivorOracle Oracle(const data::Dataset& queries, std::size_t k) const;

 private:
  std::size_t dim_;
  data::Metric metric_;
  std::map<VertexId, std::vector<float>> live_;
};

/// The largest tombstone fraction over the index's shards.
double MaxTombstoneFraction(const serve::ShardedIndex& index);

// --- Fig. 7 breakdown ---

/// Per-query profiles summed over a batch: hop and distance totals plus
/// the cycle split across GANNS's phases or SONG's stages.
struct ProfileSummary {
  std::uint64_t hops = 0;
  std::uint64_t distances = 0;
  std::uint64_t redundant = 0;  ///< GANNS only
  /// "phases: name=x.x% ..." (GANNS) or "stages: name=x.x% ..." (SONG).
  std::string split;
};

ProfileSummary Summarize(const std::vector<core::GannsQueryProfile>& profiles);
ProfileSummary Summarize(const std::vector<song::SongQueryProfile>& profiles);

}  // namespace bench
}  // namespace ganns

#endif  // GANNS_BENCH_DRILLS_H_
