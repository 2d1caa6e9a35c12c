#include "bench/drills.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <future>
#include <iterator>

#include "bench/bench_common.h"
#include "common/logging.h"

namespace ganns {
namespace bench {
namespace {

/// Sums each profile's `cycles` over the batch into "<label>: name=x.x% ...".
template <typename Profile, std::size_t N>
std::string CycleSplit(const char* label,
                       const std::vector<Profile>& profiles,
                       std::array<double, N> Profile::*cycles,
                       const char* (*name)(int)) {
  std::array<double, N> sum{};
  double total = 0;
  for (const Profile& p : profiles) {
    for (std::size_t i = 0; i < N; ++i) {
      sum[i] += (p.*cycles)[i];
      total += (p.*cycles)[i];
    }
  }
  std::string split = std::string(label) + ":";
  for (std::size_t i = 0; i < N; ++i) {
    Appendf(split, " %s=%.1f%%", name(static_cast<int>(i)),
            total > 0 ? 100 * sum[i] / total : 0.0);
  }
  return split;
}

}  // namespace

std::vector<serve::RoutedQuery> RouteQueries(const data::Dataset& queries,
                                             std::size_t k,
                                             std::size_t budget) {
  std::vector<serve::RoutedQuery> routed(queries.size());
  for (std::size_t q = 0; q < routed.size(); ++q) {
    routed[q].query = queries.Point(static_cast<VertexId>(q));
    routed[q].k = k;
    routed[q].budget = budget;
  }
  return routed;
}

std::vector<std::vector<VertexId>> NeighborIds(const NeighborRows& rows) {
  std::vector<std::vector<VertexId>> ids(rows.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    for (const auto& neighbor : rows[q]) ids[q].push_back(neighbor.id);
  }
  return ids;
}

double ClosedLoopRun::SimQps() const {
  return Rate(static_cast<double>(counters.served), sim_seconds);
}

ClosedLoopRun RunClosedLoop(serve::ServeEngine& engine,
                            const data::Dataset& queries, std::size_t k,
                            std::size_t budget, long deadline_us,
                            const std::function<void()>& while_queued) {
  engine.Start();
  const std::size_t num_queries = queries.size();
  const auto start = serve::ServeClock::now();
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    serve::QueryRequest request;
    request.id = q;
    const auto point = queries.Point(static_cast<VertexId>(q));
    request.query.assign(point.begin(), point.end());
    request.k = k;
    request.budget = budget;
    if (deadline_us > 0) {
      request.deadline = serve::DeadlineAfterMicros(deadline_us);
    }
    futures.push_back(engine.Submit(std::move(request)));
  }
  if (while_queued) while_queued();

  ClosedLoopRun run;
  run.ids.resize(num_queries);
  run.latencies_us.reserve(num_queries);
  for (auto& future : futures) {
    serve::QueryResponse response = future.get();
    if (response.status != serve::StatusCode::kOk) continue;
    run.latencies_us.push_back(response.latency_us);
    for (const auto& neighbor : response.neighbors) {
      run.ids[response.id].push_back(neighbor.id);
    }
  }
  run.wall_seconds =
      std::chrono::duration<double>(serve::ServeClock::now() - start).count();
  engine.Shutdown();
  run.counters = engine.counters();
  run.sim_seconds = engine.total_sim_seconds();
  std::sort(run.latencies_us.begin(), run.latencies_us.end());
  return run;
}

std::vector<UpdateOp> UpdateSchedule(std::size_t inserts,
                                     std::size_t removes) {
  std::vector<UpdateOp> ops;
  ops.reserve(inserts + removes);
  std::size_t inserted = 0, removed = 0;
  for (std::size_t i = 0; i < inserts + removes; ++i) {
    const bool remove =
        i % 2 == 0 ? removed < removes : inserted >= inserts;
    ops.push_back(remove ? UpdateOp::kRemove : UpdateOp::kInsert);
    ++(remove ? removed : inserted);
  }
  return ops;
}

double SurvivorOracle::Recall(const NeighborRows& rows, std::size_t k) const {
  std::vector<std::vector<VertexId>> ids(rows.size());
  for (std::size_t q = 0; q < rows.size(); ++q) {
    for (const auto& neighbor : rows[q]) {
      const auto it = gid_to_row.find(neighbor.id);
      ids[q].push_back(it != gid_to_row.end()
                           ? it->second
                           : static_cast<VertexId>(survivors.size()));
    }
  }
  return data::MeanRecall(ids, truth, k);
}

UpdateDrill::UpdateDrill(const data::Dataset& base)
    : dim_(base.dim()), metric_(base.metric()) {
  for (VertexId v = 0; v < base.size(); ++v) {
    const auto point = base.Point(v);
    live_.emplace(v, std::vector<float>(point.begin(), point.end()));
  }
}

std::optional<UpdateTally> UpdateDrill::Apply(serve::ShardedIndex& index,
                                              const data::Dataset& pool,
                                              std::size_t inserts,
                                              std::size_t removes) {
  GANNS_CHECK(removes <= live_.size());
  GANNS_CHECK(inserts <= pool.size());
  UpdateTally tally;
  tally.op_latencies_us.reserve(inserts + removes);
  const std::vector<UpdateOp> ops = UpdateSchedule(inserts, removes);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto op_start = std::chrono::steady_clock::now();
    if (ops[i] == UpdateOp::kRemove) {
      auto victim = live_.begin();
      std::advance(victim, (i * kVictimStride) % live_.size());
      if (!index.Remove(victim->first)) {
        std::fprintf(stderr, "remove of live id %u failed\n", victim->first);
        return std::nullopt;
      }
      live_.erase(victim);
      ++tally.removes;
    } else {
      const auto point = pool.Point(static_cast<VertexId>(tally.inserts));
      const auto gid = index.Insert(point);
      ++tally.inserts;
      if (gid.has_value()) {
        live_.emplace(*gid, std::vector<float>(point.begin(), point.end()));
      } else {
        ++tally.failed_inserts;
      }
    }
    tally.op_latencies_us.push_back(std::chrono::duration<double, std::micro>(
                                        std::chrono::steady_clock::now() -
                                        op_start)
                                        .count());
  }
  tally.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  std::sort(tally.op_latencies_us.begin(), tally.op_latencies_us.end());
  return tally;
}

SurvivorOracle UpdateDrill::Oracle(const data::Dataset& queries,
                                   std::size_t k) const {
  SurvivorOracle oracle{data::Dataset("survivors", dim_, metric_), {}, {}};
  oracle.survivors.Reserve(live_.size());
  for (const auto& [gid, point] : live_) {
    oracle.gid_to_row.emplace(gid,
                              static_cast<VertexId>(oracle.survivors.size()));
    oracle.survivors.Append(point);
  }
  oracle.truth = data::BruteForceKnn(oracle.survivors, queries, k);
  return oracle;
}

double MaxTombstoneFraction(const serve::ShardedIndex& index) {
  double fraction = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    fraction = std::max(fraction, index.TombstoneFraction(s));
  }
  return fraction;
}

ProfileSummary Summarize(
    const std::vector<core::GannsQueryProfile>& profiles) {
  ProfileSummary summary;
  for (const core::GannsQueryProfile& p : profiles) {
    summary.hops += p.hops;
    summary.distances += p.distance_computations;
    summary.redundant += p.redundant_distances;
  }
  summary.split =
      CycleSplit("phases", profiles, &core::GannsQueryProfile::phase_cycles,
                 core::GannsPhaseName);
  return summary;
}

ProfileSummary Summarize(const std::vector<song::SongQueryProfile>& profiles) {
  ProfileSummary summary;
  for (const song::SongQueryProfile& p : profiles) {
    summary.hops += p.hops;
    summary.distances += p.distance_computations;
  }
  summary.split =
      CycleSplit("stages", profiles, &song::SongQueryProfile::stage_cycles,
                 song::SongStageName);
  return summary;
}

}  // namespace bench
}  // namespace ganns
