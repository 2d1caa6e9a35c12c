// update_workload — mixed read/write benchmark of the mutable index
// lifecycle, in three phases per shard count (1, 2):
//
//  * baseline: search the pristine index (recall + simulated QPS — the
//    read-path reference point);
//  * mixed: apply an alternating insert/remove workload (10% of the corpus
//    each) through the online write paths, then search the mutated graph.
//    Reports simulated updates/s (the insert search + link work charged to
//    the shard's update device) plus the post-workload recall against a
//    brute-force oracle over the *surviving* points;
//  * post_compact: force a synchronous compaction of every shard (rebuild
//    over the survivors) and search again. Compaction must not cost recall:
//    the gate compares this phase's recall against the same survivor oracle;
//  * concurrent: the serving engine drains a closed-loop query load while
//    this thread applies a second insert/remove wave through the write
//    paths — the mixed read/write operating point. How reads and writes
//    interleave depends on the host schedule, so the phase reports only the
//    served count (deterministic: no deadlines, every request completes).
//
// Auto-compaction is disabled so the phase boundaries — and therefore every
// simulated-clock number — are deterministic: recall, sim_qps, and sim_ups
// reproduce bit-for-bit across runs at a fixed seed. Host wall time under a
// mixed read/write load is measured by perfbench's stream-rw workload.
// Writes the table as JSON (argv[1], default BENCH_update.json).

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/bench_common.h"
#include "bench/drills.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
// Total visited budget per query, split evenly over shards (see
// serve_throughput.cc for the operating-point rationale).
constexpr std::size_t kBudget = 512;

struct SearchResult {
  double recall = 0;
  double sim_qps = 0;
};

/// One batch over every query, scored against `oracle` (the workload's own
/// ground truth when null).
SearchResult RunSearch(serve::ShardedIndex& index,
                       const bench::Workload& workload,
                       const bench::SurvivorOracle* oracle) {
  serve::RouteStats stats;
  const auto rows = index.SearchBatch(
      bench::RouteQueries(workload.queries, kK, kBudget),
      core::SearchKernel::kGanns, &stats);
  return {oracle != nullptr ? oracle->Recall(rows, kK)
                            : data::MeanRecall(bench::NeighborIds(rows),
                                               workload.truth, kK),
          bench::Rate(static_cast<double>(rows.size()), stats.sim_seconds)};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("update_workload", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);
  const std::size_t n = workload.base.size();
  const std::size_t num_updates = std::max<std::size_t>(n / 10, 50);
  std::printf("corpus %zu x %zud, %zu queries, k=%zu, budget=%zu, "
              "%zu inserts + %zu removes\n",
              n, workload.base.dim(), workload.queries.size(), kK, kBudget,
              num_updates, num_updates);

  // The insert pool, drawn from the same distribution as the corpus.
  const data::Dataset pool = data::GenerateBase(
      workload.spec, num_updates, config.seed + 17);

  std::string json =
      "{\n  \"provenance\": " + bench::ProvenanceJson() +
      ",\n  \"results\": [\n";
  bool first = true;
  for (const std::size_t shards : {1u, 2u}) {
    serve::ShardBuildOptions build_options;
    build_options.update.auto_compact = false;  // deterministic phases
    serve::ShardedIndex index =
        serve::ShardedIndex::Build(workload.base, shards, build_options);

    const SearchResult baseline =
        RunSearch(index, workload, nullptr);
    std::printf("shards=%zu baseline: recall@%zu=%.4f sim_qps=%.0f\n", shards,
                kK, baseline.recall, baseline.sim_qps);

    bench::UpdateDrill drill(workload.base);
    const auto tally = drill.Apply(index, pool, num_updates, num_updates);
    if (!tally.has_value()) return 1;
    const std::size_t applied = tally->applied();
    const double sim_ups = bench::Rate(static_cast<double>(applied),
                                       index.update_sim_seconds());
    const double max_tombstones = bench::MaxTombstoneFraction(index);

    // Survivor oracle shared by the mixed and post-compaction phases.
    const bench::SurvivorOracle oracle = drill.Oracle(workload.queries, kK);
    const SearchResult mixed = RunSearch(index, workload, &oracle);
    std::printf("shards=%zu mixed: recall@%zu=%.4f sim_qps=%.0f "
                "sim_ups=%.0f tombstones=%.3f\n",
                shards, kK, mixed.recall, mixed.sim_qps, sim_ups,
                max_tombstones);

    for (std::size_t s = 0; s < index.num_shards(); ++s) index.Compact(s);
    const SearchResult compacted = RunSearch(index, workload, &oracle);
    std::printf("shards=%zu post_compact: recall@%zu=%.4f sim_qps=%.0f "
                "compactions=%llu\n",
                shards, kK, compacted.recall, compacted.sim_qps,
                static_cast<unsigned long long>(index.compactions()));

    // Concurrent phase: serve a closed-loop query load while this thread
    // pushes a second update wave through the write paths. The snapshot
    // design promises writers never block the batch loop; this phase is
    // where that promise meets a realistic schedule.
    const data::Dataset pool2 = data::GenerateBase(
        workload.spec, num_updates, config.seed + 31);
    serve::ServeEngine engine(index, serve::ServeOptions{});
    std::optional<bench::UpdateTally> wave;
    const bench::ClosedLoopRun concurrent = bench::RunClosedLoop(
        engine, workload.queries, kK, kBudget, 0,
        [&] { wave = drill.Apply(index, pool2, num_updates, num_updates); });
    if (!wave.has_value()) return 1;
    const std::uint64_t served = concurrent.counters.served;
    std::printf("shards=%zu concurrent: served=%llu\n", shards,
                static_cast<unsigned long long>(served));

    bench::Appendf(
        json,
        "%s    {\"shards\": %zu,\n"
        "     \"baseline\": {\"recall\": %.4f, \"sim_qps\": %.0f},\n",
        first ? "" : ",\n", shards, baseline.recall, baseline.sim_qps);
    bench::Appendf(json,
                   "     \"mixed\": {\"recall\": %.4f, \"sim_qps\": %.0f, "
                   "\"applied\": %zu, \"sim_ups\": %.0f, "
                   "\"tombstone_fraction\": %.4f},\n",
                   mixed.recall, mixed.sim_qps, applied, sim_ups,
                   max_tombstones);
    bench::Appendf(json,
                   "     \"post_compact\": {\"recall\": %.4f, "
                   "\"sim_qps\": %.0f, \"compactions\": %llu},\n",
                   compacted.recall, compacted.sim_qps,
                   static_cast<unsigned long long>(index.compactions()));
    bench::Appendf(json, "     \"concurrent\": {\"served\": %llu}}",
                   static_cast<unsigned long long>(served));
    first = false;
  }
  json += "\n  ]\n}\n";

  return bench::WriteReport(argc, argv, "BENCH_update.json", json);
}
