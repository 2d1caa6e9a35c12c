// Figure 7: execution-time breakdown of GANNS (left) and SONG (right) at
// recall ~= 0.8, k = 10, across the Table I datasets. The paper reports that
// 50-90% of SONG's time on NSW graphs goes to data-structure operations
// while GANNS's data-maintenance share is small.
//
// With GANNS_TRACING=on the bench additionally prints a per-phase cycle
// breakdown taken from the per-query profiles (core::GannsQueryProfile /
// song::SongQueryProfile) — the same six phases Figure 3 names. The default
// output is unchanged byte-for-byte: profiling only reads the simulator's
// cycle counters.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "bench/drills.h"
#include "bench/sweep.h"
#include "obs/trace.h"

namespace {

constexpr std::size_t kK = 10;
constexpr double kTargetRecall = 0.8;

}  // namespace

int main() {
  using namespace ganns;
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("Figure 7: execution time breakdown at recall~0.8 (k=10)",
                     config);
  std::printf("%-10s %-6s %-14s %8s %10s %10s %10s\n", "dataset", "algo",
              "setting", "recall", "dist%", "ds-ops%", "other%");

  const bool profiled = obs::TracingEnabled() || obs::MetricsEnabled();

  for (const data::DatasetSpec& spec : data::PaperDatasets()) {
    const bench::Workload workload =
        bench::MakeWorkload(spec.name, config, kK);
    const graph::ProximityGraph nsw =
        bench::CachedNswGraph(workload, {}, config);
    gpusim::Device device;

    const auto report = [&](const bench::SweepPoint& point) {
      std::printf("%-10s %-6s %-14s %8.3f %9.1f%% %9.1f%% %9.1f%%\n",
                  spec.name.c_str(), point.algorithm.c_str(),
                  point.setting.c_str(), point.recall,
                  100 * point.distance_fraction, 100 * point.ds_fraction,
                  100 * (1 - point.distance_fraction - point.ds_fraction));
    };

    const auto ganns_points = bench::SweepGanns(device, nsw, workload, kK);
    const std::size_t gi =
        bench::ClosestIndexToRecall(ganns_points, kTargetRecall);
    report(ganns_points[gi]);
    if (profiled) {
      // Re-run the chosen setting collecting per-query profiles; the phase
      // split is the profile-based view of the same breakdown.
      const auto ladder = bench::DefaultGannsLadder(kK);
      std::vector<core::GannsQueryProfile> profiles;
      core::GannsSearchBatch(device, nsw, workload.base, workload.queries,
                             ladder[gi], 32, 0, &profiles);
      std::printf("  %s\n", bench::Summarize(profiles).split.c_str());
    }

    const auto song_points = bench::SweepSong(device, nsw, workload, kK);
    const std::size_t si =
        bench::ClosestIndexToRecall(song_points, kTargetRecall);
    report(song_points[si]);
    if (profiled) {
      const auto ladder = bench::DefaultSongLadder(kK);
      std::vector<song::SongQueryProfile> profiles;
      song::SongSearchBatch(device, nsw, workload.base, workload.queries,
                            ladder[si], 32, 0, &profiles);
      std::printf("  %s\n", bench::Summarize(profiles).split.c_str());
    }
  }
  return 0;
}
