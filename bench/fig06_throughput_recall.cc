// Figure 6: queries-per-second vs. recall for GANNS and SONG on NSW graphs,
// k = 10, across the ten Table I datasets. The paper's findings: both
// algorithms reach the same recall range; GANNS is consistently faster,
// ~1.5x on high-dimensional GIST up to ~5x on SIFT1M at recall ~0.8.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/sweep.h"

namespace {

constexpr std::size_t kK = 10;

void PrintSeries(const char* dataset,
                 const std::vector<ganns::bench::SweepPoint>& points) {
  for (const auto& p : points) {
    // sim_sec is the deterministic simulated duration of the batch.
    std::printf("%-10s %-6s %-16s %8.3f %12.0f %12.3e\n", dataset,
                p.algorithm.c_str(), p.setting.c_str(), p.recall, p.qps,
                p.sim_seconds);
  }
}

}  // namespace

int main() {
  using namespace ganns;
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("Figure 6: throughput vs recall (k=10, NSW graphs)",
                     config);
  std::printf("%-10s %-6s %-16s %8s %12s %12s\n", "dataset", "algo",
              "setting", "recall", "QPS", "sim_sec");

  for (const data::DatasetSpec& spec : data::PaperDatasets()) {
    const bench::Workload workload =
        bench::MakeWorkload(spec.name, config, kK);
    const graph::ProximityGraph nsw =
        bench::CachedNswGraph(workload, {}, config);
    gpusim::Device device;

    const auto ganns_points = bench::SweepGanns(device, nsw, workload, kK);
    const auto song_points = bench::SweepSong(device, nsw, workload, kK);
    PrintSeries(spec.name.c_str(), ganns_points);
    PrintSeries(spec.name.c_str(), song_points);

    // Paper-style headline: speedup at recall ~0.8.
    const auto& g = bench::ClosestToRecall(ganns_points, 0.8);
    const auto& s = bench::ClosestToRecall(song_points, 0.8);
    std::printf("# %-10s speedup at recall~0.8: GANNS %.0f QPS (r=%.3f) vs "
                "SONG %.0f QPS (r=%.3f) -> %.2fx\n",
                spec.name.c_str(), g.qps, g.recall, s.qps, s.recall,
                s.qps > 0 ? g.qps / s.qps : 0.0);
  }
  return 0;
}
