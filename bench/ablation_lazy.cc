// Ablation (§III-A support): what does the lazy strategy actually buy?
//
// Compares, on SIFT1M and GIST NSW graphs at the same budget:
//  (1) GANNS as published (lazy update + lazy check);
//  (2) GANNS without the lazy check (phase 4 off) — redundant computation
//      propagates and result quality drops at equal cost;
//  (3) SONG, i.e. eager hash-based visited tracking on the host lane —
//      minimal redundant distance work, maximal data-structure cost.
// Reports recall, QPS, and the measured redundancy rate.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/sweep.h"

namespace {

constexpr std::size_t kK = 10;

}  // namespace

int main() {
  using namespace ganns;
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("Ablation: lazy check vs no check vs eager hash (SONG)",
                     config);
  std::printf("%-10s %-22s %8s %12s %14s\n", "dataset", "variant", "recall",
              "QPS", "redundant/dist");

  for (const char* dataset : {"SIFT1M", "GIST"}) {
    const bench::Workload workload = bench::MakeWorkload(dataset, config, kK);
    const graph::ProximityGraph nsw =
        bench::CachedNswGraph(workload, {}, config);
    gpusim::Device device;

    // Redundancy measurement at the common setting.
    core::GannsParams params;
    params.k = kK;
    params.l_n = 64;
    double redundant = 0;
    double distances = 0;
    for (std::size_t q = 0; q < workload.queries.size(); ++q) {
      gpusim::BlockContext block(0, 32, 48 * 1024, &device.spec().cost);
      core::GannsQueryProfile profile;
      core::GannsSearchOne(block, nsw, workload.base,
                           workload.queries.Point(static_cast<VertexId>(q)),
                           params, 0, &profile);
      redundant += profile.redundant_distances;
      distances += profile.distance_computations;
    }
    const double redundancy = redundant / distances;

    const auto lazy = bench::MeasureGanns(device, nsw, workload, params, kK);
    core::GannsParams no_check = params;
    no_check.disable_lazy_check = true;
    const auto unchecked =
        bench::MeasureGanns(device, nsw, workload, no_check, kK);
    song::SongParams song_params;
    song_params.k = kK;
    song_params.queue_size = 64;
    const auto eager =
        bench::MeasureSong(device, nsw, workload, song_params, kK);

    std::printf("%-10s %-22s %8.3f %12.0f %13.1f%%\n", dataset,
                "GANNS (lazy check)", lazy.recall, lazy.qps,
                100 * redundancy);
    std::printf("%-10s %-22s %8.3f %12.0f %14s\n", dataset,
                "GANNS (no check)", unchecked.recall, unchecked.qps, "-");
    std::printf("%-10s %-22s %8.3f %12.0f %14s\n", dataset,
                "SONG (eager hash)", eager.recall, eager.qps, "-");
  }
  return 0;
}
