// Ablation (§III-A design space): SONG's visited-structure alternatives.
//
// The paper argues: the bounded open-addressing hash is the practical GPU
// choice; an unbounded hash avoids re-computation but grows without bound;
// a bloom filter loses recall to false positives; a full bitmap is exact
// but pays an uncoalesced random global access per probe. This bench runs
// SONG with each structure at the same queue budget and reports recall,
// throughput and distance volume.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/sweep.h"

namespace {

constexpr std::size_t kK = 10;

}  // namespace

int main() {
  using namespace ganns;
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("Ablation: SONG visited-structure variants", config);
  std::printf("%-10s %-12s %8s %12s %16s\n", "dataset", "visited", "recall",
              "QPS", "distances/query");

  for (const char* dataset : {"SIFT1M", "GloVe200"}) {
    const bench::Workload workload = bench::MakeWorkload(dataset, config, kK);
    const graph::ProximityGraph nsw =
        bench::CachedNswGraph(workload, {}, config);
    gpusim::Device device;

    for (const song::VisitedKind kind :
         {song::VisitedKind::kHashBounded, song::VisitedKind::kHashUnbounded,
          song::VisitedKind::kBloom, song::VisitedKind::kBitmap}) {
      song::SongParams params;
      params.k = kK;
      params.queue_size = 64;
      params.visited = kind;
      const auto point = bench::MeasureSong(device, nsw, workload, params, kK);

      // Distance volume from a profiled pass over the same queries.
      double distances = 0;
      for (std::size_t q = 0; q < workload.queries.size(); ++q) {
        gpusim::BlockContext block(0, 32, 48 * 1024, &device.spec().cost);
        song::SongQueryProfile profile;
        song::SongSearchOne(block, nsw, workload.base,
                            workload.queries.Point(static_cast<VertexId>(q)),
                            params, 0, &profile);
        distances += profile.distance_computations;
      }
      std::printf("%-10s %-12s %8.3f %12.0f %16.1f\n", dataset,
                  song::VisitedKindName(kind), point.recall, point.qps,
                  distances / static_cast<double>(workload.queries.size()));
    }
  }
  return 0;
}
