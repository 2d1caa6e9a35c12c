#include "bench/sweep.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/timer.h"

namespace ganns {
namespace bench {
namespace {

SweepPoint FromBatch(const std::string& algorithm, const std::string& setting,
                     const graph::BatchSearchResult& batch,
                     const Workload& workload, std::size_t k) {
  SweepPoint point;
  point.algorithm = algorithm;
  point.setting = setting;
  point.recall = data::MeanRecall(batch.results, workload.truth, k);
  point.qps = batch.qps;
  point.sim_seconds = batch.sim_seconds;
  const double total = batch.kernel.work_total();
  if (total > 0) {
    point.distance_fraction =
        batch.kernel.work_cycles[static_cast<int>(
            gpusim::CostCategory::kDistance)] /
        total;
    point.ds_fraction = batch.kernel.work_cycles[static_cast<int>(
                            gpusim::CostCategory::kDataStructure)] /
                        total;
  }
  return point;
}

}  // namespace

std::vector<core::GannsParams> DefaultGannsLadder(std::size_t k) {
  // (l_n, e) pairs in ascending accuracy; e is the fine-grained knob (§V).
  static constexpr struct {
    std::size_t l_n;
    std::size_t e;
  } kLadder[] = {{32, 8},   {32, 16},  {32, 32},  {64, 16},
                 {64, 32},  {64, 64},  {128, 32}, {128, 64},
                 {128, 128}, {256, 128}, {256, 256}};
  std::vector<core::GannsParams> ladder;
  for (const auto& step : kLadder) {
    if (step.l_n < k) continue;
    core::GannsParams params;
    params.k = k;
    params.l_n = step.l_n;
    params.e = step.e;
    ladder.push_back(params);
  }
  return ladder;
}

std::vector<song::SongParams> DefaultSongLadder(std::size_t k) {
  static constexpr std::size_t kQueues[] = {10,  16,  24,  32,  48, 64,
                                            96, 128, 192, 256};
  std::vector<song::SongParams> ladder;
  for (std::size_t queue : kQueues) {
    song::SongParams params;
    params.k = k;
    params.queue_size = queue < k ? k : queue;
    ladder.push_back(params);
  }
  return ladder;
}

SweepPoint MeasureGanns(gpusim::Device& device,
                        const graph::ProximityGraph& graph,
                        const Workload& workload,
                        const core::GannsParams& params, std::size_t k,
                        int block_lanes) {
  ScopedWallSpan span("bench.measure_ganns");
  const graph::BatchSearchResult batch = core::GannsSearchBatch(
      device, graph, workload.base, workload.queries, params, block_lanes);
  std::ostringstream setting;
  setting << "l_n=" << params.l_n << ",e=" << params.EffectiveE();
  return FromBatch("GANNS", setting.str(), batch, workload, k);
}

SweepPoint MeasureSong(gpusim::Device& device,
                       const graph::ProximityGraph& graph,
                       const Workload& workload,
                       const song::SongParams& params, std::size_t k,
                       int block_lanes) {
  ScopedWallSpan span("bench.measure_song");
  const graph::BatchSearchResult batch = song::SongSearchBatch(
      device, graph, workload.base, workload.queries, params, block_lanes);
  std::ostringstream setting;
  setting << "queue=" << params.queue_size;
  return FromBatch("SONG", setting.str(), batch, workload, k);
}

std::vector<SweepPoint> SweepGanns(gpusim::Device& device,
                                   const graph::ProximityGraph& graph,
                                   const Workload& workload, std::size_t k) {
  std::vector<SweepPoint> points;
  for (const core::GannsParams& params : DefaultGannsLadder(k)) {
    points.push_back(MeasureGanns(device, graph, workload, params, k));
  }
  return points;
}

std::vector<SweepPoint> SweepSong(gpusim::Device& device,
                                  const graph::ProximityGraph& graph,
                                  const Workload& workload, std::size_t k) {
  std::vector<SweepPoint> points;
  for (const song::SongParams& params : DefaultSongLadder(k)) {
    points.push_back(MeasureSong(device, graph, workload, params, k));
  }
  return points;
}

std::size_t ClosestIndexToRecall(const std::vector<SweepPoint>& points,
                                 double target) {
  GANNS_CHECK(!points.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (std::abs(points[i].recall - target) <
        std::abs(points[best].recall - target)) {
      best = i;
    }
  }
  return best;
}

const SweepPoint& ClosestToRecall(const std::vector<SweepPoint>& points,
                                  double target) {
  return points[ClosestIndexToRecall(points, target)];
}

}  // namespace bench
}  // namespace ganns
