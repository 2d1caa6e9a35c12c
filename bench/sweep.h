#ifndef GANNS_BENCH_SWEEP_H_
#define GANNS_BENCH_SWEEP_H_

#include <cstddef>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/ganns_search.h"
#include "gpusim/device.h"
#include "song/song_search.h"

namespace ganns {
namespace bench {

/// One measured operating point of a search algorithm: its parameter
/// setting, achieved recall, throughput, and execution-time split.
struct SweepPoint {
  std::string algorithm;
  std::string setting;
  double recall = 0;
  double qps = 0;
  double sim_seconds = 0;
  double distance_fraction = 0;  ///< share of work cycles in kDistance
  double ds_fraction = 0;        ///< share of work cycles in kDataStructure
};

/// Default parameter ladders (ascending accuracy) used by the Figure 6
/// recall sweep.
std::vector<core::GannsParams> DefaultGannsLadder(std::size_t k);
std::vector<song::SongParams> DefaultSongLadder(std::size_t k);

/// Runs one GANNS setting over the workload's query batch.
SweepPoint MeasureGanns(gpusim::Device& device,
                        const graph::ProximityGraph& graph,
                        const Workload& workload,
                        const core::GannsParams& params, std::size_t k,
                        int block_lanes = 32);

/// Runs one SONG setting over the workload's query batch.
SweepPoint MeasureSong(gpusim::Device& device,
                       const graph::ProximityGraph& graph,
                       const Workload& workload,
                       const song::SongParams& params, std::size_t k,
                       int block_lanes = 32);

/// Sweeps a ladder and returns one point per setting.
std::vector<SweepPoint> SweepGanns(gpusim::Device& device,
                                   const graph::ProximityGraph& graph,
                                   const Workload& workload, std::size_t k);
std::vector<SweepPoint> SweepSong(gpusim::Device& device,
                                  const graph::ProximityGraph& graph,
                                  const Workload& workload, std::size_t k);

/// The sweep point whose recall is closest to `target` (used by the
/// "recall ≈ 0.8" experiments: Figures 7, 8, 9, 10).
const SweepPoint& ClosestToRecall(const std::vector<SweepPoint>& points,
                                  double target);

/// Index into the corresponding ladder of the setting closest to `target`.
std::size_t ClosestIndexToRecall(const std::vector<SweepPoint>& points,
                                 double target);

}  // namespace bench
}  // namespace ganns

#endif  // GANNS_BENCH_SWEEP_H_
