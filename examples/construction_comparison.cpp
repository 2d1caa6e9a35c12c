// Construction algorithms side by side — a miniature of the paper's §V-B
// on a single corpus, using the library's lower-level building blocks
// directly (rather than ShardedIndex): GGraphCon with either embedded search
// kernel, the two straightforward GPU baselines, and the serial CPU
// builder, with build time and resulting graph quality for each.
//
//   ./build/examples/construction_comparison

#include <cstdio>

#include "core/ganns_search.h"
#include "core/ggraphcon.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"

namespace {

constexpr std::size_t kN = 4000;
constexpr std::size_t kK = 10;

}  // namespace

int main() {
  using namespace ganns;

  const data::DatasetSpec& spec = data::PaperDataset("SIFT1M");
  const data::Dataset base = data::GenerateBase(spec, kN, 3);
  const data::Dataset queries = data::GenerateQueries(spec, 80, kN, 3);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, kK);

  gpusim::Device device;
  const auto quality = [&](const graph::ProximityGraph& graph) {
    core::GannsParams params;
    params.k = kK;
    params.l_n = 64;
    const auto batch =
        core::GannsSearchBatch(device, graph, base, queries, params);
    return data::MeanRecall(batch.results, truth, kK);
  };

  std::printf("%-22s %14s %12s\n", "builder", "sim time (s)", "recall@10");
  const auto report = [&](const char* name, double seconds,
                          const graph::ProximityGraph& graph) {
    std::printf("%-22s %14.4f %12.3f\n", name, seconds, quality(graph));
  };

  core::GpuBuildParams params;
  params.num_groups = 64;

  const auto ggc_ganns = core::BuildNswGGraphCon(device, base, params);
  report("GGraphCon (GANNS)", ggc_ganns.sim_seconds, ggc_ganns.graph);

  params.kernel = core::SearchKernel::kSong;
  const auto ggc_song = core::BuildNswGGraphCon(device, base, params);
  report("GGraphCon (SONG)", ggc_song.sim_seconds, ggc_song.graph);

  const auto naive = core::BuildNswGNaiveParallel(device, base, params);
  report("GNaiveParallel", naive.sim_seconds, naive.graph);

  const auto serial = core::BuildNswGSerial(device, base, params);
  report("GSerial", serial.sim_seconds, serial.graph);

  const graph::CpuBuildResult cpu = graph::BuildNswCpu(base, params.nsw);
  report("GraphCon_NSW (CPU)", cpu.sim_seconds, cpu.graph);

  std::printf(
      "\nExpected pattern (paper §V-B): GGraphCon(GANNS) fastest;\n"
      "GNaiveParallel fast but with visibly lower recall; GSerial slowest\n"
      "by orders of magnitude at equal quality; CPU in between.\n");
  return 0;
}
