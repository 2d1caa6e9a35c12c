#ifndef GANNS_BENCH_BENCH_COMMON_H_
#define GANNS_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace bench {

/// Experiment scale knobs, read once from the environment:
///   GANNS_SCALE   — base points for a 1M-row Table I dataset (default 10000);
///                   other datasets scale by their size_millions ratio.
///   GANNS_QUERIES — queries per dataset (default 200; the paper uses 2000).
///   GANNS_SEED    — workload seed (default 1).
struct BenchConfig {
  std::size_t scale = 10000;
  std::size_t queries = 200;
  std::uint64_t seed = 1;

  static BenchConfig FromEnv();

  /// Number of base points for `spec` at this scale (proportional to the
  /// paper's corpus sizes, min 1000).
  std::size_t PointsFor(const data::DatasetSpec& spec) const;
};

/// A ready-to-search workload: corpus, queries and exact ground truth.
struct Workload {
  data::DatasetSpec spec;
  data::Dataset base;
  data::Dataset queries;
  data::GroundTruth truth;
};

/// Generates (deterministically) the workload for one Table I dataset.
Workload MakeWorkload(const std::string& dataset, const BenchConfig& config,
                      std::size_t k);

/// Returns the CPU-built NSW graph for a workload, memoized on disk under
/// ./ganns_cache so repeated bench runs skip construction. The cache key
/// covers every input that affects the graph.
graph::ProximityGraph CachedNswGraph(const Workload& workload,
                                     const graph::NswParams& params,
                                     const BenchConfig& config);

/// Prints the standard bench header (config echo) to stdout.
void PrintHeader(const std::string& bench_name, const BenchConfig& config);

/// JSON object recording what produced a BENCH_*.json: git sha, date, host,
/// build flags, wall-clock duration, and telemetry_overhead — on/off
/// sim_qps of one serve run with tracing+metrics on vs off, expected to be
/// exactly 1.0 because instrumentation never charges simulated cycles (what
/// telemetry costs the host is perfbench's obs.tracing_overhead).
/// Read from the GANNS_PROV_GIT_SHA / GANNS_PROV_DATE / GANNS_PROV_HOST /
/// GANNS_PROV_FLAGS / GANNS_PROV_WALL_SECONDS / GANNS_PROV_TELEMETRY_OVERHEAD
/// environment (exported by run_benches.sh; wall_seconds is stamped as
/// "pending" and sed-replaced after the binary exits). Unset fields render
/// as "unknown".
/// All values are strings (schema_check bench requires it); bench_diff
/// prints the block in regression reports and never gates on it.
std::string ProvenanceJson();

}  // namespace bench
}  // namespace ganns

#endif  // GANNS_BENCH_BENCH_COMMON_H_
