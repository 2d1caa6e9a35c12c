#ifndef GANNS_GRAPH_HNSW_H_
#define GANNS_GRAPH_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "data/dataset.h"
#include "graph/beam_search.h"
#include "graph/cpu_cost.h"
#include "graph/cpu_nsw.h"
#include "graph/proximity_graph.h"

namespace ganns {
namespace graph {

/// Parameters for HNSW-family builders.
struct HnswParams {
  NswParams nsw;
  /// Seed for level sampling (levels are a deterministic function of
  /// (seed, vertex id), so CPU and GPU builders construct the same layer
  /// membership and their outputs are comparable).
  std::uint64_t seed = 7;
};

/// A hierarchical navigable small world graph: one NSW layer graph per
/// level, a per-vertex level, and the top entry point (§II-B / §IV-D).
/// Layer graphs are allocated over the full vertex id space; a vertex
/// participates in layer l iff level(v) >= l.
class HnswGraph {
 public:
  /// Per-vertex levels; unfilled on a value-less resize (ReadFrom reads
  /// them straight in).
  using Levels = UnfilledVector<std::uint8_t>;

  HnswGraph(std::size_t num_vertices, std::size_t d_max, Levels levels);

  std::size_t num_vertices() const { return levels_.size(); }
  int max_level() const { return max_level_; }
  int level(VertexId v) const { return levels_[v]; }
  VertexId entry() const { return entry_; }
  void set_entry(VertexId entry) { entry_ = entry; }

  ProximityGraph& layer(int l) { return layers_[l]; }
  const ProximityGraph& layer(int l) const { return layers_[l]; }

  /// Number of vertices with level >= l.
  std::size_t LayerSize(int l) const;

  /// Greedy 1-NN descent from the entry point through layers
  /// [max_level .. 1], returning the entry vertex for a layer-0 beam search
  /// (the hierarchical "zoom-in" phase of HNSW search). With an enabled
  /// `ctx.quant` the descent compares approximate code distances instead of
  /// exact rows (layer graphs index the full corpus id space, so the code
  /// array applies unchanged).
  VertexId DescendToLayer0(const data::Dataset& base,
                           std::span<const float> query,
                           BeamSearchStats* stats = nullptr,
                           const SearchContext& ctx = {}) const;

  /// Samples per-vertex levels with the HNSW distribution
  /// floor(-ln(U) * m_L); deterministic in (params.seed, vertex id).
  static Levels SampleLevels(std::size_t num_vertices,
                             const HnswParams& params);

  /// Serializes the full hierarchy — per-vertex levels, entry point, and
  /// every layer graph — to one binary file, mirroring
  /// ProximityGraph::SaveTo. Returns false on IO failure.
  bool SaveTo(const std::string& path) const;

  /// Restores a graph written by SaveTo. Returns std::nullopt on open
  /// failure, truncation, or format/version mismatch.
  static std::optional<HnswGraph> LoadFrom(const std::string& path);

  /// Stream-level variants for embedding in container formats (shard
  /// files). A record starts with kRecordMagic, so a container can tell it
  /// from a ProximityGraph record by its first word.
  static constexpr std::uint64_t kRecordMagic = 0x57534e4847ULL;  // "GHNSW"
  bool WriteTo(std::FILE* file) const;
  static std::optional<HnswGraph> ReadFrom(std::FILE* file);

 private:
  /// A graph read back from a record: `layers` are its layer graphs, one
  /// per level up to the top one.
  HnswGraph(Levels levels, std::vector<ProximityGraph> layers,
            VertexId entry);

  Levels levels_;
  std::vector<ProximityGraph> layers_;
  int max_level_ = 0;
  VertexId entry_ = 0;
};

/// Result of a CPU HNSW build.
struct CpuHnswBuildResult {
  HnswGraph graph;
  double sim_seconds = 0;
  double wall_seconds = 0;
  BeamSearchStats search_stats;
};

/// GraphCon_HNSW — the paper's CPU HNSW baseline (Table III): sequential
/// insertion a la Malkov & Yashunin. Each point greedily descends from the
/// top entry to its sampled level, then beam-searches and bidirectionally
/// links d_min neighbors on every layer it joins (rows capped at d_max).
CpuHnswBuildResult BuildHnswCpu(const data::Dataset& base,
                                const HnswParams& params,
                                const CpuCostModel& cost = CpuCostModel());

/// Full HNSW query: greedy descent to layer 0, then a beam search with
/// budget `ef` on the bottom layer. Returns up to k neighbors sorted by
/// (dist, id).
std::vector<Neighbor> SearchHnsw(const HnswGraph& graph,
                                 const data::Dataset& base,
                                 std::span<const float> query, std::size_t k,
                                 std::size_t ef,
                                 BeamSearchStats* stats = nullptr,
                                 const SearchContext& ctx = {});

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_HNSW_H_
