#include "graph/diagnostics.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace graph {

GraphDiagnostics Diagnose(const ProximityGraph& graph, VertexId entry) {
  const std::size_t n = graph.num_vertices();
  GANNS_CHECK(entry < n);

  GraphDiagnostics diag;
  diag.num_vertices = n;
  diag.min_out_degree = graph.d_max();

  std::size_t total_degree = 0;
  diag.out_degree_histogram.assign(graph.d_max() + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t degree = graph.Degree(static_cast<VertexId>(v));
    total_degree += degree;
    diag.min_out_degree = std::min(diag.min_out_degree, degree);
    diag.max_out_degree = std::max(diag.max_out_degree, degree);
    ++diag.out_degree_histogram[degree];
    if (degree == 0) ++diag.sinks;
  }
  diag.num_edges = total_degree;
  diag.mean_out_degree =
      n > 0 ? static_cast<double>(total_degree) / static_cast<double>(n) : 0;

  // Directed BFS from the entry.
  std::vector<bool> seen(n, false);
  std::vector<VertexId> frontier = {entry};
  seen[entry] = true;
  std::size_t reached = 1;
  if (graph.Degree(entry) == 0) ++diag.reachable_sinks;
  while (!frontier.empty()) {
    std::vector<VertexId> next;
    for (const VertexId v : frontier) {
      const auto neighbors = graph.Neighbors(v);
      const std::size_t degree = graph.Degree(v);
      for (std::size_t i = 0; i < degree; ++i) {
        const VertexId u = neighbors[i];
        if (!seen[u]) {
          seen[u] = true;
          ++reached;
          if (graph.Degree(u) == 0) ++diag.reachable_sinks;
          next.push_back(u);
        }
      }
    }
    frontier = std::move(next);
  }
  diag.reachable_fraction =
      n > 0 ? static_cast<double>(reached) / static_cast<double>(n) : 0;
  return diag;
}

void PublishDiagnostics(const GraphDiagnostics& diag, const char* prefix) {
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::MetricsRegistry::Global();
  const std::string p(prefix);
  registry.GetCounter(p + ".vertices").Add(diag.num_vertices);
  registry.GetCounter(p + ".edges").Add(diag.num_edges);
  registry.GetCounter(p + ".sinks").Add(diag.sinks);
  registry.GetCounter(p + ".reachable_sinks").Add(diag.reachable_sinks);
  registry.GetGauge(p + ".mean_out_degree").Set(diag.mean_out_degree);
  registry.GetGauge(p + ".reachable_fraction").Set(diag.reachable_fraction);
  obs::HdrHistogram& degrees = registry.GetHdr(p + ".out_degree");
  for (std::size_t d = 0; d < diag.out_degree_histogram.size(); ++d) {
    for (std::size_t c = 0; c < diag.out_degree_histogram[d]; ++c) {
      degrees.Record(d);
    }
  }
}

}  // namespace graph
}  // namespace ganns
