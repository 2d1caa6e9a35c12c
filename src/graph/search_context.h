#ifndef GANNS_GRAPH_SEARCH_CONTEXT_H_
#define GANNS_GRAPH_SEARCH_CONTEXT_H_

#include <cstddef>

#include "data/quantize.h"
#include "graph/query_hardness.h"

namespace ganns {
namespace graph {

/// Per-call options shared by every search kernel — GANNS, SONG, the CPU
/// beam search, the HNSW descent, core::DispatchSearch and the batch forms —
/// so a new per-query input or signal is one field here instead of one more
/// parameter on each kernel signature. Default-constructed, a kernel runs
/// exact and observes nothing.
struct SearchContext {
  /// Precision knob, read once per query by data::QueryDistance. When
  /// non-null and enabled, traversal distances come from the packed codes
  /// (charged as the proportionally narrower loads) and the top
  /// rerank_factor * k candidates are exact-reranked before emission
  /// (graph::FinishResults). Null or disabled means exact search;
  /// construction always searches exact.
  const data::SearchQuantization* quant = nullptr;
  /// Receives the query-hardness signals (entry distance, first-hop fan-out,
  /// visited/budget). Observation only: charged cycles, operation counts and
  /// results are identical with or without it. Batch searches read it as
  /// one slot per query.
  QueryHardness* hardness = nullptr;

  /// The context of query `q` of a batch.
  SearchContext ForQuery(std::size_t q) const {
    return {quant, hardness == nullptr ? nullptr : hardness + q};
  }
};

}  // namespace graph
}  // namespace ganns

#endif  // GANNS_GRAPH_SEARCH_CONTEXT_H_
