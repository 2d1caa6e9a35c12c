#ifndef GANNS_SERVE_TYPES_H_
#define GANNS_SERVE_TYPES_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/search_dispatch.h"
#include "graph/beam_search.h"

namespace ganns {
namespace serve {

/// Host clock used for deadlines, batch windows, and latency accounting.
/// Serving-layer *times* are wall-clock (they describe the online system);
/// serving-layer *results* remain fully deterministic — which neighbors a
/// request receives never depends on timing, batching, or thread schedule.
using ServeClock = std::chrono::steady_clock;

/// Terminal status of one request.
enum class StatusCode {
  kOk,                ///< searched and merged; neighbors are valid
  kRejected,          ///< admission control: queue was at capacity
  kDeadlineExceeded,  ///< expired before reaching a kernel; never searched
  kShutdown,          ///< submitted after (or during) engine shutdown
};

/// Stable lowercase name ("ok", "rejected", ...) for logs and JSON.
const char* StatusCodeName(StatusCode status);

/// One online k-NN query. The engine copies nothing after submission: the
/// request owns its query vector, so the caller's buffer may be reused
/// immediately.
struct QueryRequest {
  /// Caller-assigned correlation id, echoed in the response.
  std::uint64_t id = 0;
  /// The query point; must have the corpus dimension.
  std::vector<float> query;
  /// Number of neighbors to return.
  std::size_t k = 10;
  /// Total visited budget (beam width) across all shards. The router gives
  /// each shard max(k, budget / num_shards), so a fixed budget buys the
  /// same candidate-pool size regardless of sharding.
  std::size_t budget = 64;
  /// Absolute deadline. A request that expires while queued is answered
  /// kDeadlineExceeded without occupying a batch slot. max() = no deadline.
  ServeClock::time_point deadline = ServeClock::time_point::max();
};

/// Convenience: a deadline `micros` microseconds from now.
inline ServeClock::time_point DeadlineAfterMicros(std::int64_t micros) {
  return ServeClock::now() + std::chrono::microseconds(micros);
}

/// Per-request trace context, stamped at admission and propagated with the
/// request through RequestQueue -> MicroBatcher -> ShardRouter -> kernel ->
/// top-k merge so the whole journey lands in one span tree (obs::kServePid,
/// track ServeRequestTrack(id)). When `sampled` is false the request
/// carries only this struct — no events are recorded and no extra cycles
/// are ever charged (instrumentation observes, it never participates).
struct TraceContext {
  /// Whether this request emits a span tree. Decided deterministically at
  /// submission: tracing enabled and request id % sample_n == 0.
  bool sampled = false;
  /// Whether the flight recorder is capturing this request (all requests
  /// while it is enabled). Span trees are then built regardless of head
  /// sampling, but only flushed to the trace on an SLO violation.
  bool flight = false;
  /// Submission timestamp on the obs wall-span timeline (microseconds).
  /// Stamped when sampled or flight-recorded.
  double submit_us = 0;
  /// Stable nonzero id of a sampled request, propagated across layer
  /// boundaries (shard routing, cluster aggregation) so downstream spans
  /// can join the request's Perfetto flow. 0 for unsampled requests.
  std::uint64_t trace_id = 0;
};

/// Parses a trace-sampling specification (serve-bench --sample): "1/N"
/// (trace every Nth request) or a bare "N". Returns 1 (trace everything) for
/// null, empty, zero, or malformed specs.
std::uint64_t ParseTraceSample(const char* spec);

/// Answer to one QueryRequest.
struct QueryResponse {
  std::uint64_t id = 0;
  StatusCode status = StatusCode::kShutdown;
  /// Up to k global-id neighbors, ascending by (dist, id). Empty unless
  /// status == kOk.
  std::vector<graph::Neighbor> neighbors;
  /// Wall microseconds spent queued before batch formation.
  double queue_wait_us = 0;
  /// Wall microseconds from submission to response.
  double latency_us = 0;
  /// Live size of the micro-batch that served this request (0 for requests
  /// that never reached a batch).
  std::uint32_t batch_size = 0;
};

/// Engine configuration (search-side; shard construction is configured
/// separately via ShardBuildOptions).
struct ServeOptions {
  /// Micro-batcher: flush when `max_batch` requests are pending or
  /// `batch_window_us` wall microseconds elapsed since the batch opened,
  /// whichever comes first. A window of 0 makes the batcher greedy (it takes
  /// whatever is queued and never waits).
  std::size_t max_batch = 32;
  std::int64_t batch_window_us = 200;
  /// Admission control: submissions beyond this queue depth are rejected
  /// immediately with kRejected.
  std::size_t queue_capacity = 1024;
  /// Search kernel answering online queries (GANNS / SONG / beam).
  core::SearchKernel kernel = core::SearchKernel::kGanns;
  /// Request-trace sampling: every Nth request (by id, N >= 1) emits a span
  /// tree while tracing is enabled; 1 traces every request.
  std::uint64_t trace_sample = 1;
};

}  // namespace serve
}  // namespace ganns

#endif  // GANNS_SERVE_TYPES_H_
