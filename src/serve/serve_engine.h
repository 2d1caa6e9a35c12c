#ifndef GANNS_SERVE_SERVE_ENGINE_H_
#define GANNS_SERVE_SERVE_ENGINE_H_

#include <cstdint>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request_queue.h"
#include "serve/shard_router.h"
#include "serve/types.h"

namespace ganns {
namespace serve {

/// Lifetime counters of one engine, also mirrored into the obs registry
/// (serve.admitted / serve.rejected / serve.expired / serve.served) when
/// metrics are enabled.
struct ServeCounters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  ///< admission control: queue at capacity
  std::uint64_t expired = 0;   ///< deadline passed while queued
  std::uint64_t served = 0;    ///< reached a kernel and returned kOk
};

/// The online serving engine: a bounded submission queue, one batcher
/// thread running the micro-batching loop, and a sharded router executing
/// each batch across per-shard simulated devices.
///
/// Threading contract: any number of submitter threads may call Submit
/// concurrently; Start and Shutdown are owner-only. Responses are delivered
/// through per-request futures, so submitters never contend on a response
/// channel.
///
/// Determinism contract: *which neighbors* a request receives depends only
/// on (corpus, shard graphs, query, k, budget, kernel) — never on batching,
/// queue timing, or thread schedule. Timing fields (queue_wait_us,
/// latency_us) and batch sizes are wall-clock and load-dependent by nature.
class ServeEngine {
 public:
  /// The engine borrows `index`; it must outlive the engine.
  ServeEngine(ShardedIndex& index, ServeOptions options);

  /// Joins the batcher thread (draining first) if still running.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Starts the batcher thread. Call once before submitting.
  void Start();

  /// Submits one request. Always returns a future that becomes ready:
  ///  - immediately with kRejected when the queue is at capacity,
  ///  - immediately with kShutdown when the engine is stopping/stopped,
  ///  - otherwise with the search result (kOk) or kDeadlineExceeded once
  ///    the request's batch is formed.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Graceful shutdown: refuses new submissions, drains every admitted
  /// request through the batch loop, then joins the batcher thread.
  /// Idempotent.
  void Shutdown();

  /// Snapshot of the engine's lifetime counters.
  ServeCounters counters() const;

  /// Simulated device-seconds accumulated over all batches (batch time =
  /// slowest shard), for simulated-throughput reporting.
  double total_sim_seconds() const;

  const ShardedIndex& index() const { return index_; }
  const ServeOptions& options() const { return options_; }

 private:
  /// Queue element: the request plus its response channel, the admission
  /// timestamp that anchors queue-wait accounting, and the trace context
  /// that rides with the request through the batcher and router.
  struct Pending {
    QueryRequest request;
    std::promise<QueryResponse> promise;
    ServeClock::time_point admitted_at;
    TraceContext trace;
  };

  void BatchLoop();
  void ProcessBatch(std::vector<Pending>& batch);
  /// Sets the queue depth and saturation gauges (no-op with metrics off).
  void PublishQueueDepth();

  /// Appends one sampled request's complete span tree (serve.request root
  /// with queue/batch/fan-out/shard/merge stages nested inside) onto
  /// `events`, all on the request's own serving-pid track.
  void AppendRequestTree(std::vector<obs::TraceEvent>& events,
                         const Pending& pending, const RouteStats& stats,
                         double formed_us, double done_us) const;

  ShardedIndex& index_;
  const ServeOptions options_;
  BoundedQueue<Pending> queue_;
  std::thread batcher_;

  /// Admission-queue depth gauge, resolved once at construction when
  /// metrics are on (nullptr otherwise) so the submit path pays one atomic
  /// store, not a registry lookup.
  obs::Gauge* queue_depth_gauge_ = nullptr;
  /// Depth / capacity, published next to the depth: the window engine's
  /// queue_gauge for the serve stream.
  obs::Gauge* queue_saturation_gauge_ = nullptr;

  /// Monotonic micro-batch sequence (batcher-thread only); keys flight
  /// recorder batch contexts to the requests they served. Starts at 1 —
  /// 0 means "never reached a batch".
  std::uint64_t batch_seq_ = 0;

  mutable std::mutex stats_mutex_;
  ServeCounters counters_;
  double total_sim_seconds_ = 0;
};

}  // namespace serve
}  // namespace ganns

#endif  // GANNS_SERVE_SERVE_ENGINE_H_
