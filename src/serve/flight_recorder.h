#ifndef GANNS_SERVE_FLIGHT_RECORDER_H_
#define GANNS_SERVE_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "graph/query_hardness.h"
#include "obs/trace.h"
#include "serve/types.h"

namespace ganns {
namespace serve {

/// Tail-based flight recorder configuration.
struct FlightRecorderOptions {
  /// Request ring: recent span trees kept in memory awaiting a verdict.
  std::size_t request_capacity = 4096;
  /// Batch-context ring (one record per processed micro-batch).
  std::size_t batch_capacity = 512;
  /// A served request violates its SLO when latency exceeds this fraction
  /// of its deadline budget.
  double deadline_fraction = 0.8;
  /// Deadline budget (microseconds) applied to requests submitted without
  /// one. 0: deadline-less kOk requests are never latency violators.
  std::uint64_t default_deadline_us = 0;
};

/// One request's flight record: outcome, timing, hardness, and its full
/// span tree (the same events head-sampled tracing would emit).
struct FlightRequest {
  std::uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  double latency_us = 0;
  double queue_wait_us = 0;
  /// Deadline budget in microseconds (0 = none; default_deadline_us then
  /// decides the violation test).
  std::uint64_t deadline_us = 0;
  /// Sequence number of the micro-batch that served it (0 = never batched).
  std::uint64_t batch_seq = 0;
  std::uint32_t batch_size = 0;
  bool hardness_valid = false;
  graph::QueryHardness hardness;
  /// Already head-sampled into the TraceRecorder — persist must not flush
  /// the spans again (schema_check rejects duplicate request roots).
  bool sampled = false;
  /// Set by RecordRequest from the violation rule.
  bool violator = false;
  std::vector<obs::TraceEvent> spans;
};

/// Batch context surrounding one or more requests: the batcher-track and
/// shard-kernel spans of a processed micro-batch.
struct FlightBatch {
  std::uint64_t seq = 0;
  std::uint32_t size = 0;
  /// Batch spans already emitted to the TraceRecorder by live tracing.
  bool traced = false;
  std::vector<obs::TraceEvent> spans;
};

/// Loss-accounting counters. Every bounded buffer of the recorder reports
/// its evictions here, so silent loss is impossible.
struct FlightCounters {
  std::uint64_t recorded = 0;   ///< requests seen
  std::uint64_t batches = 0;    ///< batch contexts seen
  std::uint64_t violators = 0;  ///< requests matching the violation rule
  std::uint64_t persisted = 0;  ///< violators retained outside the ring
  std::uint64_t overwritten = 0;          ///< request ring evictions
  std::uint64_t batches_overwritten = 0;  ///< batch ring evictions
  std::uint64_t persisted_dropped = 0;    ///< persisted list at capacity
};

/// Tail-based flight recorder: every request deposits its span tree into a
/// bounded in-memory ring; only SLO violators (latency over the deadline
/// fraction, rejections, expirations) are retroactively persisted — their
/// spans (and their batch's context spans) flush into the TraceRecorder and
/// the full record is retained for the flight dump. The slowest requests
/// always have complete traces without head-sampling every request.
///
/// Dedup contract: a request that was *also* head-sampled (or a batch whose
/// spans live tracing already emitted) is retained but its spans are not
/// re-flushed, so the exported trace keeps exactly one root per request
/// track (schema_check-enforced).
///
/// Process-wide singleton (like TraceRecorder); disabled it costs one
/// relaxed atomic load per batch on the serve path.
class FlightRecorder {
 public:
  static FlightRecorder& Global();

  /// Replaces the configuration. Call before enabling.
  void Configure(const FlightRecorderOptions& options);
  FlightRecorderOptions options() const;

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Deposits one batch context (call before the batch's RecordRequest
  /// calls so violators can find their context).
  void RecordBatch(FlightBatch batch);

  /// Deposits one finished request, applies the violation rule, and
  /// persists violators (spans + batch context into the TraceRecorder,
  /// record into the violator list).
  void RecordRequest(FlightRequest request);

  FlightCounters counters() const;

  /// Copies of the persisted violator records, in recording order.
  std::vector<FlightRequest> Violators() const;

  /// Copies of the records still in the request ring, oldest first.
  std::vector<FlightRequest> Recent() const;

  /// Drops all records and zeroes the counters (configuration survives).
  void Clear();

  /// The flight dump: options, counters, persisted violators (with span
  /// trees and hardness), and their batch contexts. Validated by
  /// `schema_check flight`.
  std::string ToJson() const;
  bool WriteJson(const std::string& path) const;

  /// Hardness-vs-latency exemplar pairs — one JSONL line per ring request
  /// still in the ring that carries hardness (the autotune controller's
  /// training input).
  std::string HardnessJsonl() const;
  bool WriteHardnessJsonl(const std::string& path) const;

 private:
  FlightRecorder() = default;

  bool IsViolator(const FlightRequest& request) const;
  /// Flushes a violator (and its batch context) into the TraceRecorder,
  /// honoring the dedup contract. Caller holds mutex_.
  void PersistLocked(FlightRequest&& request);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  FlightRecorderOptions options_;
  FlightCounters counters_;
  std::deque<FlightRequest> ring_;
  std::deque<FlightBatch> batch_ring_;
  std::vector<FlightRequest> persisted_;
  std::vector<FlightBatch> persisted_batches_;
};

}  // namespace serve
}  // namespace ganns

#endif  // GANNS_SERVE_FLIGHT_RECORDER_H_
