#include "serve/serve_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/flight_recorder.h"
#include "serve/micro_batcher.h"

namespace ganns {
namespace serve {
namespace {

double MicrosSince(ServeClock::time_point start, ServeClock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

QueryResponse TerminalResponse(std::uint64_t id, StatusCode status) {
  QueryResponse response;
  response.id = id;
  response.status = status;
  return response;
}

/// The request's total latency budget in whole microseconds (admission to
/// deadline), or 0 when it carries no deadline. Clamped at zero: a request
/// admitted already past its deadline has no budget, not a negative one.
std::uint64_t DeadlineBudgetMicros(ServeClock::time_point admitted_at,
                                   ServeClock::time_point deadline) {
  if (deadline == ServeClock::time_point::max()) return 0;
  const double budget_us =
      std::chrono::duration<double, std::micro>(deadline - admitted_at)
          .count();
  return budget_us > 0 ? static_cast<std::uint64_t>(budget_us) : 0;
}

/// Interned names of every serving-trace event, resolved once per process.
struct ServeTraceNames {
  obs::NameId request = obs::InternName("serve.request");
  obs::NameId queue_wait = obs::InternName("serve.queue_wait");
  obs::NameId batch_form = obs::InternName("serve.batch_form");
  obs::NameId shard_fanout = obs::InternName("serve.shard_fanout");
  obs::NameId shard_search = obs::InternName("serve.shard_search");
  obs::NameId merge = obs::InternName("serve.merge");
  obs::NameId batch = obs::InternName("serve.batch");
  obs::NameId expired = obs::InternName("serve.expired");
  obs::NameId rejected = obs::InternName("serve.rejected");
  obs::NameId shutdown = obs::InternName("serve.shutdown");
  obs::NameId arg_request = obs::InternName("request");
  obs::NameId arg_shard = obs::InternName("shard");
  obs::NameId arg_batch = obs::InternName("batch");
};

const ServeTraceNames& TraceNames() {
  static const ServeTraceNames* names = new ServeTraceNames();
  return *names;
}

/// A serving-pid span on track `tid` covering [start_us, end_us]. Duration
/// is clamped to a nanosecond so back-to-back clock reads still export as a
/// complete ('X') event rather than collapsing into an instant.
obs::TraceEvent MakeServeSpan(obs::NameId name, std::int32_t tid,
                              double start_us, double end_us,
                              std::int64_t arg = obs::TraceEvent::kNoArg,
                              obs::NameId arg_name = 0) {
  obs::TraceEvent event;
  event.name = name;
  event.pid = obs::kServePid;
  event.tid = tid;
  event.ts = start_us;
  event.dur = std::max(end_us - start_us, 1e-3);
  event.arg = arg;
  event.arg_name = arg_name;
  return event;
}

/// A serving-pid instant event marking a terminal outcome on a request track.
obs::TraceEvent MakeServeInstant(obs::NameId name, std::int32_t tid,
                                 double ts_us) {
  obs::TraceEvent event;
  event.name = name;
  event.pid = obs::kServePid;
  event.tid = tid;
  event.ts = ts_us;
  event.dur = 0;
  return event;
}

/// Builds the span tree of a request that never reached a kernel: a
/// serve.request root closed at `end_us` with a terminal instant
/// (serve.rejected / serve.expired / serve.shutdown) at its end, plus the
/// queue-wait span when the request did queue (`formed_us` >= 0). Terminal
/// trees never contain fan-out, shard, or merge spans — asserted by
/// serve_test and schema_check. Shared between head sampling (tree goes to
/// the trace now) and the flight recorder (tree is kept, flushed only on
/// violation).
std::vector<obs::TraceEvent> BuildTerminalTree(std::uint64_t id,
                                               const TraceContext& trace,
                                               obs::NameId terminal,
                                               double end_us,
                                               double formed_us = -1.0) {
  const ServeTraceNames& names = TraceNames();
  const std::int32_t tid = obs::ServeRequestTrack(id);
  std::vector<obs::TraceEvent> events;
  events.push_back(MakeServeSpan(names.request, tid, trace.submit_us, end_us,
                                 static_cast<std::int64_t>(id),
                                 names.arg_request));
  if (formed_us >= 0.0) {
    events.push_back(
        MakeServeSpan(names.queue_wait, tid, trace.submit_us, formed_us));
  }
  events.push_back(
      MakeServeInstant(terminal, tid, events.front().ts + events.front().dur));
  return events;
}

/// Answers a request that never reached a kernel — rejected, shut out, or
/// expired in the queue — with `response`: emits its terminal tree when
/// sampled and records it with the flight recorder when on (shutdown is a
/// lifecycle outcome, never a violation; recorded so the ring tells the
/// whole story of the run's tail). `formed_us` >= 0 marks a request that
/// queued until a batch formed then; otherwise the tree ends now.
void AnswerTerminal(std::promise<QueryResponse>& promise,
                    QueryResponse response, const TraceContext& trace,
                    ServeClock::time_point admitted_at,
                    ServeClock::time_point deadline, double formed_us = -1.0) {
  const ServeTraceNames& names = TraceNames();
  const obs::NameId terminal =
      response.status == StatusCode::kRejected           ? names.rejected
      : response.status == StatusCode::kDeadlineExceeded ? names.expired
                                                         : names.shutdown;
  const bool queued = formed_us >= 0.0;
  const bool observed = trace.sampled || trace.flight;
  const double end_us =
      queued ? formed_us : observed ? WallSpanNow() * 1e6 : 0.0;
  std::vector<obs::TraceEvent> tree;
  if (observed) {
    tree = BuildTerminalTree(response.id, trace, terminal, end_us, formed_us);
  }
  if (trace.sampled) {
    std::vector<obs::TraceEvent> copy = tree;
    obs::TraceRecorder::Global().AddBatch(std::move(copy));
  }
  if (trace.flight) {
    FlightRequest record;
    record.id = response.id;
    record.status = response.status;
    record.latency_us = queued ? response.latency_us
                               : std::max(0.0, end_us - trace.submit_us);
    record.queue_wait_us = response.queue_wait_us;
    record.deadline_us = DeadlineBudgetMicros(admitted_at, deadline);
    record.sampled = trace.sampled;
    record.spans = std::move(tree);
    FlightRecorder::Global().RecordRequest(std::move(record));
  }
  promise.set_value(std::move(response));
}

}  // namespace

std::uint64_t ParseTraceSample(const char* spec) {
  if (spec == nullptr || *spec == '\0') return 1;
  const char* digits = spec;
  if (digits[0] == '1' && digits[1] == '/') digits += 2;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(digits, &end, 10);
  if (end == digits || *end != '\0' || n == 0) return 1;
  return static_cast<std::uint64_t>(n);
}

const char* StatusCodeName(StatusCode status) {
  switch (status) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRejected:
      return "rejected";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

ServeEngine::ServeEngine(ShardedIndex& index, ServeOptions options)
    : index_(index),
      options_(options),
      queue_(options.queue_capacity) {
  GANNS_CHECK_MSG(options_.trace_sample >= 1,
                  "trace_sample must be >= 1, got " << options_.trace_sample);
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    queue_depth_gauge_ = &registry.GetGauge("serve.queue_depth");
    queue_saturation_gauge_ = &registry.GetGauge("serve.queue_saturation");
  }
}

ServeEngine::~ServeEngine() { Shutdown(); }

void ServeEngine::PublishQueueDepth() {
  if (queue_depth_gauge_ == nullptr) return;
  const double depth = static_cast<double>(queue_.size());
  queue_depth_gauge_->Set(depth);
  queue_saturation_gauge_->Set(
      options_.queue_capacity > 0
          ? depth / static_cast<double>(options_.queue_capacity)
          : 0.0);
}

void ServeEngine::Start() {
  GANNS_CHECK_MSG(!batcher_.joinable(), "ServeEngine started twice");
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.SetThreadName(obs::kServePid, obs::kServeBatcherTrack, "batcher");
  for (std::size_t s = 0; s < index_.num_shards(); ++s) {
    recorder.SetThreadName(
        obs::kServePid, obs::FirstServeShardTrack() + static_cast<int>(s),
        "shard" + std::to_string(s));
  }
  batcher_ = std::thread([this] { BatchLoop(); });
}

std::future<QueryResponse> ServeEngine::Submit(QueryRequest request) {
  const std::uint64_t id = request.id;
  // Captured before Push may consume (and destroy) the request: terminal
  // flight records still need the deadline budget and admission anchor.
  const ServeClock::time_point deadline = request.deadline;
  Pending pending;
  pending.request = std::move(request);
  pending.admitted_at = ServeClock::now();
  const ServeClock::time_point admitted_at = pending.admitted_at;
  // Sampling is deterministic in the request id, so a given id is either
  // always traced or never traced across runs with the same sample period.
  // Untraced requests take the single modulo below and nothing else.
  pending.trace.sampled =
      obs::TracingEnabled() && (id % options_.trace_sample == 0);
  if (pending.trace.sampled) pending.trace.trace_id = id + 1;  // nonzero
  pending.trace.flight = FlightRecorder::Global().enabled();
  if (pending.trace.sampled || pending.trace.flight) {
    pending.trace.submit_us = WallSpanNow() * 1e6;
  }
  const TraceContext trace = pending.trace;
  std::future<QueryResponse> future = pending.promise.get_future();

  switch (queue_.Push(std::move(pending))) {
    case BoundedQueue<Pending>::PushResult::kOk: {
      PublishQueueDepth();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.admitted;
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry::Global().GetCounter("serve.admitted").Add();
      }
      return future;
    }
    case BoundedQueue<Pending>::PushResult::kFull: {
      // The rejected item (and its promise) died inside Push; answer on a
      // fresh promise so the caller still gets a ready future.
      std::promise<QueryResponse> rejected;
      future = rejected.get_future();
      AnswerTerminal(rejected, TerminalResponse(id, StatusCode::kRejected),
                     trace, admitted_at, deadline);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++counters_.rejected;
      if (obs::MetricsEnabled()) {
        obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
        registry.GetCounter("serve.rejected").Add();
        // Mirror of BoundedQueue::dropped(): the queue's own overwrite/drop
        // accounting, surfaced where scrapers can see it.
        registry.GetCounter("serve.queue.dropped").Add();
      }
      return future;
    }
    case BoundedQueue<Pending>::PushResult::kClosed:
    default: {
      std::promise<QueryResponse> closed;
      future = closed.get_future();
      AnswerTerminal(closed, TerminalResponse(id, StatusCode::kShutdown),
                     trace, admitted_at, deadline);
      return future;
    }
  }
}

void ServeEngine::Shutdown() {
  queue_.Close();
  if (batcher_.joinable()) batcher_.join();
}

ServeCounters ServeEngine::counters() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return counters_;
}

double ServeEngine::total_sim_seconds() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return total_sim_seconds_;
}

void ServeEngine::BatchLoop() {
  MicroBatcher<Pending> batcher(
      queue_, options_.max_batch,
      std::chrono::microseconds(options_.batch_window_us));
  while (true) {
    std::vector<Pending> batch = batcher.NextBatch();
    if (batch.empty()) return;  // closed and drained
    ProcessBatch(batch);
  }
}

void ServeEngine::ProcessBatch(std::vector<Pending>& batch) {
  const ServeClock::time_point formed_at = ServeClock::now();
  const bool metrics = obs::MetricsEnabled();
  const bool tracing = obs::TracingEnabled();
  FlightRecorder& flight_recorder = FlightRecorder::Global();
  const bool flight = flight_recorder.enabled();
  // Batch-formation timestamp on the wall-span timeline, read only when
  // some observer (trace or flight recorder) consumes it so bare runs skip
  // every extra clock read in this function.
  const double formed_us = (tracing || flight) ? WallSpanNow() * 1e6 : 0.0;
  obs::MetricsRegistry* registry =
      metrics ? &obs::MetricsRegistry::Global() : nullptr;
  PublishQueueDepth();

  // Partition out requests whose deadline passed while they queued: they
  // are answered kDeadlineExceeded and never occupy a kernel slot (the
  // batch the live requests see is correspondingly smaller). Sampled
  // expired requests emit a terminal span tree — queue wait plus a
  // serve.expired instant, never fan-out/shard/merge spans.
  std::vector<Pending> live;
  live.reserve(batch.size());
  std::uint64_t expired = 0;
  for (Pending& pending : batch) {
    if (pending.request.deadline <= formed_at) {
      const double queue_wait_us = MicrosSince(pending.admitted_at, formed_at);
      QueryResponse response =
          TerminalResponse(pending.request.id, StatusCode::kDeadlineExceeded);
      response.queue_wait_us = queue_wait_us;
      response.latency_us = queue_wait_us;
      AnswerTerminal(pending.promise, std::move(response), pending.trace,
                     pending.admitted_at, pending.request.deadline, formed_us);
      ++expired;
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (expired > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    counters_.expired += expired;
    if (metrics) registry->GetCounter("serve.expired").Add(expired);
  }
  if (live.empty()) return;

  std::vector<RoutedQuery> queries;
  queries.reserve(live.size());
  for (const Pending& pending : live) {
    RoutedQuery routed;
    routed.query = pending.request.query;
    routed.k = pending.request.k;
    routed.budget = pending.request.budget;
    routed.trace = pending.trace;
    queries.push_back(routed);
  }

  RouteStats stats;
  std::vector<std::vector<graph::Neighbor>> rows;
  {
    ScopedWallSpan span("serve.batch");
    rows = index_.SearchBatch(queries, options_.kernel, &stats);
  }

  const ServeClock::time_point done_at = ServeClock::now();
  const double done_us = (tracing || flight) ? WallSpanNow() * 1e6 : 0.0;
  const auto batch_size = static_cast<std::uint32_t>(live.size());

  // Batch-level view: one span on the batcher track plus one per shard
  // kernel, mirroring what each sampled request sees from its own track.
  // Built once; the trace gets a copy when tracing, the flight recorder
  // keeps it as the violators' surrounding batch context when recording.
  std::vector<obs::TraceEvent> batch_events;
  if (tracing || flight) {
    const ServeTraceNames& names = TraceNames();
    batch_events.push_back(MakeServeSpan(names.batch, obs::kServeBatcherTrack,
                                         formed_us, done_us,
                                         static_cast<std::int64_t>(batch_size),
                                         names.arg_batch));
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
      batch_events.push_back(MakeServeSpan(
          names.shard_search,
          obs::FirstServeShardTrack() + static_cast<int>(s),
          stats.shards[s].start_us, stats.shards[s].end_us,
          static_cast<std::int64_t>(s), names.arg_shard));
    }
  }
  std::uint64_t batch_seq = 0;
  if (flight) {
    // Record the batch context before any of its requests, so a violator's
    // retroactive persist always finds its batch in the ring.
    batch_seq = ++batch_seq_;
    FlightBatch context;
    context.seq = batch_seq;
    context.size = batch_size;
    context.traced = tracing;
    context.spans = tracing ? batch_events : std::move(batch_events);
    flight_recorder.RecordBatch(std::move(context));
  }

  std::vector<obs::TraceEvent> events;
  for (std::size_t i = 0; i < live.size(); ++i) {
    QueryResponse response;
    response.id = live[i].request.id;
    response.status = StatusCode::kOk;
    response.neighbors = std::move(rows[i]);
    response.queue_wait_us = MicrosSince(live[i].admitted_at, formed_at);
    response.latency_us = MicrosSince(live[i].admitted_at, done_at);
    response.batch_size = batch_size;
    const bool have_hardness = i < stats.hardness.size() &&
                               stats.hardness[i].budget > 0;
    if (metrics) {
      registry->GetHdr("serve.queue_wait_us")
          .Record(static_cast<std::uint64_t>(
              std::max(0.0, response.queue_wait_us)));
      // The latency exemplar carries the request id, so histogram snapshots
      // link their slowest observations back to full span trees.
      registry->GetHdr("serve.latency_us")
          .RecordWithExemplar(
              static_cast<std::uint64_t>(std::max(0.0, response.latency_us)),
              response.id);
      if (have_hardness) {
        registry->GetHdr("serve.hardness.visited")
            .Record(stats.hardness[i].visited);
        registry->GetHdr("serve.hardness.early_fanout")
            .Record(stats.hardness[i].early_fanout);
      }
    }
    // One tree build serves both consumers: head sampling copies it into
    // the trace now; the flight recorder keeps it and flushes only if this
    // request turns out to violate its SLO.
    std::vector<obs::TraceEvent> tree;
    if (live[i].trace.sampled || live[i].trace.flight) {
      AppendRequestTree(tree, live[i], stats, formed_us, done_us);
    }
    if (live[i].trace.sampled) {
      events.insert(events.end(), tree.begin(), tree.end());
    }
    if (live[i].trace.flight) {
      FlightRequest record;
      record.id = response.id;
      record.status = StatusCode::kOk;
      record.latency_us = response.latency_us;
      record.queue_wait_us = response.queue_wait_us;
      record.deadline_us = DeadlineBudgetMicros(live[i].admitted_at,
                                                live[i].request.deadline);
      record.batch_seq = batch_seq;
      record.batch_size = batch_size;
      record.hardness_valid = have_hardness;
      if (have_hardness) record.hardness = stats.hardness[i];
      record.sampled = live[i].trace.sampled;
      record.spans = std::move(tree);
      flight_recorder.RecordRequest(std::move(record));
    }
    live[i].promise.set_value(std::move(response));
  }
  if (tracing) {
    events.insert(events.end(), batch_events.begin(), batch_events.end());
  }
  if (!events.empty()) {
    obs::TraceRecorder::Global().AddBatch(std::move(events));
  }

  std::lock_guard<std::mutex> lock(stats_mutex_);
  counters_.served += live.size();
  total_sim_seconds_ += stats.sim_seconds;
  if (metrics) {
    registry->GetCounter("serve.served").Add(live.size());
    registry->GetHdr("serve.batch_size").Record(batch_size);
  }
}

void ServeEngine::AppendRequestTree(std::vector<obs::TraceEvent>& events,
                                    const Pending& pending,
                                    const RouteStats& stats, double formed_us,
                                    double done_us) const {
  const ServeTraceNames& names = TraceNames();
  const std::uint64_t id = pending.request.id;
  const std::int32_t tid = obs::ServeRequestTrack(id);
  const double submit_us = pending.trace.submit_us;
  // Root span covering the whole request journey, keyed by request id.
  events.push_back(MakeServeSpan(names.request, tid, submit_us, done_us,
                                 static_cast<std::int64_t>(id),
                                 names.arg_request));
  // Nested stages in journey order: queued -> batch formation -> shard
  // fan-out (with one child per shard kernel) -> deterministic merge.
  events.push_back(MakeServeSpan(names.queue_wait, tid, submit_us, formed_us));
  events.push_back(MakeServeSpan(names.batch_form, tid, formed_us,
                                 stats.fanout_start_us));
  events.push_back(MakeServeSpan(names.shard_fanout, tid,
                                 stats.fanout_start_us, stats.fanout_end_us));
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    events.push_back(MakeServeSpan(names.shard_search, tid,
                                   stats.shards[s].start_us,
                                   stats.shards[s].end_us,
                                   static_cast<std::int64_t>(s),
                                   names.arg_shard));
  }
  events.push_back(MakeServeSpan(names.merge, tid, stats.merge_start_us,
                                 stats.merge_end_us));
}

}  // namespace serve
}  // namespace ganns
