#include "serve/flight_recorder.h"

#include <cstdio>
#include <utility>

#include "common/file.h"
#include "obs/metrics.h"

namespace ganns {
namespace serve {
namespace {

/// Deterministic double formatting (equal values print equal bytes).
void AppendFixed(std::string& out, double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out += buffer;
}

void AppendSpans(std::string& out, const std::vector<obs::TraceEvent>& spans) {
  out += "[";
  bool first = true;
  for (const obs::TraceEvent& span : spans) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    out += obs::NameOf(span.name);
    out += "\",\"tid\":" + std::to_string(span.tid) + ",\"ts\":";
    AppendFixed(out, span.ts, 3);
    out += ",\"dur\":";
    AppendFixed(out, span.dur, 3);
    if (span.arg != obs::TraceEvent::kNoArg) {
      out += ",\"arg\":" + std::to_string(span.arg);
    }
    out += "}";
  }
  out += "]";
}

void AppendRequestJson(std::string& out, const FlightRequest& request) {
  out += "{\"id\":" + std::to_string(request.id) + ",\"status\":\"";
  out += StatusCodeName(request.status);
  out += "\",\"latency_us\":";
  AppendFixed(out, request.latency_us, 3);
  out += ",\"queue_wait_us\":";
  AppendFixed(out, request.queue_wait_us, 3);
  out += ",\"deadline_us\":" + std::to_string(request.deadline_us) +
         ",\"batch_seq\":" + std::to_string(request.batch_seq) +
         ",\"batch_size\":" + std::to_string(request.batch_size) +
         ",\"sampled\":" + (request.sampled ? "true" : "false");
  if (request.hardness_valid) {
    out += ",\"hardness\":{\"entry_distance\":";
    AppendFixed(out, static_cast<double>(request.hardness.entry_distance), 6);
    out += ",\"early_fanout\":" + std::to_string(request.hardness.early_fanout) +
           ",\"visited\":" + std::to_string(request.hardness.visited) +
           ",\"budget\":" + std::to_string(request.hardness.budget) +
           ",\"visited_budget_ratio\":";
    AppendFixed(out, request.hardness.VisitedBudgetRatio(), 6);
    out += "}";
  }
  out += ",\"spans\":";
  AppendSpans(out, request.spans);
  out += "}";
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::Configure(const FlightRecorderOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = options;
}

FlightRecorderOptions FlightRecorder::options() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return options_;
}

bool FlightRecorder::IsViolator(const FlightRequest& request) const {
  // Rejections and expirations are always tail events; shutdown is a
  // lifecycle outcome, not a violation. Served requests violate when their
  // latency exceeds the deadline fraction of their (or the default) budget.
  if (request.status == StatusCode::kRejected ||
      request.status == StatusCode::kDeadlineExceeded) {
    return true;
  }
  if (request.status != StatusCode::kOk) return false;
  const std::uint64_t budget = request.deadline_us != 0
                                   ? request.deadline_us
                                   : options_.default_deadline_us;
  if (budget == 0) return false;
  return request.latency_us >
         options_.deadline_fraction * static_cast<double>(budget);
}

void FlightRecorder::PersistLocked(FlightRequest&& request) {
  // Flush the span tree unless head-sampling already recorded it — the
  // exported trace must keep exactly one serve.request root per track.
  if (!request.sampled && !request.spans.empty()) {
    std::vector<obs::TraceEvent> copy = request.spans;
    obs::TraceRecorder::Global().AddBatch(std::move(copy));
  }
  // Persist the surrounding batch context once: move it out of the ring so
  // later violators of the same batch (and ring overwrites) still find it.
  if (request.batch_seq != 0) {
    bool have = false;
    for (const FlightBatch& batch : persisted_batches_) {
      if (batch.seq == request.batch_seq) {
        have = true;
        break;
      }
    }
    if (!have) {
      for (auto it = batch_ring_.begin(); it != batch_ring_.end(); ++it) {
        if (it->seq != request.batch_seq) continue;
        FlightBatch batch = std::move(*it);
        batch_ring_.erase(it);
        if (!batch.traced && !batch.spans.empty()) {
          std::vector<obs::TraceEvent> copy = batch.spans;
          obs::TraceRecorder::Global().AddBatch(std::move(copy));
        }
        persisted_batches_.push_back(std::move(batch));
        break;
      }
    }
  }
  if (persisted_.size() >= options_.request_capacity) {
    ++counters_.persisted_dropped;
    return;
  }
  ++counters_.persisted;
  persisted_.push_back(std::move(request));
}

void FlightRecorder::RecordBatch(FlightBatch batch) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.batches;
  if (batch_ring_.size() >= options_.batch_capacity) {
    batch_ring_.pop_front();
    ++counters_.batches_overwritten;
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("serve.flight.batches_overwritten")
          .Add();
    }
  }
  batch_ring_.push_back(std::move(batch));
}

void FlightRecorder::RecordRequest(FlightRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.recorded;
  request.violator = IsViolator(request);
  if (ring_.size() >= options_.request_capacity) {
    ring_.pop_front();
    ++counters_.overwritten;
    if (obs::MetricsEnabled()) {
      obs::MetricsRegistry::Global()
          .GetCounter("serve.flight.overwritten")
          .Add();
    }
  }
  ring_.push_back(request);
  if (request.violator) {
    ++counters_.violators;
    PersistLocked(std::move(request));
  }
}

FlightCounters FlightRecorder::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::vector<FlightRequest> FlightRecorder::Violators() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return persisted_;
}

std::vector<FlightRequest> FlightRecorder::Recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

void FlightRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_ = FlightCounters{};
  ring_.clear();
  batch_ring_.clear();
  persisted_.clear();
  persisted_batches_.clear();
}

std::string FlightRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n\"options\":{\"request_capacity\":" +
                    std::to_string(options_.request_capacity) +
                    ",\"batch_capacity\":" +
                    std::to_string(options_.batch_capacity) +
                    ",\"deadline_fraction\":";
  AppendFixed(out, options_.deadline_fraction, 6);
  out += ",\"default_deadline_us\":" +
         std::to_string(options_.default_deadline_us) + "},\n\"counters\":{";
  out += "\"recorded\":" + std::to_string(counters_.recorded) +
         ",\"batches\":" + std::to_string(counters_.batches) +
         ",\"violators\":" + std::to_string(counters_.violators) +
         ",\"persisted\":" + std::to_string(counters_.persisted) +
         ",\"overwritten\":" + std::to_string(counters_.overwritten) +
         ",\"batches_overwritten\":" +
         std::to_string(counters_.batches_overwritten) +
         ",\"persisted_dropped\":" +
         std::to_string(counters_.persisted_dropped) + "},\n\"violators\":[";
  bool first = true;
  for (const FlightRequest& request : persisted_) {
    out += first ? "\n" : ",\n";
    first = false;
    AppendRequestJson(out, request);
  }
  out += "\n],\n\"batches\":[";
  first = true;
  for (const FlightBatch& batch : persisted_batches_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"seq\":" + std::to_string(batch.seq) +
           ",\"size\":" + std::to_string(batch.size) + ",\"spans\":";
    AppendSpans(out, batch.spans);
    out += "}";
  }
  out += "\n]\n}\n";
  return out;
}

bool FlightRecorder::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

std::string FlightRecorder::HardnessJsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const FlightRequest& request : ring_) {
    if (!request.hardness_valid) continue;
    out += "{\"id\":" + std::to_string(request.id) + ",\"latency_us\":";
    AppendFixed(out, request.latency_us, 3);
    out += ",\"violator\":";
    out += request.violator ? "true" : "false";
    out += ",\"entry_distance\":";
    AppendFixed(out, static_cast<double>(request.hardness.entry_distance), 6);
    out += ",\"early_fanout\":" + std::to_string(request.hardness.early_fanout) +
           ",\"visited\":" + std::to_string(request.hardness.visited) +
           ",\"budget\":" + std::to_string(request.hardness.budget) +
           ",\"visited_budget_ratio\":";
    AppendFixed(out, request.hardness.VisitedBudgetRatio(), 6);
    out += "}\n";
  }
  return out;
}

bool FlightRecorder::WriteHardnessJsonl(const std::string& path) const {
  return WriteTextFile(path, HardnessJsonl());
}

}  // namespace serve
}  // namespace ganns
