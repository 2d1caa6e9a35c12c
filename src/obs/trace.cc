#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <unordered_map>

#include "common/file.h"
#include "common/logging.h"
#include "common/timer.h"

namespace ganns {
namespace obs {
namespace {

/// Name intern table. Ids are assigned in first-use order (which may vary
/// across runs when threads race to intern); determinism of the exported
/// JSON does not depend on id values because events serialize the string.
struct InternTable {
  std::mutex mutex;
  std::unordered_map<std::string, NameId> ids;
  std::vector<const std::string*> names;

  InternTable() {
    // Reserve id 0 for the default argument key, so TraceEvent::arg_name == 0
    // always resolves to "value".
    const auto [it, inserted] = ids.emplace("value", 0);
    (void)inserted;
    names.push_back(&it->first);
  }
};

InternTable& Interns() {
  static InternTable* table = new InternTable();
  return *table;
}

bool EnvEnablesTracing() {
  const char* value = std::getenv("GANNS_TRACING");
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "on") == 0 ||
         std::strcmp(value, "true") == 0;
}

#ifndef GANNS_TRACING_DISABLED
std::atomic<bool>& TracingFlag() {
  static std::atomic<bool> flag{EnvEnablesTracing()};
  return flag;
}

std::atomic<bool>& MetricsFlag() {
  static std::atomic<bool> flag{EnvEnablesTracing()};
  return flag;
}

/// Forwards ScopedWallSpan closures into the recorder as host-process
/// events. Installed the first time tracing turns on; the sink itself
/// re-checks the flag so spans stop recording when tracing is turned off.
void WallSpanToTrace(const char* name, double start_seconds,
                     double duration_seconds) {
  if (!TracingEnabled()) return;
  TraceEvent event;
  event.name = InternName(name);
  event.pid = kHostPid;
  event.tid = 0;
  event.ts = start_seconds * 1e6;
  event.dur = duration_seconds * 1e6;
  TraceRecorder::Global().Add(event);
}

void InstallWallSink() {
  static std::once_flag once;
  std::call_once(once, [] {
    SetWallSpanSink(&WallSpanToTrace);
    TraceRecorder::Global().SetThreadName(kHostPid, 0, "host");
  });
}
#endif  // GANNS_TRACING_DISABLED

/// Fixed-precision double formatting so equal values always print equal
/// bytes. Cycle counts and microsecond stamps fit comfortably in %.3f.
void AppendDouble(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  out += buffer;
}

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

struct RecorderState {
  mutable std::mutex mutex;
  std::vector<TraceEvent> events;
  std::map<std::pair<std::int32_t, std::int32_t>, std::string> thread_names;
};

RecorderState& State() {
  static RecorderState* state = new RecorderState();
  return *state;
}

}  // namespace

NameId InternName(std::string_view name) {
  InternTable& table = Interns();
  std::lock_guard<std::mutex> lock(table.mutex);
  const auto [it, inserted] =
      table.ids.emplace(std::string(name),
                        static_cast<NameId>(table.names.size()));
  if (inserted) table.names.push_back(&it->first);
  return it->second;
}

std::string_view NameOf(NameId id) {
  InternTable& table = Interns();
  std::lock_guard<std::mutex> lock(table.mutex);
  GANNS_CHECK(id < table.names.size());
  return *table.names[id];
}

#ifndef GANNS_TRACING_DISABLED
bool TracingEnabled() {
  const bool enabled = TracingFlag().load(std::memory_order_relaxed);
  if (enabled) InstallWallSink();
  return enabled;
}

bool MetricsEnabled() { return MetricsFlag().load(std::memory_order_relaxed); }

void SetTracingEnabled(bool enabled) {
  TracingFlag().store(enabled, std::memory_order_relaxed);
  if (enabled) InstallWallSink();
}

void SetMetricsEnabled(bool enabled) {
  MetricsFlag().store(enabled, std::memory_order_relaxed);
}
#endif  // GANNS_TRACING_DISABLED

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Add(const TraceEvent& event) {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.events.push_back(event);
}

void TraceRecorder::AddBatch(std::vector<TraceEvent>&& events) {
  if (events.empty()) return;
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.events.insert(state.events.end(), events.begin(), events.end());
}

void TraceRecorder::SetThreadName(std::int32_t pid, std::int32_t tid,
                                  std::string name) {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.thread_names[{pid, tid}] = std::move(name);
}

void TraceRecorder::Clear() {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.events.clear();
}

std::size_t TraceRecorder::size() const {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.events.size();
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  RecorderState& state = State();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.events;
}

std::string TraceRecorder::ToJson() const {
  RecorderState& state = State();
  std::vector<TraceEvent> events;
  std::map<std::pair<std::int32_t, std::int32_t>, std::string> names;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    events = state.events;
    names = state.thread_names;
  }
  // Deterministic order: recording order depends on host-thread scheduling,
  // the sort key below does not (for device events every field is derived
  // from the simulated schedule).
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.pid != b.pid) return a.pid < b.pid;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.dur != b.dur) return a.dur > b.dur;  // parent span first
              const std::string_view an = NameOf(a.name);
              const std::string_view bn = NameOf(b.name);
              if (an != bn) return an < bn;
              return a.arg < b.arg;
            });

  std::string out;
  out.reserve(events.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const auto& [key, name] : names) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":";
    out += std::to_string(key.first);
    out += ",\"tid\":";
    out += std::to_string(key.second);
    out += ",\"args\":{\"name\":\"";
    AppendEscaped(out, name);
    out += "\"}}";
  }
  for (const auto& [pid, pname] :
       std::map<std::int32_t, const char*>{{kDevicePid, "simulated device"},
                                           {kHostPid, "host"},
                                           {kServePid, "serving"},
                                           {kClusterPid, "cluster"}}) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    out += pname;
    out += "\"}}";
  }
  for (const TraceEvent& event : events) {
    comma();
    if (event.flow != FlowPhase::kNone) {
      // Chrome flow records: they bind to the slice enclosing (pid, tid, ts)
      // — the sort above puts them right after their anchor span.
      out += "{\"ph\":\"";
      out += event.flow == FlowPhase::kStart  ? 's'
             : event.flow == FlowPhase::kStep ? 't'
                                              : 'f';
      out += "\",\"id\":";
      out += std::to_string(event.flow_id);
      out += ",\"name\":\"";
      AppendEscaped(out, NameOf(event.name));
      out += "\",\"pid\":";
      out += std::to_string(event.pid);
      out += ",\"tid\":";
      out += std::to_string(event.tid);
      out += ",\"ts\":";
      AppendDouble(out, event.ts);
      if (event.flow == FlowPhase::kEnd) out += ",\"bp\":\"e\"";
      out += "}";
      continue;
    }
    out += "{\"ph\":\"";
    out += event.dur > 0 ? 'X' : 'i';
    out += "\",\"name\":\"";
    AppendEscaped(out, NameOf(event.name));
    out += "\",\"pid\":";
    out += std::to_string(event.pid);
    out += ",\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    AppendDouble(out, event.ts);
    if (event.dur > 0) {
      out += ",\"dur\":";
      AppendDouble(out, event.dur);
    } else {
      out += ",\"s\":\"t\"";
    }
    if (event.arg != TraceEvent::kNoArg) {
      out += ",\"args\":{\"";
      AppendEscaped(out, NameOf(event.arg_name));
      out += "\":";
      out += std::to_string(event.arg);
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::WriteJson(const std::string& path) const {
  return WriteTextFile(path, ToJson());
}

}  // namespace obs
}  // namespace ganns
