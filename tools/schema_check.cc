// schema_check — validates the observability JSON artifacts:
//
//   schema_check trace   <trace.json>     Chrome/Perfetto trace_event file
//   schema_check metrics <metrics.json>   MetricsRegistry export
//   schema_check stats   <stats.json>     serving stats export (registry
//                                         JSON whose hdr section must hold
//                                         coherent percentile summaries)
//   schema_check bench   <BENCH_*.json>   bench artifact: provenance block
//                                         plus a results/quantized row array
//                                         (quantized rows are field-checked;
//                                         wall_* / latency_us / open_qps keys
//                                         in any row are rejected)
//   schema_check prom    <metrics.prom>   Prometheus text exposition: name
//                                         charset, TYPE declarations, label
//                                         quoting/escaping and ordering,
//                                         cumulative histogram buckets, and
//                                         summary quantile lines ("--prom"
//                                         is accepted as an alias)
//   schema_check cluster <BENCH_cluster.json | cluster report>
//                                         cluster serving report: headline
//                                         counters, per-node stats
//                                         completeness (state, served,
//                                         timeouts, transfer bytes) and the
//                                         aggregator flush-accounting
//                                         invariant (capacity + deadline +
//                                         shutdown == total_flushes); accepts
//                                         both the bench results array and
//                                         the single `ganns cluster-bench
//                                         --json` report
//   schema_check federation <fed.jsonl>   window stream of the one window
//                                         engine (`cluster-bench
//                                         --federation-out`, `serve-bench
//                                         --series-out`):
//                                         monotone seq / non-decreasing time,
//                                         interval_us = t_us minus the
//                                         previous cut (window 0: t_us),
//                                         per-node state + scrape_ok +
//                                         counters/gauges/hdr sections,
//                                         cluster roll-up and the derived
//                                         alert inputs; failed scrapes must
//                                         carry zero counter deltas
//   schema_check alerts  <alerts.jsonl> [rule ...]
//                                         alert event log (`cluster-bench
//                                         --alerts-out`): each line a
//                                         firing/resolved transition, with
//                                         per-(rule,node) alternation
//                                         starting at firing; trailing args
//                                         name rules that must both fire and
//                                         resolve (the failure-drill gate)
//   schema_check flight  <flight.json>    flight-recorder dump: counters,
//                                         violator records (served
//                                         violators must carry hardness and
//                                         a complete span tree; terminal
//                                         ones a root + terminal instant
//                                         and no kernel stages), batch
//                                         contexts
//
// Exit code 0 iff the file parses as JSON and matches the expected schema.
// The JSON DOM/parser lives in tools/json_reader.h (shared with bench_diff
// and `ganns stat`). Used by ctest to gate the `ganns profile` pipeline and
// the serving trace/stats artifacts.
//
// Beyond per-event field checks, `trace` validates the serving process
// (pid 2): every request track (tid >= 1024) must carry exactly one
// serve.request root span, every other event on the track must fall inside
// the root, and tracks ending in a terminal instant (serve.rejected /
// serve.expired / serve.shutdown) must not contain fan-out, shard, or merge
// spans — the request never reached a kernel.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/json_reader.h"

namespace {

using ganns::tools::Json;
using ganns::tools::JsonPtr;

// Mirrors the track layout in src/obs/trace.h.
constexpr double kServePid = 2;
constexpr double kServeRequestTrackBase = 1024;
// Wall timestamps are %.3f microseconds; allow one printed quantum of slop
// at containment boundaries.
constexpr double kContainEps = 0.01;

int Complain(const char* what) {
  std::fprintf(stderr, "schema error: %s\n", what);
  return 1;
}

int ComplainTrack(const char* what, double tid) {
  std::fprintf(stderr, "schema error: %s (serving track %.0f)\n", what, tid);
  return 1;
}

bool IsNumber(const Json* node) {
  return node != nullptr && node->Is(Json::Kind::kNumber);
}

bool IsString(const Json* node) {
  return node != nullptr && node->Is(Json::Kind::kString);
}

/// One serving-pid event reduced to what the shape check needs.
struct ServeEvent {
  std::string name;
  bool is_span = false;  // X (span) vs i (instant)
  double ts = 0;
  double dur = 0;
};

/// Validates the per-request span trees on the serving process. Returns 0
/// and reports the number of complete trees on success.
int CheckServingShape(
    const std::map<double, std::vector<ServeEvent>>& tracks) {
  std::size_t trees = 0;
  for (const auto& [tid, events] : tracks) {
    const ServeEvent* root = nullptr;
    bool terminal = false;
    bool kernel_stage = false;
    for (const ServeEvent& event : events) {
      if (event.name == "serve.request") {
        if (!event.is_span) {
          return ComplainTrack("serve.request is not a span", tid);
        }
        if (root != nullptr) {
          return ComplainTrack("more than one serve.request root", tid);
        }
        root = &event;
      } else if (event.name == "serve.rejected" ||
                 event.name == "serve.expired" ||
                 event.name == "serve.shutdown") {
        terminal = true;
      } else if (event.name == "serve.shard_fanout" ||
                 event.name == "serve.shard_search" ||
                 event.name == "serve.merge") {
        kernel_stage = true;
      }
    }
    if (root == nullptr) {
      return ComplainTrack("request track has no serve.request root", tid);
    }
    if (terminal && kernel_stage) {
      return ComplainTrack(
          "terminal request carries fan-out/shard/merge spans", tid);
    }
    const double begin = root->ts - kContainEps;
    const double end = root->ts + root->dur + kContainEps;
    for (const ServeEvent& event : events) {
      if (&event == root) continue;
      if (event.ts < begin || event.ts + event.dur > end) {
        return ComplainTrack("event escapes its serve.request root", tid);
      }
    }
    ++trees;
  }
  if (trees > 0) {
    std::printf("serving ok: %zu request span trees\n", trees);
  }
  return 0;
}

/// Chrome trace_event format: {"traceEvents": [...]} where every event has
/// name/ph/pid/tid/ts; "X" events additionally carry a non-negative dur;
/// "M" (metadata) events carry args.name. Serving-pid request tracks are
/// additionally shape-checked (see CheckServingShape).
int CheckTrace(const Json& root) {
  if (!root.Is(Json::Kind::kObject)) return Complain("root is not an object");
  const Json* events = root.Get("traceEvents");
  if (events == nullptr || !events->Is(Json::Kind::kArray)) {
    return Complain("missing traceEvents array");
  }
  std::size_t spans = 0;
  std::map<double, std::vector<ServeEvent>> serve_tracks;
  for (const JsonPtr& event : events->array) {
    if (!event->Is(Json::Kind::kObject)) {
      return Complain("event is not an object");
    }
    const Json* name = event->Get("name");
    if (!IsString(name)) return Complain("event missing name");
    const Json* ph = event->Get("ph");
    if (!IsString(ph)) return Complain("event missing ph");
    const Json* pid = event->Get("pid");
    const Json* tid = event->Get("tid");
    if (!IsNumber(pid)) return Complain("event missing pid");
    if (!IsNumber(tid)) return Complain("event missing tid");
    if (ph->string == "X") {
      if (!IsNumber(event->Get("ts"))) return Complain("X event missing ts");
      const Json* dur = event->Get("dur");
      if (!IsNumber(dur) || dur->number < 0) {
        return Complain("X event missing non-negative dur");
      }
      ++spans;
    } else if (ph->string == "i") {
      if (!IsNumber(event->Get("ts"))) return Complain("i event missing ts");
    } else if (ph->string == "M") {
      const Json* args = event->Get("args");
      if (args == nullptr || !args->Is(Json::Kind::kObject) ||
          !IsString(args->Get("name"))) {
        return Complain("M event missing args.name");
      }
      continue;
    } else if (ph->string == "s" || ph->string == "t" || ph->string == "f") {
      // Flow events (start/step/end) stitch a request's spans across
      // process/track boundaries; they bind by (pid, tid, ts) + id.
      if (!IsNumber(event->Get("ts"))) {
        return Complain("flow event missing ts");
      }
      if (!IsNumber(event->Get("id"))) {
        return Complain("flow event missing id");
      }
      continue;
    } else {
      return Complain("unknown event phase (expect X/i/M/s/t/f)");
    }
    if (pid->number == kServePid && tid->number >= kServeRequestTrackBase) {
      ServeEvent reduced;
      reduced.name = name->string;
      reduced.is_span = ph->string == "X";
      reduced.ts = event->Get("ts")->number;
      reduced.dur = reduced.is_span ? event->Get("dur")->number : 0;
      serve_tracks[tid->number].push_back(std::move(reduced));
    }
  }
  const int serving = CheckServingShape(serve_tracks);
  if (serving != 0) return serving;
  std::printf("trace ok: %zu events (%zu spans)\n", events->array.size(),
              spans);
  return 0;
}

/// One hdr summary: count/sum/min/max/mean plus monotone percentiles and
/// exemplars carrying {id, value} links back to request traces.
int CheckHdrEntry(const std::string& name, const Json& hdr) {
  const std::string where = "hdr." + name;
  if (!hdr.Is(Json::Kind::kObject)) {
    return Complain((where + " is not an object").c_str());
  }
  for (const char* key :
       {"count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99",
        "p999"}) {
    if (!IsNumber(hdr.Get(key))) {
      return Complain((where + " missing " + key).c_str());
    }
  }
  if (hdr.Get("count")->number > 0) {
    const double quantiles[] = {
        hdr.Get("min")->number, hdr.Get("p50")->number,
        hdr.Get("p90")->number, hdr.Get("p95")->number,
        hdr.Get("p99")->number, hdr.Get("p999")->number,
        hdr.Get("max")->number};
    for (std::size_t i = 1; i < std::size(quantiles); ++i) {
      if (quantiles[i] < quantiles[i - 1]) {
        return Complain((where + " percentiles are not monotone").c_str());
      }
    }
  }
  const Json* exemplars = hdr.Get("exemplars");
  if (exemplars == nullptr || !exemplars->Is(Json::Kind::kArray)) {
    return Complain((where + " missing exemplars array").c_str());
  }
  for (const JsonPtr& exemplar : exemplars->array) {
    if (!exemplar->Is(Json::Kind::kObject) ||
        !IsNumber(exemplar->Get("id")) || !IsNumber(exemplar->Get("value"))) {
      return Complain((where + " exemplar is not {id, value}").c_str());
    }
  }
  return 0;
}

/// MetricsRegistry export: {"counters":{name:int}, "gauges":{name:number},
/// "hdr":{name:entry}}. Every hdr entry present must pass CheckHdrEntry;
/// when require_hdr is set (stats mode) the "hdr" object must exist and be
/// non-empty.
int CheckMetrics(const Json& root, bool require_hdr) {
  if (!root.Is(Json::Kind::kObject)) return Complain("root is not an object");
  const Json* counters = root.Get("counters");
  const Json* gauges = root.Get("gauges");
  if (counters == nullptr || !counters->Is(Json::Kind::kObject)) {
    return Complain("missing counters object");
  }
  if (gauges == nullptr || !gauges->Is(Json::Kind::kObject)) {
    return Complain("missing gauges object");
  }
  for (const auto& [name, value] : counters->object) {
    if (!IsNumber(value.get()) || value->number < 0) {
      return Complain("counter is not a non-negative number");
    }
  }
  for (const auto& [name, value] : gauges->object) {
    if (!IsNumber(value.get())) return Complain("gauge is not a number");
  }
  const Json* hdr = root.Get("hdr");
  std::size_t hdr_count = 0;
  if (require_hdr &&
      (hdr == nullptr || !hdr->Is(Json::Kind::kObject) ||
       hdr->object.empty())) {
    return Complain("stats file missing non-empty hdr object");
  }
  if (hdr != nullptr && hdr->Is(Json::Kind::kObject)) {
    for (const auto& [name, entry] : hdr->object) {
      const int rc = CheckHdrEntry(name, *entry);
      if (rc != 0) return rc;
      ++hdr_count;
    }
  }
  std::printf("metrics ok: %zu counters, %zu gauges, %zu hdr\n",
              counters->object.size(), gauges->object.size(), hdr_count);
  return 0;
}

/// Bench rows are simulated-clock only; host wall time is perfbench's
/// clock. Fails on the first key under `node` named wall_*, latency_us or
/// open_qps, naming it by its dotted path.
int RejectWallFields(const Json& node, const std::string& path) {
  for (const auto& [key, value] : node.object) {
    const std::string child = path + "." + key;
    if (key.rfind("wall_", 0) == 0 || key == "latency_us" ||
        key == "open_qps") {
      return Complain((child + ": wall-clock field in a bench row").c_str());
    }
    if (value->Is(Json::Kind::kObject)) {
      if (const int rc = RejectWallFields(*value, child); rc != 0) return rc;
    }
  }
  return 0;
}

/// BENCH_*.json artifact: a provenance object (git sha/date/host/flags
/// strings, see bench::ProvenanceJson) plus at least one row array named
/// "results" or "quantized". Rows must be objects free of wall-clock keys
/// (RejectWallFields); "quantized" rows (the compressed-search table) are
/// field-checked: precision string, numeric rerank_factor / sim_qps /
/// resident_bytes_per_vector, recall in [0, 1], and a positive byte count —
/// so bench_diff never gates on a malformed artifact that happens to
/// flatten to plausible paths.
int CheckBench(const Json& root) {
  if (!root.Is(Json::Kind::kObject)) return Complain("root is not an object");
  const Json* provenance = root.Get("provenance");
  if (provenance == nullptr || !provenance->Is(Json::Kind::kObject)) {
    return Complain("missing provenance object");
  }
  for (const auto& [key, value] : provenance->object) {
    if (!IsString(value.get())) {
      return Complain("provenance field is not a string");
    }
  }
  std::size_t rows = 0;
  std::size_t arrays = 0;
  for (const char* section : {"results", "quantized"}) {
    const Json* array = root.Get(section);
    if (array == nullptr) continue;
    if (!array->Is(Json::Kind::kArray)) {
      return Complain("row section is not an array");
    }
    if (array->array.empty()) return Complain("row section is empty");
    ++arrays;
    for (std::size_t i = 0; i < array->array.size(); ++i) {
      const JsonPtr& row = array->array[i];
      if (!row->Is(Json::Kind::kObject)) {
        return Complain("bench row is not an object");
      }
      const std::string path = std::string(section) + "." + std::to_string(i);
      if (const int rc = RejectWallFields(*row, path); rc != 0) return rc;
      ++rows;
      if (std::strcmp(section, "quantized") != 0) continue;
      if (!IsString(row->Get("precision"))) {
        return Complain("quantized row missing precision string");
      }
      for (const char* key :
           {"rerank_factor", "recall", "sim_qps",
            "resident_bytes_per_vector"}) {
        if (!IsNumber(row->Get(key))) {
          return Complain(
              (std::string("quantized row missing ") + key).c_str());
        }
      }
      const double recall = row->Get("recall")->number;
      if (recall < 0 || recall > 1) {
        return Complain("quantized recall outside [0, 1]");
      }
      if (row->Get("resident_bytes_per_vector")->number <= 0) {
        return Complain("quantized resident bytes not positive");
      }
    }
  }
  if (arrays == 0) return Complain("missing results/quantized row array");
  std::printf("bench ok: %zu rows in %zu sections\n", rows, arrays);
  return 0;
}

// ---------------------------------------------------------------------------
// Cluster reports (BENCH_cluster.json and `ganns cluster-bench --json`)
// ---------------------------------------------------------------------------

/// One cluster report row: headline counters, the aggregator's flush
/// accounting (whose triggers must sum to total_flushes — every buffered
/// message leaves through exactly one of capacity/deadline/shutdown), and a
/// complete per-node stats array.
int CheckClusterRow(const Json& row) {
  for (const char* key : {"nodes", "replication", "served", "lost",
                          "failovers", "timeouts"}) {
    if (!IsNumber(row.Get(key))) {
      return Complain((std::string("cluster row missing ") + key).c_str());
    }
  }
  if (!IsString(row.Get("selection"))) {
    return Complain("cluster row missing selection string");
  }
  const Json* recall = row.Get("recall");
  if (!IsNumber(recall) || recall->number < 0 || recall->number > 1) {
    return Complain("cluster recall outside [0, 1]");
  }
  const Json* sim_qps = row.Get("sim_qps");
  if (!IsNumber(sim_qps) || sim_qps->number < 0) {
    return Complain("cluster sim_qps missing or negative");
  }

  const Json* aggregator = row.Get("aggregator");
  if (aggregator == nullptr || !aggregator->Is(Json::Kind::kObject)) {
    return Complain("cluster row missing aggregator object");
  }
  for (const char* key :
       {"enqueued_messages", "enqueued_bytes", "capacity_flushes",
        "deadline_flushes", "shutdown_flushes", "total_flushes",
        "sent_bytes", "coalescing_factor"}) {
    const Json* value = aggregator->Get(key);
    if (!IsNumber(value) || value->number < 0) {
      return Complain(
          (std::string("aggregator missing non-negative ") + key).c_str());
    }
  }
  const double flush_sum = aggregator->Get("capacity_flushes")->number +
                           aggregator->Get("deadline_flushes")->number +
                           aggregator->Get("shutdown_flushes")->number;
  if (flush_sum != aggregator->Get("total_flushes")->number) {
    return Complain(
        "aggregator flush accounting broken: capacity + deadline + shutdown "
        "!= total_flushes");
  }

  const Json* node_stats = row.Get("node_stats");
  if (node_stats == nullptr || !node_stats->Is(Json::Kind::kArray) ||
      node_stats->array.empty()) {
    return Complain("cluster row missing non-empty node_stats array");
  }
  if (node_stats->array.size() != row.Get("nodes")->number) {
    return Complain("node_stats length != nodes");
  }
  for (const JsonPtr& node : node_stats->array) {
    if (!node->Is(Json::Kind::kObject)) {
      return Complain("node_stats entry is not an object");
    }
    for (const char* key : {"id", "served_sub_batches", "served_queries",
                            "timeouts", "transfer_bytes"}) {
      const Json* value = node->Get(key);
      if (!IsNumber(value) || value->number < 0) {
        return Complain(
            (std::string("node_stats missing non-negative ") + key).c_str());
      }
    }
    const Json* state = node->Get("state");
    if (!IsString(state) ||
        (state->string != "up" && state->string != "suspect" &&
         state->string != "down")) {
      return Complain("node_stats state is not up/suspect/down");
    }
    const Json* hosted = node->Get("hosted_shards");
    if (hosted == nullptr || !hosted->Is(Json::Kind::kArray)) {
      return Complain("node_stats missing hosted_shards array");
    }
  }
  return 0;
}

/// Accepts both artifact shapes: the bench file (provenance + results row
/// array, each row a full cluster report) and the single-report object that
/// `ganns cluster-bench --json` writes (detected by a top-level node_stats).
int CheckCluster(const Json& root) {
  if (!root.Is(Json::Kind::kObject)) return Complain("root is not an object");
  if (root.Get("node_stats") != nullptr) {
    const int rc = CheckClusterRow(root);
    if (rc != 0) return rc;
    std::printf("cluster ok: 1 report\n");
    return 0;
  }
  const Json* results = root.Get("results");
  if (results == nullptr || !results->Is(Json::Kind::kArray) ||
      results->array.empty()) {
    return Complain("missing non-empty results array");
  }
  for (const JsonPtr& row : results->array) {
    if (!row->Is(Json::Kind::kObject)) {
      return Complain("cluster row is not an object");
    }
    const int rc = CheckClusterRow(*row);
    if (rc != 0) return rc;
  }
  std::printf("cluster ok: %zu rows\n", results->array.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

int ComplainLine(std::size_t line, const char* what) {
  std::fprintf(stderr, "schema error: line %zu: %s\n", line, what);
  return 1;
}

bool IsMetricNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) || (c >= '0' && c <= '9');
}

bool IsValidMetricName(const std::string& name) {
  if (name.empty() || !IsMetricNameStart(name[0])) return false;
  for (char c : name) {
    if (!IsMetricNameChar(c)) return false;
  }
  return true;
}

/// One sample line decomposed: family name, ordered labels, numeric value.
struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
};

const std::string* LabelValue(const PromSample& sample,
                              const std::string& key) {
  for (const auto& [k, v] : sample.labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

/// Parses `name{key="value",...} number`. Returns false (with *why set) on
/// any malformation: bad name charset, unquoted or badly escaped label
/// values, labels out of lexicographic order, trailing garbage.
bool ParsePromSample(const std::string& line, PromSample* sample,
                     std::string* why) {
  std::size_t pos = 0;
  while (pos < line.size() && IsMetricNameChar(line[pos])) ++pos;
  sample->name = line.substr(0, pos);
  if (!IsValidMetricName(sample->name)) {
    *why = "invalid metric name";
    return false;
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t key_start = pos;
      while (pos < line.size() && IsMetricNameChar(line[pos])) ++pos;
      const std::string key = line.substr(key_start, pos - key_start);
      if (key.empty() || !IsValidMetricName(key)) {
        *why = "invalid label name";
        return false;
      }
      if (pos >= line.size() || line[pos] != '=') {
        *why = "label missing '='";
        return false;
      }
      ++pos;
      if (pos >= line.size() || line[pos] != '"') {
        *why = "label value is not quoted";
        return false;
      }
      ++pos;
      std::string value;
      while (pos < line.size() && line[pos] != '"') {
        char c = line[pos++];
        if (c == '\\') {
          if (pos >= line.size()) {
            *why = "bad escape in label value";
            return false;
          }
          const char e = line[pos++];
          if (e == '\\' || e == '"') {
            c = e;
          } else if (e == 'n') {
            c = '\n';
          } else {
            *why = "bad escape in label value";
            return false;
          }
        }
        value.push_back(c);
      }
      if (pos >= line.size()) {
        *why = "unterminated label value";
        return false;
      }
      ++pos;  // closing quote
      if (!sample->labels.empty() && key <= sample->labels.back().first) {
        *why = "labels out of order";
        return false;
      }
      sample->labels.emplace_back(key, std::move(value));
      if (pos < line.size() && line[pos] == ',') {
        ++pos;
        continue;
      }
    }
    if (pos >= line.size() || line[pos] != '}') {
      *why = "unterminated label set";
      return false;
    }
    ++pos;
  }
  if (pos >= line.size() || line[pos] != ' ') {
    *why = "sample missing value";
    return false;
  }
  ++pos;
  const std::string text = line.substr(pos);
  if (text == "+Inf") {
    sample->value = 1e308;
    return true;
  }
  char* end = nullptr;
  sample->value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    *why = "sample value is not a number";
    return false;
  }
  return true;
}

/// One (family, label-set) series being accumulated while scanning the
/// file. Histogram buckets and summary quantiles restart per label set (the
/// federated exporter emits one run per node), so the ordering invariants
/// are tracked per set.
struct PromSeries {
  // histogram: cumulative bucket counts in emission order (+Inf last);
  // summary: quantile -> value in emission order.
  std::vector<std::pair<double, double>> series;
  bool saw_inf_bucket = false;
  double count = -1;  // _count sample, once seen
};

/// One metric family being accumulated while scanning the file.
struct PromFamily {
  std::string type;
  std::size_t declared_line = 0;
  /// Keyed by the label signature minus the le/quantile label.
  std::map<std::string, PromSeries> series;
  bool saw_samples = false;
};

/// The label signature identifying one series of a family: every label
/// except the histogram/summary positional one.
std::string SeriesKey(const PromSample& sample) {
  std::string key;
  for (const auto& [k, v] : sample.labels) {
    if (k == "le" || k == "quantile") continue;
    key += k + "=" + v + ",";
  }
  return key;
}

/// Strips a histogram/summary suffix, returning the owning family name if
/// `families` declares one.
const std::string* FamilyOf(
    const std::map<std::string, PromFamily>& families, const std::string& name,
    std::string* suffix) {
  static const char* kSuffixes[] = {"_bucket", "_sum", "_count"};
  const auto it = families.find(name);
  if (it != families.end()) {
    suffix->clear();
    return &it->first;
  }
  for (const char* s : kSuffixes) {
    const std::size_t len = std::strlen(s);
    if (name.size() > len &&
        name.compare(name.size() - len, len, s) == 0) {
      const std::string base = name.substr(0, name.size() - len);
      const auto base_it = families.find(base);
      if (base_it != families.end()) {
        *suffix = s;
        return &base_it->first;
      }
    }
  }
  return nullptr;
}

/// Validates a Prometheus text exposition file line by line, then checks
/// each family's invariants: histogram buckets cumulative with a +Inf bucket
/// equal to _count, summary quantiles in [0, 1] with non-decreasing values.
int CheckProm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::map<std::string, PromFamily> families;
  std::string line;
  std::size_t line_no = 0;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line);
      std::string hash, keyword, name, type;
      header >> hash >> keyword >> name >> type;
      if (keyword == "HELP") continue;
      if (keyword != "TYPE") {
        return ComplainLine(line_no, "comment is neither # TYPE nor # HELP");
      }
      if (!IsValidMetricName(name)) {
        return ComplainLine(line_no, "TYPE declares an invalid metric name");
      }
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary") {
        return ComplainLine(line_no, "TYPE kind is not "
                                     "counter|gauge|histogram|summary");
      }
      if (families.count(name) != 0) {
        return ComplainLine(line_no, "duplicate TYPE declaration");
      }
      PromFamily family;
      family.type = type;
      family.declared_line = line_no;
      families.emplace(name, std::move(family));
      continue;
    }
    PromSample sample;
    std::string why;
    if (!ParsePromSample(line, &sample, &why)) {
      return ComplainLine(line_no, why.c_str());
    }
    ++samples;
    std::string suffix;
    const std::string* owner = FamilyOf(families, sample.name, &suffix);
    if (owner == nullptr) {
      return ComplainLine(line_no, "sample has no preceding TYPE family");
    }
    PromFamily& family = families[*owner];
    family.saw_samples = true;
    if (family.type == "counter" || family.type == "gauge") {
      if (!suffix.empty()) {
        return ComplainLine(line_no, "scalar family has a suffixed sample");
      }
      // Labels on scalar families are fine (the federated exporter labels
      // every sample with node="N"); the parser already validated their
      // charset, quoting, and ordering.
      if (family.type == "counter" && sample.value < 0) {
        return ComplainLine(line_no, "counter sample is negative");
      }
    } else if (family.type == "histogram") {
      PromSeries& series = family.series[SeriesKey(sample)];
      if (suffix == "_bucket") {
        const std::string* le = LabelValue(sample, "le");
        if (le == nullptr) {
          return ComplainLine(line_no, "histogram bucket missing le label");
        }
        const double bound =
            *le == "+Inf" ? 1e308 : std::strtod(le->c_str(), nullptr);
        if (!series.series.empty() &&
            (bound <= series.series.back().first ||
             sample.value < series.series.back().second)) {
          return ComplainLine(line_no,
                              "histogram buckets not cumulative/ordered");
        }
        series.series.emplace_back(bound, sample.value);
        if (*le == "+Inf") series.saw_inf_bucket = true;
      } else if (suffix == "_count") {
        series.count = sample.value;
      } else if (suffix != "_sum") {
        return ComplainLine(line_no, "unsuffixed sample on a histogram");
      }
    } else {  // summary
      PromSeries& series = family.series[SeriesKey(sample)];
      if (suffix.empty()) {
        const std::string* quantile = LabelValue(sample, "quantile");
        if (quantile == nullptr) {
          return ComplainLine(line_no, "summary sample missing quantile");
        }
        const double q = std::strtod(quantile->c_str(), nullptr);
        if (q < 0 || q > 1) {
          return ComplainLine(line_no, "summary quantile outside [0, 1]");
        }
        if (!series.series.empty() &&
            (q <= series.series.back().first ||
             sample.value < series.series.back().second)) {
          return ComplainLine(line_no,
                              "summary quantiles not ordered/monotone");
        }
        series.series.emplace_back(q, sample.value);
      } else if (suffix == "_count") {
        series.count = sample.value;
      } else if (suffix != "_sum") {
        return ComplainLine(line_no, "unexpected suffix on a summary");
      }
    }
  }
  for (const auto& [name, family] : families) {
    if (!family.saw_samples) {
      return ComplainLine(family.declared_line, "TYPE family has no samples");
    }
    for (const auto& [key, series] : family.series) {
      if (family.type == "histogram") {
        if (!series.saw_inf_bucket) {
          return ComplainLine(family.declared_line,
                              "histogram missing +Inf bucket");
        }
        if (series.count >= 0 && !series.series.empty() &&
            series.series.back().second != series.count) {
          return ComplainLine(family.declared_line,
                              "+Inf bucket != histogram count");
        }
      }
      if (family.type == "summary" && series.series.empty()) {
        return ComplainLine(family.declared_line,
                            "summary has no quantile lines");
      }
    }
  }
  std::printf("prom ok: %zu families, %zu samples\n", families.size(),
              samples);
  return 0;
}

// ---------------------------------------------------------------------------
// Flight-recorder dump
// ---------------------------------------------------------------------------

/// Reduces a flight-dump span entry ({"name","tid","ts","dur"}) to the
/// shared ServeEvent shape, treating dur == 0 as an instant.
bool ReduceFlightSpan(const Json& node, ServeEvent* out) {
  if (!node.Is(Json::Kind::kObject)) return false;
  const Json* name = node.Get("name");
  const Json* ts = node.Get("ts");
  const Json* dur = node.Get("dur");
  if (!IsString(name) || !IsNumber(ts) || !IsNumber(dur) ||
      !IsNumber(node.Get("tid")) || dur->number < 0) {
    return false;
  }
  out->name = name->string;
  out->ts = ts->number;
  out->dur = dur->number;
  out->is_span = dur->number > 0;
  return true;
}

int ComplainViolator(const char* what, double id) {
  std::fprintf(stderr, "schema error: %s (violator id %.0f)\n", what, id);
  return 1;
}

/// Validates one violator's span tree: exactly one serve.request root with
/// everything inside it. Served (status ok) violators must carry the full
/// journey — queue_wait, batch_form, shard_fanout, at least one
/// shard_search, merge; terminal ones a terminal instant and no kernel
/// stages.
int CheckViolatorSpans(const Json& spans, const std::string& status,
                       double id) {
  const ServeEvent* root = nullptr;
  std::vector<ServeEvent> events;
  events.reserve(spans.array.size());
  for (const JsonPtr& node : spans.array) {
    ServeEvent event;
    if (!ReduceFlightSpan(*node, &event)) {
      return Complain("flight span is not {name, tid, ts, dur}");
    }
    events.push_back(std::move(event));
  }
  std::map<std::string, std::size_t> seen;
  for (const ServeEvent& event : events) {
    ++seen[event.name];
    if (event.name == "serve.request") root = &event;
  }
  if (seen["serve.request"] != 1) {
    return ComplainViolator("violator needs exactly one serve.request root", id);
  }
  const double begin = root->ts - kContainEps;
  const double end = root->ts + root->dur + kContainEps;
  for (const ServeEvent& event : events) {
    if (&event == root) continue;
    if (event.ts < begin || event.ts + event.dur > end) {
      return ComplainViolator("flight span escapes its serve.request root", id);
    }
  }
  const bool kernel_stage = seen.count("serve.shard_fanout") != 0 ||
                            seen.count("serve.shard_search") != 0 ||
                            seen.count("serve.merge") != 0;
  if (status == "ok") {
    for (const char* stage : {"serve.queue_wait", "serve.batch_form",
                              "serve.shard_fanout", "serve.shard_search",
                              "serve.merge"}) {
      if (seen.count(stage) == 0) {
        return ComplainViolator(
            (std::string("served violator missing ") + stage).c_str(), id);
      }
    }
  } else {
    if (kernel_stage) {
      return ComplainViolator(
          "terminal violator carries fan-out/shard/merge spans", id);
    }
    if (seen.count("serve.rejected") == 0 &&
        seen.count("serve.expired") == 0 &&
        seen.count("serve.shutdown") == 0) {
      return ComplainViolator("terminal violator missing terminal instant", id);
    }
  }
  return 0;
}

/// Flight-recorder dump: options + non-negative counters + violator records
/// + persisted batch contexts. Served violators must carry hardness signals
/// and a complete span tree (the whole point of tail-based recording).
int CheckFlight(const Json& root) {
  if (!root.Is(Json::Kind::kObject)) return Complain("root is not an object");
  const Json* options = root.Get("options");
  if (options == nullptr || !options->Is(Json::Kind::kObject)) {
    return Complain("missing options object");
  }
  const Json* counters = root.Get("counters");
  if (counters == nullptr || !counters->Is(Json::Kind::kObject)) {
    return Complain("missing counters object");
  }
  for (const char* key : {"recorded", "batches", "violators", "persisted",
                          "overwritten", "batches_overwritten",
                          "persisted_dropped"}) {
    const Json* value = counters->Get(key);
    if (!IsNumber(value) || value->number < 0) {
      return Complain(
          (std::string("counters missing non-negative ") + key).c_str());
    }
  }
  const Json* violators = root.Get("violators");
  if (violators == nullptr || !violators->Is(Json::Kind::kArray)) {
    return Complain("missing violators array");
  }
  std::size_t served_violators = 0;
  for (const JsonPtr& record : violators->array) {
    if (!record->Is(Json::Kind::kObject)) {
      return Complain("violator is not an object");
    }
    const Json* status = record->Get("status");
    if (!IsString(status)) return Complain("violator missing status");
    for (const char* key : {"id", "latency_us", "queue_wait_us",
                            "deadline_us", "batch_seq", "batch_size"}) {
      if (!IsNumber(record->Get(key))) {
        return Complain((std::string("violator missing ") + key).c_str());
      }
    }
    const Json* spans = record->Get("spans");
    if (spans == nullptr || !spans->Is(Json::Kind::kArray) ||
        spans->array.empty()) {
      return Complain("violator missing non-empty spans array");
    }
    if (status->string == "ok") {
      ++served_violators;
      const Json* hardness = record->Get("hardness");
      if (hardness == nullptr || !hardness->Is(Json::Kind::kObject)) {
        return Complain("served violator missing hardness object");
      }
      for (const char* key : {"entry_distance", "early_fanout", "visited",
                              "budget", "visited_budget_ratio"}) {
        if (!IsNumber(hardness->Get(key))) {
          return Complain(
              (std::string("hardness missing ") + key).c_str());
        }
      }
    }
    const int rc = CheckViolatorSpans(*spans, status->string,
                                      record->Get("id")->number);
    if (rc != 0) return rc;
  }
  const Json* batches = root.Get("batches");
  if (batches == nullptr || !batches->Is(Json::Kind::kArray)) {
    return Complain("missing batches array");
  }
  for (const JsonPtr& batch : batches->array) {
    if (!batch->Is(Json::Kind::kObject) || !IsNumber(batch->Get("seq")) ||
        !IsNumber(batch->Get("size")) || batch->Get("spans") == nullptr ||
        !batch->Get("spans")->Is(Json::Kind::kArray)) {
      return Complain("batch context is not {seq, size, spans}");
    }
  }
  std::printf("flight ok: %zu violators (%zu served), %zu batch contexts\n",
              violators->array.size(), served_violators,
              batches->array.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Federated windows and alert events (JSONL artifacts)
// ---------------------------------------------------------------------------

int ComplainWindow(std::size_t index, const char* what) {
  std::fprintf(stderr, "schema error: record %zu: %s\n", index, what);
  return 1;
}

/// Window stream (`cluster-bench --federation-out`, `serve-bench
/// --series-out`): every line a window with a monotone seq, non-decreasing
/// time, per-node sections (state, scrape_ok, counters/gauges/hdr), a
/// roll-up, and the derived signals.
int CheckFederation(const std::string& path) {
  std::string why;
  const std::vector<JsonPtr> windows = ganns::tools::ReadJsonlFile(path, &why);
  if (!why.empty()) return Complain(why.c_str());
  if (windows.empty()) return Complain("no federated windows");
  double prev_seq = -1;
  double prev_t = -1;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Json& window = *windows[i];
    if (!window.Is(Json::Kind::kObject)) {
      return ComplainWindow(i, "window is not an object");
    }
    for (const char* key : {"seq", "t_us", "interval_us", "scrape_bytes"}) {
      const Json* value = window.Get(key);
      if (!IsNumber(value) || value->number < 0) {
        return ComplainWindow(
            i, (std::string("window missing non-negative ") + key).c_str());
      }
    }
    const double seq = window.Get("seq")->number;
    const double t_us = window.Get("t_us")->number;
    if (seq <= prev_seq) {
      return ComplainWindow(i, "seq not strictly increasing");
    }
    if (t_us < prev_t) return ComplainWindow(i, "t_us decreased");
    // Each window spans from the previous cut; window 0 spans from the
    // clock origin its deltas are cumulative from. (A ring that evicted the
    // previous window leaves nothing to compare against.)
    const double span_start = seq == 0 ? 0 : seq == prev_seq + 1 ? prev_t : -1;
    if (span_start >= 0 &&
        window.Get("interval_us")->number != t_us - span_start) {
      return ComplainWindow(i, "interval_us is not t_us minus the previous "
                               "cut (window 0: t_us)");
    }
    prev_seq = seq;
    prev_t = t_us;

    const Json* nodes = window.Get("nodes");
    if (nodes == nullptr || !nodes->Is(Json::Kind::kArray) ||
        nodes->array.empty()) {
      return ComplainWindow(i, "missing non-empty nodes array");
    }
    for (const JsonPtr& node : nodes->array) {
      if (!node->Is(Json::Kind::kObject) || !IsNumber(node->Get("node"))) {
        return ComplainWindow(i, "node window is not {node, ...}");
      }
      const Json* state = node->Get("state");
      if (!IsString(state) ||
          (state->string != "up" && state->string != "suspect" &&
           state->string != "down")) {
        return ComplainWindow(i, "node state is not up/suspect/down");
      }
      const Json* scrape_ok = node->Get("scrape_ok");
      if (scrape_ok == nullptr || !scrape_ok->Is(Json::Kind::kBool)) {
        return ComplainWindow(i, "node missing scrape_ok bool");
      }
      for (const char* section : {"counters", "gauges", "hdr"}) {
        const Json* object = node->Get(section);
        if (object == nullptr || !object->Is(Json::Kind::kObject)) {
          return ComplainWindow(
              i, (std::string("node missing ") + section + " object").c_str());
        }
      }
      // A failed scrape answers nothing: its window must carry zero deltas.
      if (!scrape_ok->boolean) {
        for (const auto& [name, delta] : node->Get("counters")->object) {
          if (!IsNumber(delta.get()) || delta->number != 0) {
            return ComplainWindow(i, "failed scrape carries counter deltas");
          }
        }
      }
      const Json* hdr = node->Get("hdr");
      for (const auto& [name, entry] : hdr->object) {
        if (!entry->Is(Json::Kind::kObject) ||
            !IsNumber(entry->Get("count")) || !IsNumber(entry->Get("p50")) ||
            !IsNumber(entry->Get("p99")) || !IsNumber(entry->Get("max")) ||
            !IsNumber(entry->Get("total_count"))) {
          return ComplainWindow(
              i, "hdr window is not {count, p50, p99, max, total_count}");
        }
        if (entry->Get("count")->number > 0 &&
            (entry->Get("p50")->number > entry->Get("p99")->number ||
             entry->Get("p99")->number > entry->Get("max")->number)) {
          return ComplainWindow(i, "hdr window percentiles not monotone");
        }
      }
    }

    const Json* cluster = window.Get("cluster");
    if (cluster == nullptr || !cluster->Is(Json::Kind::kObject) ||
        cluster->Get("counters") == nullptr ||
        !cluster->Get("counters")->Is(Json::Kind::kObject) ||
        cluster->Get("hdr") == nullptr ||
        !cluster->Get("hdr")->Is(Json::Kind::kObject)) {
      return ComplainWindow(i, "missing cluster {counters, hdr} roll-up");
    }
    const Json* derived = window.Get("derived");
    if (derived == nullptr || !derived->Is(Json::Kind::kObject) ||
        !IsNumber(derived->Get("slo_headroom")) ||
        !IsNumber(derived->Get("slo_samples")) ||
        !IsNumber(derived->Get("queue_saturation"))) {
      return ComplainWindow(
          i, "missing derived {slo_headroom, slo_samples, queue_saturation}");
    }
  }
  std::printf("federation ok: %zu windows, %zu nodes\n", windows.size(),
              windows.front()->Get("nodes")->array.size());
  return 0;
}

/// Alert event log (`cluster-bench --alerts-out`): every line a firing or
/// resolved transition with non-decreasing time; per (rule, node) scope the
/// transitions must alternate starting with a firing. Extra CLI args name
/// rules that must both fire and resolve somewhere in the log — the drill
/// gate's expected sequence.
int CheckAlerts(const std::string& path,
                const std::vector<std::string>& must_fire_and_resolve) {
  std::string why;
  const std::vector<JsonPtr> events = ganns::tools::ReadJsonlFile(path, &why);
  if (!why.empty()) return Complain(why.c_str());
  std::map<std::string, bool> firing;     // (rule, node) -> currently firing
  std::map<std::string, int> fired;       // rule -> firings seen
  std::map<std::string, int> resolved;    // rule -> resolutions seen
  double prev_t = -1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& event = *events[i];
    if (!event.Is(Json::Kind::kObject)) {
      return ComplainWindow(i, "alert event is not an object");
    }
    for (const char* key : {"t_us", "seq", "value", "threshold"}) {
      if (!IsNumber(event.Get(key))) {
        return ComplainWindow(
            i, (std::string("alert event missing ") + key).c_str());
      }
    }
    const Json* rule = event.Get("rule");
    const Json* node = event.Get("node");
    const Json* state = event.Get("state");
    if (!IsString(rule) || rule->string.empty()) {
      return ComplainWindow(i, "alert event missing rule");
    }
    if (!IsString(node)) return ComplainWindow(i, "alert event missing node");
    if (!IsString(state) ||
        (state->string != "firing" && state->string != "resolved")) {
      return ComplainWindow(i, "alert state is not firing/resolved");
    }
    if (event.Get("t_us")->number < prev_t) {
      return ComplainWindow(i, "alert t_us decreased");
    }
    prev_t = event.Get("t_us")->number;
    const std::string scope = rule->string + "\x1f" + node->string;
    const bool now = state->string == "firing";
    const auto it = firing.find(scope);
    const bool was = it != firing.end() && it->second;
    if (now == was) {
      return ComplainWindow(
          i, now ? "firing event for an already-firing scope"
                 : "resolved event for a scope that was not firing");
    }
    firing[scope] = now;
    ++(now ? fired : resolved)[rule->string];
  }
  for (const std::string& rule : must_fire_and_resolve) {
    if (fired[rule] == 0) {
      std::fprintf(stderr, "schema error: expected rule '%s' to fire\n",
                   rule.c_str());
      return 1;
    }
    if (resolved[rule] == 0) {
      std::fprintf(stderr, "schema error: expected rule '%s' to resolve\n",
                   rule.c_str());
      return 1;
    }
  }
  std::printf("alerts ok: %zu transitions, %zu rules fired\n", events.size(),
              fired.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // "--prom"/"--flight" accepted as aliases so callers can spell the mode
  // like a flag.
  const char* mode = argc >= 2 ? argv[1] : "";
  if (std::strncmp(mode, "--", 2) == 0) mode += 2;
  const bool is_alerts = std::strcmp(mode, "alerts") == 0;
  // `alerts` takes optional trailing rule names that must fire and resolve;
  // every other mode is exactly <mode> <file>.
  if (argc < 3 || (argc != 3 && !is_alerts) ||
      (!is_alerts && std::strcmp(mode, "trace") != 0 &&
       std::strcmp(mode, "metrics") != 0 && std::strcmp(mode, "stats") != 0 &&
       std::strcmp(mode, "bench") != 0 && std::strcmp(mode, "prom") != 0 &&
       std::strcmp(mode, "flight") != 0 &&
       std::strcmp(mode, "cluster") != 0 &&
       std::strcmp(mode, "federation") != 0)) {
    std::fprintf(stderr,
                 "usage: schema_check "
                 "<trace|metrics|stats|bench|prom|flight|cluster|federation> "
                 "<file>\n"
                 "       schema_check alerts <alerts.jsonl> "
                 "[rule-that-must-fire-and-resolve ...]\n");
    return 2;
  }
  if (std::strcmp(mode, "prom") == 0) return CheckProm(argv[2]);
  if (std::strcmp(mode, "federation") == 0) return CheckFederation(argv[2]);
  if (is_alerts) {
    std::vector<std::string> expected;
    for (int i = 3; i < argc; ++i) expected.emplace_back(argv[i]);
    return CheckAlerts(argv[2], expected);
  }
  std::string error;
  const JsonPtr root = ganns::tools::ParseJsonFile(argv[2], &error);
  if (root == nullptr) {
    std::fprintf(stderr, "JSON parse error: %s\n", error.c_str());
    return 1;
  }
  if (std::strcmp(mode, "trace") == 0) return CheckTrace(*root);
  if (std::strcmp(mode, "bench") == 0) return CheckBench(*root);
  if (std::strcmp(mode, "flight") == 0) return CheckFlight(*root);
  if (std::strcmp(mode, "cluster") == 0) return CheckCluster(*root);
  return CheckMetrics(*root, std::strcmp(mode, "stats") == 0);
}
