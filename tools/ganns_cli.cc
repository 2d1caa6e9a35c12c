// ganns — command-line interface to the library, for driving real datasets
// through the index without writing C++:
//
//   ganns gen    --dataset SIFT1M --n 20000 --out base.fvecs
//                [--queries 200 --queries-out queries.fvecs] [--seed 1]
//   ganns build  --base base.fvecs --out index [--metric l2|cosine]
//                [--d-max 32] [--d-min 16] [--groups 64] [--kernel ganns|song]
//                [--hnsw] [--precision float|sq8|pq] [--pq-m 16] [--pq-k 256]
//                [--rerank 4]
//   ganns search --index index --base base.fvecs --queries queries.fvecs
//                --k 10 [--budget 64] [--out results.ivecs]
//                [--trace-out trace.json]
//   ganns eval   --base base.fvecs --queries queries.fvecs
//                --results results.ivecs --k 10 [--metric l2|cosine]
//   ganns profile --dataset SIFT1M --n 10000 [--queries 100] [--seed 1]
//                [--k 10] [--ln 64] [--e 0] [--algo ganns|song]
//                [--trace-out trace.json] [--metrics-out metrics.json]
//   ganns serve-bench --dataset SIFT1M --n 20000 [--queries 500] [--seed 1]
//                [--shards 2] [--k 10] [--budget 64]
//                [--kernel ganns|song|beam] [--hnsw]
//                [--precision float|sq8|pq] [--pq-m 16] [--pq-k 256]
//                [--rerank 4]
//                [--max-batch 32] [--window-us 200] [--queue-cap 1024]
//                [--deadline-us 0] [--save prefix | --load prefix]
//                [--json out.json] [--trace-out trace.json]
//                [--stats-out stats.json] [--prom-out metrics.prom]
//                [--sample 1/N]
//                [--series-out series.jsonl] [--series-interval-ms 100]
//                [--flight-out flight.json] [--slo-fraction 0.8]
//                [--flight-ring 4096] [--hardness-out hardness.jsonl]
//                [--fail-on-reject]
//   ganns cluster-bench --dataset SIFT1M --n 20000 [--queries 400] [--seed 1]
//                [--shards 4] [--nodes 3] [--replication 2]
//                [--selection rr|lo|p2c] [--k 10] [--budget 256]
//                [--kernel ganns|song|beam] [--batch 16]
//                [--crash-node N --crash-at-batch B [--rejoin-after R]]
//                [--drop-pct P] [--delay-pct P] [--delay-us U]
//                [--fault-seed S] [--timeout-us 1000] [--max-attempts 3]
//                [--agg-bytes 8192] [--agg-deadline-us 100]
//                [--verify-single-node] [--json out.json]
//                [--trace-out trace.json] [--stats-out stats.json]
//                [--prom-out metrics.prom] [--sample N]
//                [--federation-out fed.jsonl] [--fed-prom-out fed.prom]
//                [--alerts-out alerts.jsonl] [--federation]
//                [--scrape-interval-us 500] [--slo-deadline-us U]
//                [--alert-rules name:kind:...,name:kind:...]
//   ganns update --dataset SIFT1M --n 20000 [--queries 200] [--seed 1]
//                [--shards 2] [--k 10] [--budget 256]
//                [--inserts N] [--removes N] [--kernel ganns|song|beam]
//                [--ef-insert 64] [--compact-threshold-pct 25]
//                [--no-auto-compact 1] [--compact 1]
//                [--save prefix] [--json out.json] [--trace-out trace.json]
//                [--stats-out stats.json] [--prom-out metrics.prom]
//   ganns stat   <stats.json|cluster report|BENCH_cluster.json>
//                [--metric serve.latency_us] [--quantile p99]
//                [--path counters.cluster.served_queries]
//                [--watch [--iterations N] [--interval-ms 1000]]
//   ganns top    <series.jsonl|federation.jsonl> [--alerts alerts.jsonl]
//                [--rows 10] [--follow] [--iterations N] [--interval-ms 1000]
//
// `build` constructs a one-shard index (GGraphCon on the simulated GPU) and
// writes it to `<out>.shard0`, the shard container serve-bench --save
// writes; `search` loads it — graph kind and compression come from the
// file — and answers the queries at visited budget --budget.
//
// `update` builds a sharded NSW index, applies a deterministic mixed
// insert/remove workload through the online write paths, and reports the
// mutated graph's recall against a brute-force oracle over the surviving
// points plus update throughput (simulated and wall) and latency
// percentiles as JSON. --compact forces a synchronous final compaction of
// every shard; --save persists the mutated shards in the v3 container for
// `serve-bench --load`.
//
// `serve-bench` builds (or reloads via --load) a sharded index over a
// synthetic corpus, starts the online serving engine, submits every query
// closed-loop, and reports QPS + latency percentiles + recall as JSON.
// --save/--load persist the per-shard graphs (`<prefix>.shardN`); a
// truncated or version-mismatched file fails the load with a non-zero
// exit. --trace-out enables request tracing and writes the Perfetto trace
// (per-request span trees on the serving process, optionally sampled with
// --sample); --stats-out writes the metrics registry JSON with HDR
// latency percentiles and exemplar links; --prom-out writes the same
// registry in Prometheus text exposition format.
//
// `serve-bench --fail-on-reject` propagates overload into the exit code:
// when admission control rejected any request the run exits 1 (after
// writing every requested artifact), instead of silently passing with a
// degraded served count — the mode CI load gates should run in.
//
// `cluster-bench` builds a sharded index and serves it through the
// simulated multi-node cluster (src/cluster): N nodes hosting shard
// replicas, per-destination message aggregation, simulated network cost,
// and deterministic fault injection (node crash/rejoin, dropped/delayed
// transfers). Reports recall, simulated QPS, failover/timeout counters,
// per-node stats, and aggregator flush accounting as JSON. With
// --verify-single-node the run exits non-zero unless the cluster's
// k-results are bit-identical to single-node ShardedIndex serving (the
// expected state whenever no candidates were lost).
//
// Any of --federation-out / --fed-prom-out / --alerts-out (or the bare
// --federation switch) turns on the cluster observability plane: every node
// gets a private metrics registry scraped over its simulated NIC on a fixed
// interval (--scrape-interval-us), the merged windows feed the deterministic
// alert engine (default rules, or --alert-rules specs), and the artifacts
// are the federated window JSONL (`ganns top` input), Prometheus
// text with per-node labels, and the alert transition log. The plane is
// charged off the serving clock and draws no randomness, so results and
// simulated seconds are bit-identical with it on or off. --sample N stamps
// every Nth query as a sampled request whose sub-queries join a Perfetto
// flow across node tracks (requires --trace-out); --slo-deadline-us sets
// the latency SLO the burn-rate alert and slo_headroom derive from.
//
// `stat` reads a --stats-out file back and prints SLO summaries; with
// --metric and --quantile it prints a single number (scriptable, used by
// the ctest gate to cross-check p99 against offline percentiles); with
// --watch it re-reads the file on an interval (a poor man's dashboard over
// an artifact a live serve-bench keeps rewriting).
//
// `serve-bench --series-out` writes the serving time-series: a one-node
// window engine (the one the cluster plane uses) over the process registry
// on the wall clock, one window per --series-interval-ms plus a final one
// at shutdown, in the same JSONL shape as --federation-out.
//
// `top` renders either window stream in the terminal: one row per window
// with the latency-SLI rate, SLO headroom, queue saturation and scrape
// bytes, then the latest window's nodes, histograms (count/p50/p99/max)
// and counter rates, and with --alerts the alerts firing as of that window.
// --follow re-reads and redraws on an interval; --iterations bounds the
// number of renders (tests use --iterations 1 for a single plain-text
// render).
//
// `profile` generates a synthetic corpus, builds an NSW graph with
// GGraphCon, runs the search with full tracing + per-query profiling, and
// prints a summary. --trace-out writes a Chrome/Perfetto trace_event JSON
// (load at ui.perfetto.dev); --metrics-out writes the metrics registry.
//
// All commands are deterministic for fixed inputs and seeds (trace and
// metrics files included: device events are timestamped in simulated
// cycles).

#include <algorithm>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/drills.h"
#include "cluster/cluster_router.h"
#include "common/file.h"
#include "core/ganns_search.h"
#include "core/ggraphcon.h"
#include "data/ground_truth.h"
#include "data/io.h"
#include "data/quantize.h"
#include "data/synthetic.h"
#include "graph/diagnostics.h"
#include "obs/alerts.h"
#include "obs/federation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/flight_recorder.h"
#include "serve/serve_engine.h"
#include "song/song_search.h"
#include "tools/json_reader.h"

namespace {

using namespace ganns;

/// --key value argument map with typed accessors.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag, got '%s'\n", argv[i]);
        std::exit(2);
      }
      // A flag followed by another --flag (or nothing) is boolean, so
      // switches like --watch or --hnsw compose anywhere in the line.
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        values_[argv[i] + 2] = "true";
        i += 1;
      } else {
        values_[argv[i] + 2] = argv[i + 1];
        i += 2;
      }
    }
  }

  std::optional<std::string> Get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string Require(const std::string& key) const {
    const auto value = Get(key);
    if (!value.has_value()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return *value;
  }

  /// Whole-number flag; exits 2 naming the flag when the value is not one.
  long Int(const std::string& key, long fallback) const {
    const auto value = Get(key);
    if (!value.has_value()) return fallback;
    char* end = nullptr;
    const long parsed = std::strtol(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0') {
      Fail(key, "expects an integer", *value);
    }
    return parsed;
  }

  /// Count flag in [min, max]; exits 2 naming the flag when the value is
  /// not a whole number or falls outside the range (negatives included, so
  /// nothing wraps to a huge count).
  std::size_t Size(const std::string& key, std::size_t fallback,
                   std::size_t min = 0,
                   std::size_t max = static_cast<std::size_t>(LONG_MAX)) const {
    const long value = Int(key, static_cast<long>(fallback));
    if (value < 0 || static_cast<std::size_t>(value) < min ||
        static_cast<std::size_t>(value) > max) {
      const std::string rule =
          max == static_cast<std::size_t>(LONG_MAX)
              ? "must be at least " + std::to_string(min)
              : "must be between " + std::to_string(min) + " and " +
                    std::to_string(max);
      Fail(key, rule, std::to_string(value));
    }
    return static_cast<std::size_t>(value);
  }

  double Double(const std::string& key, double fallback) const {
    const auto value = Get(key);
    if (!value.has_value()) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') {
      Fail(key, "expects a number", *value);
    }
    return parsed;
  }

  bool Flag(const std::string& key) const { return Get(key).has_value(); }

 private:
  [[noreturn]] static void Fail(const std::string& key,
                                const std::string& rule,
                                const std::string& value) {
    std::fprintf(stderr, "--%s %s, got '%s'\n", key.c_str(), rule.c_str(),
                 value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

/// Shared --precision/--pq-m/--pq-k/--rerank handling for build and
/// serve-bench (exits with usage error on an unknown precision name).
data::QuantizerOptions ParseQuantizeFlags(const Args& args) {
  data::QuantizerOptions quantize;
  if (const auto name = args.Get("precision"); name.has_value()) {
    const auto precision = data::ParsePrecision(*name);
    if (!precision.has_value()) {
      std::fprintf(stderr, "unknown precision '%s' (use float|sq8|pq)\n",
                   name->c_str());
      std::exit(2);
    }
    quantize.precision = *precision;
  }
  quantize.pq_subspaces = args.Size("pq-m", 16);
  quantize.pq_centroids = args.Size("pq-k", 256);
  quantize.rerank_factor = args.Size("rerank", 4);
  if (quantize.rerank_factor == 0) quantize.rerank_factor = 1;
  return quantize;
}

data::Metric ParseMetric(const Args& args) {
  const std::string name = args.Get("metric").value_or("l2");
  if (name == "l2") return data::Metric::kL2;
  if (name == "cosine") return data::Metric::kCosine;
  std::fprintf(stderr, "unknown metric '%s' (use l2|cosine)\n", name.c_str());
  std::exit(2);
}

data::Dataset LoadFvecsOrDie(const std::string& path, const char* what,
                             data::Metric metric) {
  auto dataset = data::ReadFvecs(path, what, metric);
  if (!dataset.has_value()) {
    std::fprintf(stderr, "failed to read %s from %s\n", what, path.c_str());
    std::exit(1);
  }
  return *std::move(dataset);
}

/// Names `path` on stderr when its write failed; returns `written`.
bool Written(bool written, const std::string& path) {
  if (!written) std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return written;
}

/// Paths of the trace / metrics-registry / Prometheus artifacts a command
/// writes after its run (each absent unless its flag was given).
struct TelemetryOut {
  std::optional<std::string> trace = std::nullopt;
  std::optional<std::string> stats = std::nullopt;
  std::optional<std::string> prom = std::nullopt;
};

/// Reads --trace-out / --stats-out / --prom-out and switches on the
/// subsystem each requested artifact needs (results are identical either
/// way — instrumentation never charges simulated cycles).
TelemetryOut EnableTelemetry(const Args& args) {
  TelemetryOut out{args.Get("trace-out"), args.Get("stats-out"),
                   args.Get("prom-out")};
  if (out.trace.has_value()) obs::SetTracingEnabled(true);
  if (out.stats.has_value() || out.prom.has_value()) {
    obs::SetMetricsEnabled(true);
  }
  return out;
}

/// Writes every requested artifact; `stats_noun` names the registry JSON in
/// the progress line. Returns false at the first failed write.
bool WriteTelemetry(const TelemetryOut& out, const char* stats_noun) {
  const obs::TraceRecorder& trace = obs::TraceRecorder::Global();
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (out.trace.has_value()) {
    if (!Written(trace.WriteJson(*out.trace), *out.trace)) return false;
    std::printf("wrote %zu trace events to %s\n", trace.size(),
                out.trace->c_str());
  }
  if (out.stats.has_value()) {
    if (!Written(registry.WriteJson(*out.stats), *out.stats)) return false;
    std::printf("wrote %s to %s\n", stats_noun, out.stats->c_str());
  }
  if (out.prom.has_value()) {
    if (!Written(registry.WritePrometheus(*out.prom), *out.prom)) return false;
    std::printf("wrote Prometheus metrics to %s\n", out.prom->c_str());
  }
  return true;
}

core::SearchKernel ParseServeKernel(const Args& args) {
  const std::string name = args.Get("kernel").value_or("ganns");
  if (name == "ganns") return core::SearchKernel::kGanns;
  if (name == "song") return core::SearchKernel::kSong;
  if (name == "beam") return core::SearchKernel::kBeam;
  std::fprintf(stderr, "unknown kernel '%s' (use ganns|song|beam)\n",
               name.c_str());
  std::exit(2);
}

/// --groups / --kernel as shard build options. Beam is a search-only
/// kernel, so a beam run builds with GANNS.
serve::ShardBuildOptions ParseShardBuildFlags(const Args& args) {
  serve::ShardBuildOptions options;
  options.num_groups = static_cast<int>(args.Size("groups", 64, 1));
  options.construction_kernel = ParseServeKernel(args);
  if (options.construction_kernel == core::SearchKernel::kBeam) {
    options.construction_kernel = core::SearchKernel::kGanns;
  }
  return options;
}

int CmdGen(const Args& args) {
  const data::DatasetSpec& spec = data::PaperDataset(args.Require("dataset"));
  const std::size_t n = args.Size("n", 20000, 1);
  const std::uint64_t seed = args.Size("seed", 1);

  const std::string out = args.Require("out");
  const data::Dataset base = data::GenerateBase(spec, n, seed);
  if (!Written(data::WriteFvecs(out, base), out)) return 1;
  std::printf("wrote %zu x %zud base vectors (%s, %s)\n", base.size(),
              base.dim(), spec.name.c_str(),
              spec.metric == data::Metric::kL2 ? "l2" : "cosine");

  if (const auto queries_out = args.Get("queries-out");
      queries_out.has_value()) {
    const std::size_t q = args.Size("queries", 200);
    const data::Dataset queries = data::GenerateQueries(spec, q, n, seed);
    if (!Written(data::WriteFvecs(*queries_out, queries), *queries_out)) {
      return 1;
    }
    std::printf("wrote %zu query vectors\n", queries.size());
  }
  return 0;
}

/// Prints the compressed-serving line when `index` traverses codes.
void PrintCompression(const serve::ShardedIndex& index) {
  const std::size_t float_bytes = index.dim() * sizeof(float);
  if (index.resident_bytes_per_vector() < float_bytes) {
    std::printf("compressed serving: resident code bytes/vector=%zu "
                "(float rows are %zu bytes)\n",
                index.resident_bytes_per_vector(), float_bytes);
  }
}

int CmdBuild(const Args& args) {
  const data::Metric metric = ParseMetric(args);
  const data::Dataset base =
      LoadFvecsOrDie(args.Require("base"), "base", metric);

  serve::ShardBuildOptions options = ParseShardBuildFlags(args);
  options.nsw.d_max = args.Size("d-max", 32);
  options.nsw.d_min = args.Size("d-min", 16);
  options.nsw.ef_construction = args.Size("ef", 2 * options.nsw.d_min);
  if (args.Flag("hnsw")) options.kind = core::GraphKind::kHnsw;
  options.quantize = ParseQuantizeFlags(args);

  const serve::ShardedIndex index =
      serve::ShardedIndex::Build(base, 1, options);
  const std::string out = args.Require("out");
  if (!index.SaveShards(out)) {
    std::fprintf(stderr, "failed to save index to %s.shard0\n", out.c_str());
    return 1;
  }
  std::printf("built %s index over %zu points in %.3f simulated GPU s; "
              "saved to %s.shard0\n",
              options.kind == core::GraphKind::kHnsw ? "HNSW" : "NSW",
              index.size(), index.build_sim_seconds(), out.c_str());
  PrintCompression(index);
  return 0;
}

int CmdSearch(const Args& args) {
  const data::Metric metric = ParseMetric(args);
  const data::Dataset base =
      LoadFvecsOrDie(args.Require("base"), "base", metric);
  const data::Dataset queries =
      LoadFvecsOrDie(args.Require("queries"), "queries", metric);

  const std::string prefix = args.Require("index");
  std::string load_error;
  auto index = serve::ShardedIndex::LoadShards(
      prefix, base, 1, serve::ShardBuildOptions(), &load_error);
  if (!index.has_value()) {
    std::fprintf(stderr, "failed to load index %s: %s\n", prefix.c_str(),
                 load_error.c_str());
    return 1;
  }
  PrintCompression(*index);

  const std::size_t k = args.Size("k", 10);
  const std::size_t budget = args.Size("budget", 64);

  const TelemetryOut telemetry{.trace = args.Get("trace-out")};
  if (telemetry.trace.has_value()) {
    obs::SetTracingEnabled(true);
    obs::SetMetricsEnabled(true);
  }

  serve::RouteStats stats;
  const auto rows = index->SearchBatch(bench::RouteQueries(queries, k, budget),
                                       core::SearchKernel::kGanns, &stats);
  std::printf("searched %zu queries (k=%zu, budget=%zu) at %.0f simulated "
              "QPS\n",
              queries.size(), k, budget,
              stats.sim_seconds > 0
                  ? static_cast<double>(queries.size()) / stats.sim_seconds
                  : 0.0);
  if (!WriteTelemetry(telemetry, "metrics")) return 1;

  if (const auto out = args.Get("out"); out.has_value()) {
    std::vector<std::vector<std::int32_t>> ids(rows.size());
    for (std::size_t q = 0; q < rows.size(); ++q) {
      for (const auto& neighbor : rows[q]) {
        ids[q].push_back(static_cast<std::int32_t>(neighbor.id));
      }
    }
    if (!Written(data::WriteIvecs(*out, ids), *out)) return 1;
    std::printf("wrote results to %s\n", out->c_str());
  } else {
    for (std::size_t q = 0; q < std::min<std::size_t>(rows.size(), 5); ++q) {
      std::printf("query %zu:", q);
      for (const auto& neighbor : rows[q]) {
        std::printf(" %u(%.3f)", neighbor.id, neighbor.dist);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int CmdEval(const Args& args) {
  const data::Metric metric = ParseMetric(args);
  const data::Dataset base =
      LoadFvecsOrDie(args.Require("base"), "base", metric);
  const data::Dataset queries =
      LoadFvecsOrDie(args.Require("queries"), "queries", metric);
  const auto results = data::ReadIvecs(args.Require("results"));
  if (!results.has_value() || results->size() != queries.size()) {
    std::fprintf(stderr, "results file missing or row count mismatch\n");
    return 1;
  }

  const std::size_t k = args.Size("k", 10);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  std::vector<std::vector<VertexId>> ids(results->size());
  for (std::size_t q = 0; q < results->size(); ++q) {
    for (std::int32_t id : (*results)[q]) {
      ids[q].push_back(static_cast<VertexId>(id));
    }
  }
  std::printf("recall@%zu = %.4f over %zu queries\n", k,
              data::MeanRecall(ids, truth, k), queries.size());
  return 0;
}

int CmdProfile(const Args& args) {
  const data::DatasetSpec& spec =
      data::PaperDataset(args.Get("dataset").value_or("SIFT1M"));
  const std::size_t n = args.Size("n", 10000, 1);
  const std::size_t num_queries = args.Size("queries", 100, 1);
  const std::uint64_t seed = args.Size("seed", 1);
  const std::size_t k = args.Size("k", 10);
  const std::string algo = args.Get("algo").value_or("ganns");
  if (algo != "ganns" && algo != "song") {
    std::fprintf(stderr, "unknown --algo '%s' (use ganns|song)\n",
                 algo.c_str());
    return 2;
  }
  core::GpuBuildParams build;
  build.num_groups = static_cast<int>(args.Size("groups", 64, 1));
  song::SongParams song_params;
  song_params.k = k;
  song_params.queue_size = args.Size("queue", 64);
  core::GannsParams ganns_params;
  ganns_params.k = k;
  ganns_params.l_n = args.Size("ln", 64);
  ganns_params.e = args.Size("e", 0);

  if (!obs::TracingCompiledIn()) {
    std::fprintf(stderr,
                 "note: built with GANNS_TRACING=OFF; trace and metrics "
                 "output will be empty\n");
  }
  obs::SetTracingEnabled(true);
  obs::SetMetricsEnabled(true);

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);

  gpusim::Device device;
  const core::GpuBuildResult built =
      core::BuildNswGGraphCon(device, base, build);
  std::printf("built NSW graph over %zu points (%s, dim=%zu) in %.4f "
              "simulated s\n",
              n, spec.name.c_str(), base.dim(), built.sim_seconds);

  const graph::GraphDiagnostics diag = graph::Diagnose(built.graph, 0);
  graph::PublishDiagnostics(diag, "graph.nsw");
  std::printf("graph: mean_deg=%.2f sinks=%zu reachable=%.4f\n",
              diag.mean_out_degree, diag.sinks, diag.reachable_fraction);

  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);

  // The kernels' batch entry points are the ones that return per-query
  // profiles; the summary is the Fig. 7 breakdown bench/ prints too.
  const auto mean = [&](std::uint64_t total) {
    return static_cast<double>(total) / static_cast<double>(queries.size());
  };
  graph::BatchSearchResult batch;
  bench::ProfileSummary summary;
  if (algo == "song") {
    std::vector<song::SongQueryProfile> profiles;
    batch = song::SongSearchBatch(device, built.graph, base, queries,
                                  song_params, 32, 0, &profiles);
    summary = bench::Summarize(profiles);
    std::printf("SONG: %zu queries, mean hops=%.1f, mean dist evals=%.1f\n",
                queries.size(), mean(summary.hops), mean(summary.distances));
  } else {
    std::vector<core::GannsQueryProfile> profiles;
    batch = core::GannsSearchBatch(device, built.graph, base, queries,
                                   ganns_params, 32, 0, &profiles);
    summary = bench::Summarize(profiles);
    std::printf("GANNS: %zu queries, mean hops=%.1f, mean dist evals=%.1f "
                "(%.1f redundant)\n",
                queries.size(), mean(summary.hops), mean(summary.distances),
                mean(summary.redundant));
  }
  std::printf("%s\n", summary.split.c_str());
  std::printf("recall@%zu = %.4f, %.0f simulated QPS, SM load imbalance "
              "%.3f\n",
              k, data::MeanRecall(batch.results, truth, k), batch.qps,
              device.SmLoadImbalance());

  // profile names its registry export --metrics-out and records the thread
  // pool's counters into it first.
  obs::SnapshotRuntimeMetrics();
  const TelemetryOut telemetry{.trace = args.Get("trace-out"),
                               .stats = args.Get("metrics-out")};
  return WriteTelemetry(telemetry, "metrics") ? 0 : 1;
}

/// Writes a command's JSON report to --json (when given), then prints it.
/// Returns false when the write fails.
bool EmitReport(const Args& args, const std::string& json) {
  if (const auto out = args.Get("json"); out.has_value()) {
    if (!Written(WriteTextFile(*out, json), *out)) return false;
    std::printf("wrote %s\n", out->c_str());
  }
  std::fputs(json.c_str(), stdout);
  return true;
}

/// Latency percentile over a sorted sample (nearest-rank).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// The serve time-series: a one-node window engine over the global registry
/// on the wall clock (microseconds since the series started, so window 0
/// spans the whole run up to its cut). A sampler thread advances it on the
/// scrape schedule; Stop joins the sampler and cuts one final window, so
/// runs shorter than an interval still export their data.
class WallSeries {
 public:
  using Clock = std::chrono::steady_clock;

  explicit WallSeries(const obs::FederationOptions& options)
      : engine_(options) {
    obs::NodeHooks hooks;
    hooks.snapshot = [] { return obs::MetricsRegistry::Global().Snapshot(); };
    engine_.AddNode(std::move(hooks));
    sampler_ = std::thread([this, interval_us = options.scrape_interval_us] {
      std::unique_lock<std::mutex> lock(mutex_);
      for (std::uint64_t due_us = interval_us;; due_us += interval_us) {
        if (stop_cv_.wait_until(lock,
                                origin_ + std::chrono::microseconds(due_us),
                                [this] { return stop_; })) {
          return;
        }
        engine_.AdvanceTo(NowUs());
      }
    });
  }
  ~WallSeries() { Stop(); }

  WallSeries(const WallSeries&) = delete;
  WallSeries& operator=(const WallSeries&) = delete;

  void Stop() {
    if (!sampler_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    sampler_.join();
    engine_.Scrape(NowUs());
  }

  /// Read after Stop(); the sampler thread owns the engine until then.
  const obs::MetricsFederation& engine() const { return engine_; }

 private:
  std::uint64_t NowUs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              origin_)
            .count());
  }

  obs::MetricsFederation engine_;
  const Clock::time_point origin_ = Clock::now();
  std::mutex mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread sampler_;
};

int CmdServeBench(const Args& args) {
  const data::DatasetSpec& spec =
      data::PaperDataset(args.Get("dataset").value_or("SIFT1M"));
  const std::size_t n = args.Size("n", 20000, 1);
  const std::size_t num_queries = args.Size("queries", 500);
  const std::uint64_t seed = args.Size("seed", 1);
  const std::size_t k = args.Size("k", 10);
  const std::size_t budget = args.Size("budget", 64);
  const std::size_t num_shards = args.Size("shards", 2, 1, n);
  const long deadline_us = args.Int("deadline-us", 0);

  serve::ServeOptions serve_options;
  serve_options.max_batch = args.Size("max-batch", 32, 1);
  serve_options.batch_window_us = args.Int("window-us", 200);
  serve_options.queue_capacity = args.Size("queue-cap", 1024);
  serve_options.kernel = ParseServeKernel(args);
  if (const auto sample = args.Get("sample"); sample.has_value()) {
    serve_options.trace_sample = serve::ParseTraceSample(sample->c_str());
  }

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);

  serve::ShardBuildOptions build_options = ParseShardBuildFlags(args);
  if (args.Flag("hnsw")) build_options.kind = core::GraphKind::kHnsw;
  build_options.quantize = ParseQuantizeFlags(args);

  std::optional<serve::ShardedIndex> index;
  if (const auto load = args.Get("load"); load.has_value()) {
    std::string load_error;
    index = serve::ShardedIndex::LoadShards(*load, base, num_shards,
                                            build_options, &load_error);
    if (!index.has_value()) {
      std::fprintf(stderr, "failed to load shard files %s.shard0..%zu: %s\n",
                   load->c_str(), num_shards - 1, load_error.c_str());
      return 1;
    }
    std::printf("loaded %zu shard graphs from %s.shard*\n", num_shards,
                load->c_str());
  } else {
    index = serve::ShardedIndex::Build(base, num_shards, build_options);
    if (const auto save = args.Get("save"); save.has_value()) {
      if (!index->SaveShards(*save)) {
        std::fprintf(stderr, "failed to save shard files to %s.shard*\n",
                     save->c_str());
        return 1;
      }
      std::printf("saved %zu shard graphs to %s.shard*\n", num_shards,
                  save->c_str());
    }
  }
  PrintCompression(*index);

  // Observability artifacts are opt-in per flag; requesting one turns the
  // matching subsystem on for this run.
  const TelemetryOut telemetry = EnableTelemetry(args);
  const auto series_out = args.Get("series-out");
  const auto flight_out = args.Get("flight-out");
  const auto hardness_out = args.Get("hardness-out");
  if (series_out.has_value()) obs::SetMetricsEnabled(true);
  if (flight_out.has_value() || hardness_out.has_value()) {
    serve::FlightRecorderOptions flight_options;
    flight_options.deadline_fraction = args.Double("slo-fraction", 0.8);
    flight_options.request_capacity = args.Size("flight-ring", 4096);
    if (deadline_us > 0) {
      flight_options.default_deadline_us =
          static_cast<std::uint64_t>(deadline_us);
    }
    serve::FlightRecorder::Global().Configure(flight_options);
    serve::FlightRecorder::Global().SetEnabled(true);
  }
  std::optional<WallSeries> series;
  if (series_out.has_value()) {
    obs::FederationOptions series_options;
    series_options.scrape_interval_us = static_cast<std::uint64_t>(
        1000 * std::max(1L, args.Int("series-interval-ms", 100)));
    if (deadline_us > 0) {
      series_options.slo_deadline_us =
          static_cast<std::uint64_t>(deadline_us);
    }
    series_options.latency_hdr = "serve.latency_us";
    series_options.queue_gauge = "serve.queue_saturation";
    series.emplace(series_options);
  }

  serve::ServeEngine engine(*index, serve_options);
  const bench::ClosedLoopRun run =
      bench::RunClosedLoop(engine, queries, k, budget, deadline_us);
  if (series.has_value()) series->Stop();

  const serve::ServeCounters& counters = run.counters;
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  const double recall = data::MeanRecall(run.ids, truth, k);

  std::string json = "{\n";
  bench::Appendf(json, "  \"shards\": %zu,\n", num_shards);
  bench::Appendf(json, "  \"queries\": %zu,\n", num_queries);
  bench::Appendf(
      json, "  \"served\": %llu, \"rejected\": %llu, \"expired\": %llu,\n",
      static_cast<unsigned long long>(counters.served),
      static_cast<unsigned long long>(counters.rejected),
      static_cast<unsigned long long>(counters.expired));
  bench::Appendf(json, "  \"recall\": %.4f,\n", recall);
  bench::Appendf(json, "  \"sim_qps\": %.0f, \"wall_qps\": %.0f,\n",
                 run.SimQps(),
                 bench::Rate(static_cast<double>(counters.served),
                             run.wall_seconds));
  bench::Appendf(json,
                 "  \"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                 "\"p99\": %.1f}\n}\n",
                 Percentile(run.latencies_us, 0.50),
                 Percentile(run.latencies_us, 0.95),
                 Percentile(run.latencies_us, 0.99));

  if (!EmitReport(args, json)) return 1;

  if (!WriteTelemetry(telemetry, "serving stats")) return 1;
  if (series.has_value()) {
    const obs::MetricsFederation& stream = series->engine();
    if (!Written(stream.WriteJsonl(*series_out), *series_out)) return 1;
    std::printf("wrote %zu time-series windows to %s (%llu overwritten)\n",
                stream.windows().size(), series_out->c_str(),
                static_cast<unsigned long long>(stream.overwritten()));
  }
  if (flight_out.has_value()) {
    serve::FlightRecorder& recorder = serve::FlightRecorder::Global();
    if (!Written(recorder.WriteJson(*flight_out), *flight_out)) return 1;
    const serve::FlightCounters flight_counters = recorder.counters();
    std::printf("wrote flight dump to %s (%llu recorded, %llu violators "
                "persisted)\n",
                flight_out->c_str(),
                static_cast<unsigned long long>(flight_counters.recorded),
                static_cast<unsigned long long>(flight_counters.persisted));
  }
  if (hardness_out.has_value()) {
    const serve::FlightRecorder& recorder = serve::FlightRecorder::Global();
    if (!Written(recorder.WriteHardnessJsonl(*hardness_out), *hardness_out)) {
      return 1;
    }
    std::printf("wrote hardness exemplars to %s\n", hardness_out->c_str());
  }
  serve::FlightRecorder::Global().SetEnabled(false);
  // Overload must be able to fail the run: every artifact above is already
  // written, so CI gets the evidence *and* the non-zero exit.
  if (args.Flag("fail-on-reject") && counters.rejected > 0) {
    std::fprintf(stderr,
                 "serve-bench: %llu request(s) rejected by admission control "
                 "(--fail-on-reject)\n",
                 static_cast<unsigned long long>(counters.rejected));
    return 1;
  }
  return 0;
}

/// `ganns cluster-bench`: drives the simulated multi-node cluster. Builds a
/// sharded index, wraps it in a ClusterIndex (replica placement, message
/// aggregation, fault injection per flags), pushes the query stream through
/// in fixed-size batches, and reports recall + simulated QPS + failure
/// counters + per-node stats as deterministic JSON. The same batches are
/// replayed through single-node ShardedIndex::SearchBatch to report (and
/// with --verify-single-node, enforce) the bit-identity contract.
int CmdClusterBench(const Args& args) {
  const data::DatasetSpec& spec =
      data::PaperDataset(args.Get("dataset").value_or("SIFT1M"));
  const std::size_t n = args.Size("n", 20000, 1);
  const std::size_t num_queries = args.Size("queries", 400);
  const std::uint64_t seed = args.Size("seed", 1);
  const std::size_t k = args.Size("k", 10);
  const std::size_t budget = args.Size("budget", 256);
  const std::size_t num_shards = args.Size("shards", 4, 1, n);
  const std::size_t batch_size =
      std::max<std::size_t>(1, args.Size("batch", 16));
  const core::SearchKernel kernel = ParseServeKernel(args);

  const TelemetryOut telemetry = EnableTelemetry(args);
  // Federation artifacts switch the monitoring plane on, the way --trace-out
  // switches tracing on. --federation alone enables the plane without
  // writing anything (the report still shows scrape traffic).
  const auto federation_out = args.Get("federation-out");
  const auto fed_prom_out = args.Get("fed-prom-out");
  const auto alerts_out = args.Get("alerts-out");
  const bool plane_on = federation_out.has_value() ||
                        fed_prom_out.has_value() || alerts_out.has_value() ||
                        args.Flag("federation");

  cluster::ClusterOptions cluster_options;
  cluster_options.num_nodes = args.Size("nodes", 3, 1);
  cluster_options.replication =
      args.Size("replication", 2, 1, cluster_options.num_nodes);
  if (const auto name = args.Get("selection"); name.has_value()) {
    const auto selection = cluster::ParseSelection(*name);
    if (!selection.has_value()) {
      std::fprintf(stderr, "unknown selection '%s' (use rr|lo|p2c)\n",
                   name->c_str());
      return 2;
    }
    cluster_options.selection = *selection;
  }
  cluster_options.max_attempts = args.Size("max-attempts", 3);
  cluster_options.timeout_us = args.Double("timeout-us", 1000.0);
  cluster_options.aggregator.max_bytes = args.Size("agg-bytes", 8192);
  cluster_options.aggregator.deadline_us =
      args.Double("agg-deadline-us", 100.0);
  cluster_options.seed = seed;
  cluster_options.faults.crash_node =
      static_cast<int>(args.Int("crash-node", -1));
  cluster_options.faults.crash_at_batch = args.Size("crash-at-batch", 1);
  cluster_options.faults.rejoin_after_batches =
      static_cast<int>(args.Int("rejoin-after", -1));
  cluster_options.faults.drop_rate = args.Double("drop-pct", 0.0) / 100.0;
  cluster_options.faults.delay_rate = args.Double("delay-pct", 0.0) / 100.0;
  cluster_options.faults.delay_us = args.Double("delay-us", 200.0);
  cluster_options.faults.seed = args.Size("fault-seed", 1);
  if (plane_on) {
    cluster_options.federation.enabled = true;
    // Simulated batches are O(100us), so the CLI defaults to a tighter
    // scrape cadence than the library's 5ms.
    cluster_options.federation.scrape_interval_us =
        args.Size("scrape-interval-us", 500);
    cluster_options.federation.slo_deadline_us =
        args.Size("slo-deadline-us", 0);
    if (const auto specs = args.Get("alert-rules"); specs.has_value()) {
      // Comma-separated "name:kind:..." specs replacing the default rule
      // set (see obs::ParseAlertRule for per-kind formats).
      std::string rest = *specs;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string spec = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string()
                                          : rest.substr(comma + 1);
        if (spec.empty()) continue;
        const auto rule = obs::ParseAlertRule(spec);
        if (!rule.has_value()) {
          std::fprintf(stderr, "malformed alert rule '%s'\n", spec.c_str());
          return 2;
        }
        cluster_options.alert_rules.push_back(*rule);
      }
    }
  }

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);
  serve::ShardedIndex index =
      serve::ShardedIndex::Build(base, num_shards, ParseShardBuildFlags(args));
  cluster::ClusterIndex cluster_index(index, cluster_options);

  auto routed = bench::RouteQueries(queries, k, budget);
  // --sample N: every Nth query becomes a sampled request — its sub-queries
  // emit child spans on the owning nodes' tracks, stitched to a
  // serve.request root by Perfetto flow events. Requires --trace-out.
  if (const std::size_t sample = args.Size("sample", 0);
      sample > 0 && telemetry.trace.has_value()) {
    for (std::size_t q = 0; q < num_queries; q += sample) {
      routed[q].trace.sampled = true;
      routed[q].trace.trace_id = static_cast<std::uint64_t>(q) + 1;
    }
  }

  const bench::NeighborRows rows =
      bench::SearchInBatches(cluster_index, routed, batch_size, kernel);
  cluster_index.Shutdown();
  // Replay through single-node serving: the determinism contract says this
  // matches bit-for-bit whenever the cluster lost no candidates.
  const bool identical =
      rows == bench::SearchInBatches(index, routed, batch_size, kernel);

  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  const double recall = data::MeanRecall(bench::NeighborIds(rows), truth, k);
  const cluster::ClusterCounters& counters = cluster_index.counters();

  std::string json = "{\n";
  bench::Appendf(
      json,
      "  \"shards\": %zu, \"nodes\": %zu, \"replication\": %zu, "
      "\"selection\": \"%s\",\n",
      num_shards, cluster_options.num_nodes, cluster_options.replication,
      std::string(cluster::SelectionName(cluster_options.selection)).c_str());
  bench::Appendf(json, "  \"queries\": %zu, \"batch\": %zu,\n", num_queries,
                 batch_size);
  bench::Appendf(json, "  \"served\": %llu, \"lost\": %llu,\n",
                 static_cast<unsigned long long>(counters.served_queries),
                 static_cast<unsigned long long>(counters.lost_sub_queries));
  bench::Appendf(json, "  \"failovers\": %llu, \"timeouts\": %llu,\n",
                 static_cast<unsigned long long>(counters.failovers),
                 static_cast<unsigned long long>(counters.timeouts));
  bench::Appendf(json, "  \"recall\": %.4f,\n", recall);
  bench::Appendf(json, "  \"sim_qps\": %.0f, \"recovery_sim_seconds\": %.6f,\n",
                 bench::Rate(static_cast<double>(counters.served_queries),
                             cluster_index.total_sim_seconds()),
                 cluster_index.recovery_sim_seconds());
  bench::Appendf(json, "  \"identical_to_single_node\": %d,\n",
                 identical ? 1 : 0);
  if (plane_on && cluster_index.federation() != nullptr) {
    const obs::MetricsFederation& federation = *cluster_index.federation();
    bench::Appendf(
        json,
        "  \"federation\": {\"scrapes\": %llu, \"windows\": %zu, "
        "\"scrape_bytes\": %llu, \"monitoring_sim_seconds\": %.6f, "
        "\"alert_events\": %zu},\n",
        static_cast<unsigned long long>(federation.scrapes()),
        federation.windows().size(),
        static_cast<unsigned long long>(federation.scrape_bytes()),
        cluster_index.monitoring_sim_seconds(),
        cluster_index.alerts() != nullptr
            ? cluster_index.alerts()->events().size()
            : 0);
  }
  json += "  \"counters\": " + cluster_index.CountersJson() + ",\n";
  json += "  \"aggregator\": " + cluster_index.AggregatorJson() + ",\n";
  json += "  \"node_stats\": " + cluster_index.NodesJson() + "\n}\n";

  if (!EmitReport(args, json)) return 1;

  if (!WriteTelemetry(telemetry, "cluster stats")) return 1;
  if (federation_out.has_value()) {
    if (!Written(cluster_index.federation() != nullptr &&
                     cluster_index.federation()->WriteJsonl(*federation_out),
                 *federation_out)) {
      return 1;
    }
    std::printf("wrote %zu federated windows to %s\n",
                cluster_index.federation()->windows().size(),
                federation_out->c_str());
  }
  if (fed_prom_out.has_value()) {
    if (!Written(cluster_index.federation() != nullptr &&
                     cluster_index.federation()->WritePrometheus(*fed_prom_out),
                 *fed_prom_out)) {
      return 1;
    }
    std::printf("wrote federated Prometheus metrics to %s\n",
                fed_prom_out->c_str());
  }
  if (alerts_out.has_value()) {
    if (!Written(cluster_index.alerts() != nullptr &&
                     cluster_index.alerts()->WriteJsonl(*alerts_out),
                 *alerts_out)) {
      return 1;
    }
    std::printf("wrote %zu alert events to %s\n",
                cluster_index.alerts()->events().size(), alerts_out->c_str());
  }

  if (args.Flag("verify-single-node") && !identical) {
    std::fprintf(stderr,
                 "cluster-bench: cluster results diverged from single-node "
                 "serving (lost=%llu)\n",
                 static_cast<unsigned long long>(counters.lost_sub_queries));
    return 1;
  }
  return 0;
}

/// `ganns update`: online-update exerciser. Builds a sharded NSW index over
/// a synthetic corpus, applies a deterministic alternating insert/remove
/// workload (removes pick live victims by a fixed stride, inserts draw from
/// a second synthetic pool), then searches and scores recall against a
/// brute-force oracle over the surviving points — so the number reported is
/// the recall of the *mutated* graph, not the build-time one.
int CmdUpdate(const Args& args) {
  const data::DatasetSpec& spec =
      data::PaperDataset(args.Get("dataset").value_or("SIFT1M"));
  const std::size_t n = args.Size("n", 20000, 1);
  const std::size_t num_queries = args.Size("queries", 200);
  const std::uint64_t seed = args.Size("seed", 1);
  const std::size_t k = args.Size("k", 10);
  const std::size_t budget = args.Size("budget", 256);
  const std::size_t num_shards = args.Size("shards", 2, 1, n);
  const std::size_t num_inserts = args.Size("inserts", n / 10);
  // Every remove needs a live victim.
  const std::size_t num_removes = args.Size("removes", n / 10, 0, n);

  serve::ShardBuildOptions build_options = ParseShardBuildFlags(args);
  build_options.update.ef_insert = args.Size("ef-insert", 64);
  build_options.update.compact_threshold =
      static_cast<double>(args.Int("compact-threshold-pct", 25)) / 100.0;
  build_options.update.auto_compact = !args.Flag("no-auto-compact");

  const TelemetryOut telemetry = EnableTelemetry(args);

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);
  const data::Dataset pool = data::GenerateBase(spec, num_inserts, seed + 17);

  serve::ShardedIndex index =
      serve::ShardedIndex::Build(base, num_shards, build_options);
  std::printf("built %zu NSW shard(s) over %zu points (%s, dim=%zu)\n",
              num_shards, n, spec.name.c_str(), base.dim());

  bench::UpdateDrill drill(base);
  const auto tally = drill.Apply(index, pool, num_inserts, num_removes);
  if (!tally.has_value()) return 1;

  // --compact forces a final synchronous compaction of every shard, making
  // the compaction count (and the searched graph) independent of background
  // task timing.
  if (args.Flag("compact")) {
    for (std::size_t s = 0; s < index.num_shards(); ++s) index.Compact(s);
  }

  if (const auto save = args.Get("save"); save.has_value()) {
    if (!index.SaveShards(*save)) {
      std::fprintf(stderr, "failed to save shard files to %s.shard*\n",
                   save->c_str());
      return 1;
    }
    std::printf("saved %zu mutated shard(s) to %s.shard*\n", num_shards,
                save->c_str());
  }

  const auto rows = index.SearchBatch(bench::RouteQueries(queries, k, budget),
                                      ParseServeKernel(args));
  const double recall = drill.Oracle(queries, k).Recall(rows, k);

  const double sim_seconds = index.update_sim_seconds();
  const auto applied = static_cast<double>(tally->applied());
  const std::vector<double>& op_latencies = tally->op_latencies_us;

  std::string json = "{\n";
  bench::Appendf(json,
                 "  \"shards\": %zu, \"initial\": %zu, \"live\": %zu,\n",
                 num_shards, n, index.size());
  bench::Appendf(json,
                 "  \"inserts\": %llu, \"removes\": %llu, "
                 "\"failed_inserts\": %zu,\n",
                 static_cast<unsigned long long>(index.inserts()),
                 static_cast<unsigned long long>(index.removes()),
                 tally->failed_inserts);
  bench::Appendf(json,
                 "  \"compactions\": %llu, \"tombstone_fraction\": %.4f,\n",
                 static_cast<unsigned long long>(index.compactions()),
                 bench::MaxTombstoneFraction(index));
  bench::Appendf(json, "  \"update_recall\": %.4f,\n", recall);
  bench::Appendf(json,
                 "  \"update_sim_seconds\": %.6f, \"sim_ups\": %.0f, "
                 "\"wall_ups\": %.0f,\n",
                 sim_seconds, bench::Rate(applied, sim_seconds),
                 bench::Rate(applied, tally->wall_seconds));
  bench::Appendf(json,
                 "  \"update_latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                 "\"p99\": %.1f}\n}\n",
                 Percentile(op_latencies, 0.50),
                 Percentile(op_latencies, 0.95),
                 Percentile(op_latencies, 0.99));

  if (!EmitReport(args, json)) return 1;
  return WriteTelemetry(telemetry, "update stats") ? 0 : 1;
}

/// Walks a dotted path ("counters.cluster.served_queries" or
/// "results.0.sim_qps") through a JSON document. Object keys may themselves
/// contain dots (metric names do), so at each step the longest key prefix of
/// the remaining path that exists in the current object wins. Array segments
/// must be numeric indices.
const tools::Json* ResolveDottedPath(const tools::Json& root,
                                     const std::string& dotted) {
  const tools::Json* node = &root;
  std::size_t pos = 0;
  while (pos < dotted.size()) {
    if (node->Is(tools::Json::Kind::kObject)) {
      // Longest-prefix match so "hdr.cluster.batch_us.p99" finds the
      // "cluster.batch_us" key in one hop.
      const tools::Json* next = nullptr;
      std::size_t next_pos = 0;
      for (std::size_t end = dotted.size();; ) {
        const std::string key = dotted.substr(pos, end - pos);
        if (const tools::Json* child = node->Get(key); child != nullptr) {
          next = child;
          next_pos = end < dotted.size() ? end + 1 : dotted.size();
          break;
        }
        const std::size_t dot = dotted.rfind('.', end - 1);
        if (dot == std::string::npos || dot <= pos) break;
        end = dot;
      }
      if (next == nullptr) return nullptr;
      node = next;
      pos = next_pos;
    } else if (node->Is(tools::Json::Kind::kArray)) {
      std::size_t end = dotted.find('.', pos);
      if (end == std::string::npos) end = dotted.size();
      const std::string segment = dotted.substr(pos, end - pos);
      if (segment.empty() ||
          segment.find_first_not_of("0123456789") != std::string::npos) {
        return nullptr;
      }
      const std::size_t index = std::strtoull(segment.c_str(), nullptr, 10);
      if (index >= node->array.size()) return nullptr;
      node = node->array[index].get();
      pos = end < dotted.size() ? end + 1 : dotted.size();
    } else {
      return nullptr;
    }
  }
  return node;
}

/// Prints one resolved --path node: leaf values print scriptably (one value,
/// one line); containers list their children so the next path segment is
/// discoverable.
int PrintStatPath(const tools::Json& node, const std::string& dotted) {
  switch (node.kind) {
    case tools::Json::Kind::kNumber:
      if (node.number == static_cast<long long>(node.number)) {
        std::printf("%lld\n", static_cast<long long>(node.number));
      } else {
        std::printf("%.6f\n", node.number);
      }
      return 0;
    case tools::Json::Kind::kString:
      std::printf("%s\n", node.string.c_str());
      return 0;
    case tools::Json::Kind::kBool:
      std::printf("%s\n", node.boolean ? "true" : "false");
      return 0;
    case tools::Json::Kind::kNull:
      std::printf("null\n");
      return 0;
    case tools::Json::Kind::kArray:
      std::printf("%s: array of %zu (index with .N)\n", dotted.c_str(),
                  node.array.size());
      return 0;
    case tools::Json::Kind::kObject: {
      std::printf("%s: object with %zu keys:", dotted.c_str(),
                  node.object.size());
      for (const auto& [key, value] : node.object) {
        std::printf(" %s", key.c_str());
      }
      std::printf("\n");
      return 0;
    }
  }
  return 1;
}

/// Summarizes one cluster report row (the `ganns cluster-bench --json`
/// object or one BENCH_cluster.json results row) for `ganns stat`.
void PrintClusterRow(const tools::Json& row) {
  const auto num = [&](const char* key) {
    const tools::Json* value = row.Get(key);
    return value != nullptr && value->Is(tools::Json::Kind::kNumber)
               ? value->number
               : 0.0;
  };
  std::printf("cluster: nodes=%.0f replication=%.0f served=%.0f lost=%.0f "
              "failovers=%.0f timeouts=%.0f recall=%.4f sim_qps=%.0f\n",
              num("nodes"), num("replication"), num("served"), num("lost"),
              num("failovers"), num("timeouts"), num("recall"),
              num("sim_qps"));
  const tools::Json* node_stats = row.Get("node_stats");
  if (node_stats == nullptr || !node_stats->Is(tools::Json::Kind::kArray)) {
    return;
  }
  for (const tools::JsonPtr& node : node_stats->array) {
    if (!node->Is(tools::Json::Kind::kObject)) continue;
    const auto field = [&](const char* key) {
      const tools::Json* value = node->Get(key);
      return value != nullptr && value->Is(tools::Json::Kind::kNumber)
                 ? value->number
                 : 0.0;
    };
    const tools::Json* state = node->Get("state");
    std::printf("  node %.0f [%s]: served=%.0f sub_batches=%.0f "
                "timeouts=%.0f transfer_bytes=%.0f\n",
                field("id"),
                state != nullptr && state->Is(tools::Json::Kind::kString)
                    ? state->string.c_str()
                    : "?",
                field("served_queries"), field("served_sub_batches"),
                field("timeouts"), field("transfer_bytes"));
  }
}

/// One `ganns stat` pass over the stats file (the --watch loop re-runs it).
int StatOnce(const std::string& path, const Args& args) {
  std::string error;
  const tools::JsonPtr root = tools::ParseJsonFile(path, &error);
  if (root == nullptr) {
    std::fprintf(stderr, "JSON parse error: %s\n", error.c_str());
    return 1;
  }
  // --path works on any JSON artifact: registry exports, cluster-bench
  // reports, BENCH_cluster.json sweeps.
  if (const auto dotted = args.Get("path"); dotted.has_value()) {
    const tools::Json* node = ResolveDottedPath(*root, *dotted);
    if (node == nullptr) {
      std::fprintf(stderr, "path '%s' not found in %s\n", dotted->c_str(),
                   path.c_str());
      return 1;
    }
    return PrintStatPath(*node, *dotted);
  }
  const tools::Json* hdr = root->Get("hdr");
  if (hdr == nullptr || !hdr->Is(tools::Json::Kind::kObject)) {
    // Not a registry export — recognize the cluster report shapes before
    // giving up: a single report (top-level node_stats) or the bench sweep
    // (results rows each carrying node_stats).
    if (root->Get("node_stats") != nullptr) {
      PrintClusterRow(*root);
      return 0;
    }
    const tools::Json* results = root->Get("results");
    if (results != nullptr && results->Is(tools::Json::Kind::kArray) &&
        !results->array.empty() &&
        results->array.front()->Get("node_stats") != nullptr) {
      for (const tools::JsonPtr& row : results->array) {
        PrintClusterRow(*row);
      }
      return 0;
    }
    std::fprintf(stderr, "%s has no hdr section (write it with "
                 "`ganns serve-bench --stats-out`; for other JSON artifacts "
                 "use --path a.b.c)\n",
                 path.c_str());
    return 1;
  }

  const auto metric = args.Get("metric");
  const auto quantile = args.Get("quantile");
  if (quantile.has_value() && !metric.has_value()) {
    std::fprintf(stderr, "--quantile requires --metric\n");
    return 2;
  }

  for (const auto& [name, entry] : hdr->object) {
    if (metric.has_value() && name != *metric) continue;
    if (!entry->Is(tools::Json::Kind::kObject)) continue;
    if (quantile.has_value()) {
      const tools::Json* value = entry->Get(*quantile);
      if (value == nullptr || !value->Is(tools::Json::Kind::kNumber)) {
        std::fprintf(stderr, "metric %s has no field '%s'\n", name.c_str(),
                     quantile->c_str());
        return 1;
      }
      std::printf("%.0f\n", value->number);
      return 0;
    }
    const auto num = [&](const char* key) {
      const tools::Json* value = entry->Get(key);
      return value != nullptr && value->Is(tools::Json::Kind::kNumber)
                 ? value->number
                 : 0.0;
    };
    std::printf("%s: count=%.0f mean=%.1f min=%.0f p50=%.0f p90=%.0f "
                "p95=%.0f p99=%.0f p999=%.0f max=%.0f\n",
                name.c_str(), num("count"), num("mean"), num("min"),
                num("p50"), num("p90"), num("p95"), num("p99"), num("p999"),
                num("max"));
    const tools::Json* exemplars = entry->Get("exemplars");
    if (exemplars != nullptr && exemplars->Is(tools::Json::Kind::kArray) &&
        !exemplars->array.empty()) {
      std::printf("  slowest:");
      for (const tools::JsonPtr& exemplar : exemplars->array) {
        const tools::Json* id = exemplar->Get("id");
        const tools::Json* value = exemplar->Get("value");
        if (id == nullptr || value == nullptr) continue;
        std::printf(" id=%.0f(%.0fus)", id->number, value->number);
      }
      std::printf("  <- request ids resolve to span trees in the trace\n");
    }
  }
  if (metric.has_value() && hdr->Get(*metric) == nullptr) {
    std::fprintf(stderr, "metric %s not found in %s\n", metric->c_str(),
                 path.c_str());
    return 1;
  }
  return 0;
}

/// `ganns stat`: reads a --stats-out registry export and prints its SLO
/// summaries. With --metric and --quantile it prints exactly one number so
/// shell scripts (and the ctest percentile cross-check) can consume it.
/// With --watch it re-reads the file every --interval-ms (bounded by
/// --iterations; 0 = forever), tolerating transient parse failures while a
/// live run rewrites the artifact.
int CmdStat(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: ganns stat <stats.json|cluster report|BENCH_*.json> "
                 "[--metric NAME] [--quantile p50|p90|p95|p99|p999] "
                 "[--path a.b.c] "
                 "[--watch [--iterations N] [--interval-ms 1000]]\n");
    return 2;
  }
  const std::string path = argv[2];
  const Args args(argc, argv, 3);
  if (!args.Flag("watch")) return StatOnce(path, args);

  const long iterations = args.Int("iterations", 0);
  const long interval_ms = args.Int("interval-ms", 1000);
  for (long i = 0; iterations <= 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::printf("--- %s (refresh %ld) ---\n", path.c_str(), i + 1);
    StatOnce(path, args);
    std::fflush(stdout);
  }
  return 0;
}

double Number(const tools::Json* scope, const char* name) {
  const tools::Json* value = scope != nullptr ? scope->Get(name) : nullptr;
  return value != nullptr && value->Is(tools::Json::Kind::kNumber)
             ? value->number
             : 0;
}

/// Renders a window stream (`serve-bench --series-out` or `cluster-bench
/// --federation-out`; one engine writes both): a trend row per window, then
/// the latest window's nodes, roll-up histograms and counters, then any
/// alerts firing as of that window. Nothing here depends on metric names:
/// throughput is the window's latency-SLI sample rate (derived.slo_samples
/// per second) and latency comes from the roll-up histograms.
void RenderTop(const std::vector<tools::JsonPtr>& windows,
               const std::vector<tools::JsonPtr>& alert_events,
               std::size_t rows) {
  std::printf("%6s %10s %8s %9s %9s %6s %9s\n", "seq", "t_ms", "win_ms",
              "sli/s", "headroom", "qsat", "scrape_b");
  const std::size_t first = windows.size() > rows ? windows.size() - rows : 0;
  for (std::size_t i = first; i < windows.size(); ++i) {
    const tools::Json& window = *windows[i];
    const tools::Json* derived = window.Get("derived");
    const double interval_us = Number(&window, "interval_us");
    std::printf("%6.0f %10.2f %8.2f %9.0f %9.3f %6.3f %9.0f\n",
                Number(&window, "seq"), Number(&window, "t_us") / 1000.0,
                interval_us / 1000.0,
                interval_us > 0
                    ? Number(derived, "slo_samples") / (interval_us / 1e6)
                    : 0,
                Number(derived, "slo_headroom"),
                Number(derived, "queue_saturation"),
                Number(&window, "scrape_bytes"));
  }
  if (windows.empty()) {
    std::printf("no windows yet\n");
    return;
  }

  // Node health is the latest window's; the histogram and counter tables
  // show the latest window that carried SLI samples (a shutdown flush is
  // often empty), falling back to the latest.
  const tools::Json& last = *windows.back();
  const tools::Json* detail = &last;
  for (std::size_t i = windows.size(); i-- > 0;) {
    if (Number(windows[i]->Get("derived"), "slo_samples") > 0) {
      detail = windows[i].get();
      break;
    }
  }
  const double detail_interval_s = Number(detail, "interval_us") / 1e6;
  const tools::Json* nodes = last.Get("nodes");
  if (nodes != nullptr && nodes->Is(tools::Json::Kind::kArray)) {
    std::printf("%6s %8s %7s\n", "node", "state", "scrape");
    for (const tools::JsonPtr& node : nodes->array) {
      const tools::Json* state = node->Get("state");
      const tools::Json* scrape_ok = node->Get("scrape_ok");
      std::printf("%6.0f %8s %7s\n", Number(node.get(), "node"),
                  state != nullptr && state->Is(tools::Json::Kind::kString)
                      ? state->string.c_str()
                      : "?",
                  scrape_ok != nullptr &&
                          scrape_ok->Is(tools::Json::Kind::kBool) &&
                          scrape_ok->boolean
                      ? "ok"
                      : "FAIL");
    }
  }
  const tools::Json* rollup = detail->Get("cluster");
  const tools::Json* hdr = rollup != nullptr ? rollup->Get("hdr") : nullptr;
  if (hdr != nullptr && hdr->Is(tools::Json::Kind::kObject)) {
    std::printf("window %.0f:\n", Number(detail, "seq"));
    std::printf("%-34s %9s %9s %9s %9s\n", "histogram", "count", "p50", "p99",
                "max");
    for (const auto& [name, entry] : hdr->object) {
      if (Number(entry.get(), "count") == 0) continue;
      std::printf("%-34s %9.0f %9.0f %9.0f %9.0f\n", name.c_str(),
                  Number(entry.get(), "count"), Number(entry.get(), "p50"),
                  Number(entry.get(), "p99"), Number(entry.get(), "max"));
    }
  }
  const tools::Json* counters =
      rollup != nullptr ? rollup->Get("counters") : nullptr;
  if (counters != nullptr && counters->Is(tools::Json::Kind::kObject)) {
    std::printf("%-34s %9s %9s\n", "counter", "delta", "per_s");
    for (const auto& [name, delta] : counters->object) {
      if (!delta->Is(tools::Json::Kind::kNumber) || delta->number == 0) {
        continue;
      }
      std::printf("%-34s %9.0f %9.0f\n", name.c_str(), delta->number,
                  detail_interval_s > 0 ? delta->number / detail_interval_s
                                        : 0);
    }
  }

  // Replay the alert log up to the rendered window: a (rule, node) pair is
  // shown iff its latest transition at or before t_us is a firing.
  if (!alert_events.empty()) {
    const double now_us = Number(&last, "t_us");
    std::map<std::string, bool> firing;
    for (const tools::JsonPtr& event : alert_events) {
      const tools::Json* t = event->Get("t_us");
      const tools::Json* rule = event->Get("rule");
      const tools::Json* node = event->Get("node");
      const tools::Json* state = event->Get("state");
      if (t == nullptr || rule == nullptr || state == nullptr ||
          !state->Is(tools::Json::Kind::kString) || t->number > now_us) {
        continue;
      }
      std::string key = rule->string;
      if (node != nullptr && node->Is(tools::Json::Kind::kString) &&
          !node->string.empty()) {
        key += "(node=" + node->string + ")";
      }
      firing[key] = state->string == "firing";
    }
    std::string active;
    for (const auto& [key, is_firing] : firing) {
      if (!is_firing) continue;
      if (!active.empty()) active += ", ";
      active += key;
    }
    std::printf("alerts: %s\n", active.empty() ? "none" : active.c_str());
  }
  std::printf("%zu of %zu windows shown\n", windows.size() - first,
              windows.size());
}

/// `ganns top`: terminal dashboard over a window stream, optionally joined
/// with a `cluster-bench --alerts-out` log. One render by default; --follow
/// (or --iterations N) re-reads the files every --interval-ms and redraws.
int CmdTop(int argc, char** argv) {
  if (argc < 3 || std::strncmp(argv[2], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: ganns top <windows.jsonl> [--alerts alerts.jsonl] "
                 "[--rows 10] [--follow] [--iterations N] "
                 "[--interval-ms 1000]\n");
    return 2;
  }
  const std::string path = argv[2];
  const Args args(argc, argv, 3);
  const auto rows = args.Size("rows", 10);
  const bool follow = args.Flag("follow");
  const long iterations = args.Int("iterations", follow ? 0 : 1);
  const long interval_ms = args.Int("interval-ms", 1000);
  const auto alerts_path = args.Get("alerts");
  // A live view tolerates a truncated final line (a window mid-append): it
  // renders what parsed and retries the tail next poll.
  const bool live = iterations != 1;

  for (long i = 0; iterations <= 0 || i < iterations; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
    std::string error;
    const std::vector<tools::JsonPtr> windows =
        tools::ReadJsonlFile(path, &error, live);
    std::vector<tools::JsonPtr> alert_events;
    if (error.empty() && alerts_path.has_value()) {
      alert_events = tools::ReadJsonlFile(*alerts_path, &error, live);
    }
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      // A single-shot render fails loudly; a live view tolerates a file
      // mid-rewrite and tries again next interval.
      if (!live) return 1;
      continue;
    }
    if (follow) std::printf("\033[2J\033[H");  // clear + home before redraw
    RenderTop(windows, alert_events, rows);
    std::fflush(stdout);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ganns "
               "<gen|build|search|eval|profile|serve-bench|cluster-bench|"
               "update|stat|top> "
               "--flag value ...\n"
               "run with a subcommand to see its required flags\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "stat") return CmdStat(argc, argv);
  if (command == "top") return CmdTop(argc, argv);
  const Args args(argc, argv, 2);
  if (command == "gen") return CmdGen(args);
  if (command == "build") return CmdBuild(args);
  if (command == "search") return CmdSearch(args);
  if (command == "eval") return CmdEval(args);
  if (command == "profile") return CmdProfile(args);
  if (command == "serve-bench") return CmdServeBench(args);
  if (command == "cluster-bench") return CmdClusterBench(args);
  if (command == "update") return CmdUpdate(args);
  return Usage();
}
