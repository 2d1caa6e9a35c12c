// ganns — command-line interface to the library, for driving real datasets
// through the index without writing C++:
//
//   ganns gen    --dataset SIFT1M --n 20000 --out base.fvecs
//                [--queries 200 --queries-out queries.fvecs] [--seed 1]
//   ganns build  --base base.fvecs --out index.gix [--metric l2|cosine]
//                [--d-max 32] [--d-min 16] [--groups 64] [--kernel ganns|song]
//                [--hnsw] [--precision float|sq8|pq] [--pq-m 16] [--pq-k 256]
//                [--rerank 4]
//   ganns search --index index.gix --base base.fvecs --queries queries.fvecs
//                --k 10 [--ln 64] [--e 0] [--out results.ivecs]
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
//                [--host 1] [--no-auto-compact 1] [--compact 1]
//                [--save prefix] [--json out.json] [--trace-out trace.json]
//                [--stats-out stats.json] [--prom-out metrics.prom]
//   ganns stat   <stats.json|cluster report|BENCH_cluster.json>
//                [--metric serve.latency_us] [--quantile p99]
//                [--path counters.cluster.served_queries]
//                [--watch [--iterations N] [--interval-ms 1000]]
//   ganns top    <series.jsonl|federation.jsonl> [--alerts alerts.jsonl]
//                [--rows 10] [--follow] [--iterations N] [--interval-ms 1000]
//
// `update` builds a sharded NSW index, applies a deterministic mixed
// insert/remove workload through the online write paths, and reports the
// mutated graph's recall against a brute-force oracle over the surviving
// points plus update throughput (simulated and wall) and latency
// percentiles as JSON. --host routes updates through the host (uncharged)
// paths; --compact forces a synchronous final compaction of every shard;
// --save persists the mutated shards in the v3 container for `serve-bench
// --load`.
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
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_router.h"
#include "common/text_file.h"
#include "core/ganns_index.h"
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

  long Int(const std::string& key, long fallback) const {
    const auto value = Get(key);
    return value.has_value() ? std::atol(value->c_str()) : fallback;
  }

  double Double(const std::string& key, double fallback) const {
    const auto value = Get(key);
    return value.has_value() ? std::atof(value->c_str()) : fallback;
  }

  bool Flag(const std::string& key) const { return Get(key).has_value(); }

 private:
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
  quantize.pq_subspaces = static_cast<std::size_t>(args.Int("pq-m", 16));
  quantize.pq_centroids = static_cast<std::size_t>(args.Int("pq-k", 256));
  quantize.rerank_factor = static_cast<std::size_t>(args.Int("rerank", 4));
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
  if (out.trace.has_value()) {
    if (!obs::TraceRecorder::Global().WriteJson(*out.trace)) {
      std::fprintf(stderr, "failed to write %s\n", out.trace->c_str());
      return false;
    }
    std::printf("wrote %zu trace events to %s\n",
                obs::TraceRecorder::Global().size(), out.trace->c_str());
  }
  if (out.stats.has_value()) {
    if (!obs::MetricsRegistry::Global().WriteJson(*out.stats)) {
      std::fprintf(stderr, "failed to write %s\n", out.stats->c_str());
      return false;
    }
    std::printf("wrote %s to %s\n", stats_noun, out.stats->c_str());
  }
  if (out.prom.has_value()) {
    if (!obs::MetricsRegistry::Global().WritePrometheus(*out.prom)) {
      std::fprintf(stderr, "failed to write %s\n", out.prom->c_str());
      return false;
    }
    std::printf("wrote Prometheus metrics to %s\n", out.prom->c_str());
  }
  return true;
}

int CmdGen(const Args& args) {
  const data::DatasetSpec& spec = data::PaperDataset(args.Require("dataset"));
  const std::size_t n = static_cast<std::size_t>(args.Int("n", 20000));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed", 1));

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  if (!data::WriteFvecs(args.Require("out"), base)) {
    std::fprintf(stderr, "failed to write %s\n", args.Require("out").c_str());
    return 1;
  }
  std::printf("wrote %zu x %zud base vectors (%s, %s)\n", base.size(),
              base.dim(), spec.name.c_str(),
              spec.metric == data::Metric::kL2 ? "l2" : "cosine");

  if (const auto queries_out = args.Get("queries-out");
      queries_out.has_value()) {
    const std::size_t q = static_cast<std::size_t>(args.Int("queries", 200));
    const data::Dataset queries = data::GenerateQueries(spec, q, n, seed);
    if (!data::WriteFvecs(*queries_out, queries)) {
      std::fprintf(stderr, "failed to write %s\n", queries_out->c_str());
      return 1;
    }
    std::printf("wrote %zu query vectors\n", queries.size());
  }
  return 0;
}

int CmdBuild(const Args& args) {
  const data::Metric metric = ParseMetric(args);
  data::Dataset base = LoadFvecsOrDie(args.Require("base"), "base", metric);

  core::GannsIndex::Options options;
  options.nsw.d_max = static_cast<std::size_t>(args.Int("d-max", 32));
  options.nsw.d_min = static_cast<std::size_t>(args.Int("d-min", 16));
  options.nsw.ef_construction =
      static_cast<std::size_t>(args.Int("ef", 2 * options.nsw.d_min));
  options.num_groups = static_cast<int>(args.Int("groups", 64));
  if (args.Get("kernel").value_or("ganns") == "song") {
    options.construction_kernel = core::SearchKernel::kSong;
  }
  if (args.Flag("hnsw")) options.kind = core::GraphKind::kHnsw;
  options.quantize = ParseQuantizeFlags(args);

  core::GannsIndex index = core::GannsIndex::Build(std::move(base), options);
  const std::string out = args.Require("out");
  if (!index.Save(out)) {
    std::fprintf(stderr, "failed to save index to %s\n", out.c_str());
    return 1;
  }
  std::printf("built %s index over %zu points in %.3f simulated GPU s; "
              "saved to %s\n",
              options.kind == core::GraphKind::kHnsw ? "HNSW" : "NSW",
              index.base().size(), index.timing().build_seconds, out.c_str());
  if (index.quantizer() != nullptr) {
    std::printf("quantized: precision=%s code_bytes=%zu rerank_factor=%zu "
                "(float rows are %zu bytes)\n",
                data::PrecisionName(index.quantizer()->precision()),
                index.quantizer()->code_bytes(),
                index.quantizer()->rerank_factor(),
                index.base().dim() * sizeof(float));
  }
  return 0;
}

int CmdSearch(const Args& args) {
  const data::Metric metric = ParseMetric(args);
  data::Dataset base = LoadFvecsOrDie(args.Require("base"), "base", metric);
  const data::Dataset queries =
      LoadFvecsOrDie(args.Require("queries"), "queries", metric);

  std::string load_error;
  auto index = core::GannsIndex::Load(args.Require("index"), std::move(base),
                                      core::GannsIndex::Options(),
                                      &load_error);
  if (!index.has_value()) {
    std::fprintf(stderr, "failed to load index %s: %s\n",
                 args.Require("index").c_str(), load_error.c_str());
    return 1;
  }
  if (index->quantizer() != nullptr) {
    std::printf("index is quantized: precision=%s code_bytes=%zu "
                "rerank_factor=%zu\n",
                data::PrecisionName(index->quantizer()->precision()),
                index->quantizer()->code_bytes(),
                index->quantizer()->rerank_factor());
  }

  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
  core::GannsParams params;
  params.l_n = static_cast<std::size_t>(args.Int("ln", 64));
  params.e = static_cast<std::size_t>(args.Int("e", 0));

  const TelemetryOut telemetry{.trace = args.Get("trace-out")};
  if (telemetry.trace.has_value()) {
    obs::SetTracingEnabled(true);
    obs::SetMetricsEnabled(true);
  }

  const auto rows = index->Search(queries, k, params);
  std::printf("searched %zu queries (k=%zu, l_n=%zu, e=%zu) at %.0f "
              "simulated QPS\n",
              queries.size(), k, params.l_n, params.EffectiveE(),
              index->timing().last_search_qps);
  if (!WriteTelemetry(telemetry, "metrics")) return 1;

  if (const auto out = args.Get("out"); out.has_value()) {
    std::vector<std::vector<std::int32_t>> ids(rows.size());
    for (std::size_t q = 0; q < rows.size(); ++q) {
      for (const auto& neighbor : rows[q]) {
        ids[q].push_back(static_cast<std::int32_t>(neighbor.id));
      }
    }
    if (!data::WriteIvecs(*out, ids)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
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

  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
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
  const std::size_t n = static_cast<std::size_t>(args.Int("n", 10000));
  const std::size_t num_queries =
      static_cast<std::size_t>(args.Int("queries", 100));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
  const std::string algo = args.Get("algo").value_or("ganns");

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
  core::GpuBuildParams build;
  build.num_groups = static_cast<int>(args.Int("groups", 64));
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

  graph::BatchSearchResult batch;
  if (algo == "song") {
    song::SongParams params;
    params.k = k;
    params.queue_size = static_cast<std::size_t>(args.Int("queue", 64));
    std::vector<song::SongQueryProfile> profiles;
    batch = song::SongSearchBatch(device, built.graph, base, queries, params,
                                  32, 0, &profiles);
    double total = 0;
    std::array<double, song::kNumSongStages> stage{};
    std::uint64_t hops = 0, dists = 0;
    for (const song::SongQueryProfile& p : profiles) {
      hops += p.hops;
      dists += p.distance_computations;
      for (int i = 0; i < song::kNumSongStages; ++i) {
        stage[i] += p.stage_cycles[i];
        total += p.stage_cycles[i];
      }
    }
    std::printf("SONG: %zu queries, mean hops=%.1f, mean dist evals=%.1f\n",
                queries.size(),
                static_cast<double>(hops) / static_cast<double>(queries.size()),
                static_cast<double>(dists) /
                    static_cast<double>(queries.size()));
    std::printf("stages:");
    for (int i = 0; i < song::kNumSongStages; ++i) {
      std::printf(" %s=%.1f%%", song::SongStageName(i),
                  total > 0 ? 100 * stage[i] / total : 0.0);
    }
    std::printf("\n");
  } else if (algo == "ganns") {
    core::GannsParams params;
    params.k = k;
    params.l_n = static_cast<std::size_t>(args.Int("ln", 64));
    params.e = static_cast<std::size_t>(args.Int("e", 0));
    std::vector<core::GannsQueryProfile> profiles;
    batch = core::GannsSearchBatch(device, built.graph, base, queries, params,
                                   32, 0, &profiles);
    double total = 0;
    std::array<double, core::kNumGannsPhases> phase{};
    std::uint64_t hops = 0, dists = 0, redundant = 0;
    for (const core::GannsQueryProfile& p : profiles) {
      hops += p.hops;
      dists += p.distance_computations;
      redundant += p.redundant_distances;
      for (int i = 0; i < core::kNumGannsPhases; ++i) {
        phase[i] += p.phase_cycles[i];
        total += p.phase_cycles[i];
      }
    }
    std::printf("GANNS: %zu queries, mean hops=%.1f, mean dist evals=%.1f "
                "(%.1f redundant)\n",
                queries.size(),
                static_cast<double>(hops) / static_cast<double>(queries.size()),
                static_cast<double>(dists) /
                    static_cast<double>(queries.size()),
                static_cast<double>(redundant) /
                    static_cast<double>(queries.size()));
    std::printf("phases:");
    for (int i = 0; i < core::kNumGannsPhases; ++i) {
      std::printf(" %s=%.1f%%", core::GannsPhaseName(i),
                  total > 0 ? 100 * phase[i] / total : 0.0);
    }
    std::printf("\n");
  } else {
    std::fprintf(stderr, "unknown --algo '%s' (use ganns|song)\n",
                 algo.c_str());
    return 2;
  }

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

core::SearchKernel ParseServeKernel(const Args& args) {
  const std::string name = args.Get("kernel").value_or("ganns");
  if (name == "ganns") return core::SearchKernel::kGanns;
  if (name == "song") return core::SearchKernel::kSong;
  if (name == "beam") return core::SearchKernel::kBeam;
  std::fprintf(stderr, "unknown kernel '%s' (use ganns|song|beam)\n",
               name.c_str());
  std::exit(2);
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
  const std::size_t n = static_cast<std::size_t>(args.Int("n", 20000));
  const std::size_t num_queries =
      static_cast<std::size_t>(args.Int("queries", 500));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
  const std::size_t budget = static_cast<std::size_t>(args.Int("budget", 64));
  const std::size_t num_shards =
      static_cast<std::size_t>(args.Int("shards", 2));
  const long deadline_us = args.Int("deadline-us", 0);

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);

  serve::ShardBuildOptions build_options;
  build_options.num_groups = static_cast<int>(args.Int("groups", 64));
  build_options.construction_kernel = ParseServeKernel(args);
  if (build_options.construction_kernel == core::SearchKernel::kBeam) {
    build_options.construction_kernel = core::SearchKernel::kGanns;
  }
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
  if (index->resident_bytes_per_vector() < base.dim() * sizeof(float)) {
    std::printf("compressed serving: resident code bytes/vector=%zu "
                "(float rows are %zu bytes)\n",
                index->resident_bytes_per_vector(),
                base.dim() * sizeof(float));
  }

  serve::ServeOptions serve_options;
  serve_options.max_batch = static_cast<std::size_t>(args.Int("max-batch", 32));
  serve_options.batch_window_us = args.Int("window-us", 200);
  serve_options.queue_capacity =
      static_cast<std::size_t>(args.Int("queue-cap", 1024));
  serve_options.kernel = ParseServeKernel(args);
  if (const auto sample = args.Get("sample"); sample.has_value()) {
    serve_options.trace_sample = serve::ParseTraceSample(sample->c_str());
  }

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
    flight_options.request_capacity =
        static_cast<std::size_t>(args.Int("flight-ring", 4096));
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
  engine.Start();

  const auto bench_start = serve::ServeClock::now();
  std::vector<std::future<serve::QueryResponse>> futures;
  futures.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    serve::QueryRequest request;
    request.id = q;
    const auto point = queries.Point(static_cast<VertexId>(q));
    request.query.assign(point.begin(), point.end());
    request.k = k;
    request.budget = budget;
    if (deadline_us > 0) {
      request.deadline = serve::DeadlineAfterMicros(deadline_us);
    }
    futures.push_back(engine.Submit(std::move(request)));
  }

  std::vector<std::vector<VertexId>> ids(num_queries);
  std::vector<double> latencies;
  latencies.reserve(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    serve::QueryResponse response = futures[q].get();
    if (response.status != serve::StatusCode::kOk) continue;
    latencies.push_back(response.latency_us);
    for (const auto& neighbor : response.neighbors) {
      ids[response.id].push_back(neighbor.id);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(serve::ServeClock::now() - bench_start)
          .count();
  engine.Shutdown();
  if (series.has_value()) series->Stop();

  const serve::ServeCounters counters = engine.counters();
  const double sim_seconds = engine.total_sim_seconds();
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  const double recall = data::MeanRecall(ids, truth, k);
  std::sort(latencies.begin(), latencies.end());

  std::string json = "{\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  \"shards\": %zu,\n", num_shards);
  json += line;
  std::snprintf(line, sizeof(line), "  \"queries\": %zu,\n", num_queries);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"served\": %llu, \"rejected\": %llu, \"expired\": %llu,\n",
                static_cast<unsigned long long>(counters.served),
                static_cast<unsigned long long>(counters.rejected),
                static_cast<unsigned long long>(counters.expired));
  json += line;
  std::snprintf(line, sizeof(line), "  \"recall\": %.4f,\n", recall);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"sim_qps\": %.0f, \"wall_qps\": %.0f,\n",
                sim_seconds > 0 ? static_cast<double>(counters.served) /
                                      sim_seconds
                                : 0.0,
                wall_seconds > 0 ? static_cast<double>(counters.served) /
                                       wall_seconds
                                 : 0.0);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                "\"p99\": %.1f}\n}\n",
                Percentile(latencies, 0.50), Percentile(latencies, 0.95),
                Percentile(latencies, 0.99));
  json += line;

  if (const auto out = args.Get("json"); out.has_value()) {
    if (!WriteTextFile(*out, json)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote %s\n", out->c_str());
  }
  std::fputs(json.c_str(), stdout);

  if (!WriteTelemetry(telemetry, "serving stats")) return 1;
  if (series.has_value()) {
    const obs::MetricsFederation& stream = series->engine();
    if (!stream.WriteJsonl(*series_out)) {
      std::fprintf(stderr, "failed to write %s\n", series_out->c_str());
      return 1;
    }
    std::printf("wrote %zu time-series windows to %s (%llu overwritten)\n",
                stream.windows().size(), series_out->c_str(),
                static_cast<unsigned long long>(stream.overwritten()));
  }
  if (flight_out.has_value()) {
    serve::FlightRecorder& recorder = serve::FlightRecorder::Global();
    if (!recorder.WriteJson(*flight_out)) {
      std::fprintf(stderr, "failed to write %s\n", flight_out->c_str());
      return 1;
    }
    const serve::FlightCounters flight_counters = recorder.counters();
    std::printf("wrote flight dump to %s (%llu recorded, %llu violators "
                "persisted)\n",
                flight_out->c_str(),
                static_cast<unsigned long long>(flight_counters.recorded),
                static_cast<unsigned long long>(flight_counters.persisted));
  }
  if (hardness_out.has_value()) {
    if (!serve::FlightRecorder::Global().WriteHardnessJsonl(*hardness_out)) {
      std::fprintf(stderr, "failed to write %s\n", hardness_out->c_str());
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
  const std::size_t n = static_cast<std::size_t>(args.Int("n", 20000));
  const std::size_t num_queries =
      static_cast<std::size_t>(args.Int("queries", 400));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
  const std::size_t budget = static_cast<std::size_t>(args.Int("budget", 256));
  const std::size_t num_shards =
      static_cast<std::size_t>(args.Int("shards", 4));
  const std::size_t batch_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.Int("batch", 16)));

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

  const data::Dataset base = data::GenerateBase(spec, n, seed);
  const data::Dataset queries =
      data::GenerateQueries(spec, num_queries, n, seed);

  serve::ShardBuildOptions build_options;
  build_options.num_groups = static_cast<int>(args.Int("groups", 64));
  build_options.construction_kernel = ParseServeKernel(args);
  if (build_options.construction_kernel == core::SearchKernel::kBeam) {
    build_options.construction_kernel = core::SearchKernel::kGanns;
  }
  serve::ShardedIndex index =
      serve::ShardedIndex::Build(base, num_shards, build_options);

  cluster::ClusterOptions cluster_options;
  cluster_options.num_nodes = static_cast<std::size_t>(args.Int("nodes", 3));
  cluster_options.replication =
      static_cast<std::size_t>(args.Int("replication", 2));
  if (const auto name = args.Get("selection"); name.has_value()) {
    const auto selection = cluster::ParseSelection(*name);
    if (!selection.has_value()) {
      std::fprintf(stderr, "unknown selection '%s' (use rr|lo|p2c)\n",
                   name->c_str());
      return 2;
    }
    cluster_options.selection = *selection;
  }
  cluster_options.max_attempts =
      static_cast<std::size_t>(args.Int("max-attempts", 3));
  cluster_options.timeout_us = args.Double("timeout-us", 1000.0);
  cluster_options.aggregator.max_bytes =
      static_cast<std::size_t>(args.Int("agg-bytes", 8192));
  cluster_options.aggregator.deadline_us =
      args.Double("agg-deadline-us", 100.0);
  cluster_options.seed = seed;
  cluster_options.faults.crash_node =
      static_cast<int>(args.Int("crash-node", -1));
  cluster_options.faults.crash_at_batch =
      static_cast<std::uint64_t>(args.Int("crash-at-batch", 1));
  cluster_options.faults.rejoin_after_batches =
      static_cast<int>(args.Int("rejoin-after", -1));
  cluster_options.faults.drop_rate = args.Double("drop-pct", 0.0) / 100.0;
  cluster_options.faults.delay_rate = args.Double("delay-pct", 0.0) / 100.0;
  cluster_options.faults.delay_us = args.Double("delay-us", 200.0);
  cluster_options.faults.seed =
      static_cast<std::uint64_t>(args.Int("fault-seed", 1));
  if (plane_on) {
    cluster_options.federation.enabled = true;
    // Simulated batches are O(100us), so the CLI defaults to a tighter
    // scrape cadence than the library's 5ms.
    cluster_options.federation.scrape_interval_us =
        static_cast<std::uint64_t>(args.Int("scrape-interval-us", 500));
    cluster_options.federation.slo_deadline_us =
        static_cast<std::uint64_t>(args.Int("slo-deadline-us", 0));
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

  cluster::ClusterIndex cluster_index(index, cluster_options);
  const core::SearchKernel kernel = ParseServeKernel(args);

  std::vector<serve::RoutedQuery> routed(num_queries);
  std::vector<std::vector<float>> query_storage(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    const auto point = queries.Point(static_cast<VertexId>(q));
    query_storage[q].assign(point.begin(), point.end());
    routed[q].query = query_storage[q];
    routed[q].k = k;
    routed[q].budget = budget;
  }
  // --sample N: every Nth query becomes a sampled request — its sub-queries
  // emit child spans on the owning nodes' tracks, stitched to a
  // serve.request root by Perfetto flow events. Requires --trace-out.
  if (const long sample = args.Int("sample", 0);
      sample > 0 && telemetry.trace.has_value()) {
    for (std::size_t q = 0; q < num_queries;
         q += static_cast<std::size_t>(sample)) {
      routed[q].trace.sampled = true;
      routed[q].trace.trace_id = static_cast<std::uint64_t>(q) + 1;
    }
  }

  std::vector<std::vector<graph::Neighbor>> rows(num_queries);
  for (std::size_t q = 0; q < num_queries; q += batch_size) {
    const std::size_t count = std::min(batch_size, num_queries - q);
    auto batch_rows = cluster_index.SearchBatch(
        std::span<const serve::RoutedQuery>(routed).subspan(q, count), kernel);
    for (std::size_t i = 0; i < count; ++i) {
      rows[q + i] = std::move(batch_rows[i]);
    }
  }
  cluster_index.Shutdown();

  // Replay through single-node serving: the determinism contract says this
  // matches bit-for-bit whenever the cluster lost no candidates.
  bool identical = true;
  for (std::size_t q = 0; q < num_queries && identical; q += batch_size) {
    const std::size_t count = std::min(batch_size, num_queries - q);
    const auto reference = index.SearchBatch(
        std::span<const serve::RoutedQuery>(routed).subspan(q, count), kernel);
    for (std::size_t i = 0; i < count; ++i) {
      if (rows[q + i] != reference[i]) identical = false;
    }
  }

  std::vector<std::vector<VertexId>> ids(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (const auto& neighbor : rows[q]) ids[q].push_back(neighbor.id);
  }
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  const double recall = data::MeanRecall(ids, truth, k);
  const cluster::ClusterCounters& counters = cluster_index.counters();
  const double sim_seconds = cluster_index.total_sim_seconds();

  std::string json = "{\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  \"shards\": %zu, \"nodes\": %zu, \"replication\": %zu, "
                "\"selection\": \"%s\",\n",
                num_shards, cluster_options.num_nodes,
                cluster_options.replication,
                std::string(cluster::SelectionName(cluster_options.selection))
                    .c_str());
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"queries\": %zu, \"batch\": %zu,\n", num_queries,
                batch_size);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"served\": %llu, \"lost\": %llu,\n",
                static_cast<unsigned long long>(counters.served_queries),
                static_cast<unsigned long long>(counters.lost_sub_queries));
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"failovers\": %llu, \"timeouts\": %llu,\n",
                static_cast<unsigned long long>(counters.failovers),
                static_cast<unsigned long long>(counters.timeouts));
  json += line;
  std::snprintf(line, sizeof(line), "  \"recall\": %.4f,\n", recall);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"sim_qps\": %.0f, \"recovery_sim_seconds\": %.6f,\n",
                sim_seconds > 0
                    ? static_cast<double>(counters.served_queries) / sim_seconds
                    : 0.0,
                cluster_index.recovery_sim_seconds());
  json += line;
  std::snprintf(line, sizeof(line), "  \"identical_to_single_node\": %d,\n",
                identical ? 1 : 0);
  json += line;
  if (plane_on && cluster_index.federation() != nullptr) {
    const obs::MetricsFederation& federation = *cluster_index.federation();
    std::snprintf(line, sizeof(line),
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
    json += line;
  }
  json += "  \"counters\": " + cluster_index.CountersJson() + ",\n";
  json += "  \"aggregator\": " + cluster_index.AggregatorJson() + ",\n";
  json += "  \"node_stats\": " + cluster_index.NodesJson() + "\n}\n";

  if (const auto out = args.Get("json"); out.has_value()) {
    if (!WriteTextFile(*out, json)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote %s\n", out->c_str());
  }
  std::fputs(json.c_str(), stdout);

  if (!WriteTelemetry(telemetry, "cluster stats")) return 1;
  if (federation_out.has_value()) {
    if (cluster_index.federation() == nullptr ||
        !cluster_index.federation()->WriteJsonl(*federation_out)) {
      std::fprintf(stderr, "failed to write %s\n", federation_out->c_str());
      return 1;
    }
    std::printf("wrote %zu federated windows to %s\n",
                cluster_index.federation()->windows().size(),
                federation_out->c_str());
  }
  if (fed_prom_out.has_value()) {
    if (cluster_index.federation() == nullptr ||
        !cluster_index.federation()->WritePrometheus(*fed_prom_out)) {
      std::fprintf(stderr, "failed to write %s\n", fed_prom_out->c_str());
      return 1;
    }
    std::printf("wrote federated Prometheus metrics to %s\n",
                fed_prom_out->c_str());
  }
  if (alerts_out.has_value()) {
    if (cluster_index.alerts() == nullptr ||
        !cluster_index.alerts()->WriteJsonl(*alerts_out)) {
      std::fprintf(stderr, "failed to write %s\n", alerts_out->c_str());
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
  const std::size_t n = static_cast<std::size_t>(args.Int("n", 20000));
  const std::size_t num_queries =
      static_cast<std::size_t>(args.Int("queries", 200));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Int("seed", 1));
  const std::size_t k = static_cast<std::size_t>(args.Int("k", 10));
  const std::size_t budget = static_cast<std::size_t>(args.Int("budget", 256));
  const std::size_t num_shards =
      static_cast<std::size_t>(args.Int("shards", 2));
  const std::size_t num_inserts =
      static_cast<std::size_t>(args.Int("inserts", static_cast<long>(n) / 10));
  const std::size_t num_removes =
      static_cast<std::size_t>(args.Int("removes", static_cast<long>(n) / 10));

  serve::ShardBuildOptions build_options;
  build_options.num_groups = static_cast<int>(args.Int("groups", 64));
  build_options.construction_kernel = ParseServeKernel(args);
  if (build_options.construction_kernel == core::SearchKernel::kBeam) {
    build_options.construction_kernel = core::SearchKernel::kGanns;
  }
  build_options.update.ef_insert =
      static_cast<std::size_t>(args.Int("ef-insert", 64));
  build_options.update.compact_threshold =
      static_cast<double>(args.Int("compact-threshold-pct", 25)) / 100.0;
  build_options.update.host_updates = args.Flag("host");
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

  // The survivor set: global id -> vector, kept in id order so the oracle
  // dataset below is deterministic.
  std::map<VertexId, std::vector<float>> live;
  for (VertexId v = 0; v < n; ++v) {
    const auto point = base.Point(v);
    live.emplace(v, std::vector<float>(point.begin(), point.end()));
  }

  // Alternating workload, removes first (odd steps insert). Victims walk
  // the live set with a fixed stride so deletions spread across shards and
  // hit both initial and freshly inserted points.
  std::size_t inserts_done = 0, removes_done = 0;
  std::size_t failed_inserts = 0;
  std::vector<double> op_latencies;
  op_latencies.reserve(num_inserts + num_removes);
  const auto workload_start = std::chrono::steady_clock::now();
  const std::size_t total_ops = num_inserts + num_removes;
  for (std::size_t i = 0; i < total_ops; ++i) {
    const bool want_remove =
        (i % 2 == 0) ? removes_done < num_removes : inserts_done >= num_inserts;
    const auto op_start = std::chrono::steady_clock::now();
    if (want_remove && removes_done < num_removes && !live.empty()) {
      auto victim = live.begin();
      std::advance(victim, (i * 131) % live.size());
      const VertexId gid = victim->first;
      if (!index.Remove(gid)) {
        std::fprintf(stderr, "remove of live id %u failed\n", gid);
        return 1;
      }
      live.erase(victim);
      ++removes_done;
    } else if (inserts_done < num_inserts) {
      const auto point = pool.Point(static_cast<VertexId>(inserts_done));
      const auto gid = index.Insert(point);
      ++inserts_done;
      if (gid.has_value()) {
        live.emplace(*gid, std::vector<float>(point.begin(), point.end()));
      } else {
        ++failed_inserts;  // capacity_slack exhausted: reported, not fatal
      }
    } else {
      continue;
    }
    op_latencies.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - op_start)
                               .count());
  }
  const double workload_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    workload_start)
          .count();

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

  // Brute-force oracle over the survivors. Search results come back as
  // global ids; translate them to survivor-dataset rows before scoring.
  data::Dataset survivors("survivors", base.dim(), base.metric());
  survivors.Reserve(live.size());
  std::map<VertexId, VertexId> gid_to_row;
  for (const auto& [gid, point] : live) {
    gid_to_row.emplace(gid, static_cast<VertexId>(survivors.size()));
    survivors.Append(point);
  }
  const data::GroundTruth truth = data::BruteForceKnn(survivors, queries, k);

  std::vector<serve::RoutedQuery> routed(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    routed[q].query = queries.Point(static_cast<VertexId>(q));
    routed[q].k = k;
    routed[q].budget = budget;
  }
  const auto rows = index.SearchBatch(routed, ParseServeKernel(args));
  std::vector<std::vector<VertexId>> ids(num_queries);
  for (std::size_t q = 0; q < num_queries; ++q) {
    for (const auto& neighbor : rows[q]) {
      const auto it = gid_to_row.find(neighbor.id);
      ids[q].push_back(it != gid_to_row.end()
                           ? it->second
                           : static_cast<VertexId>(survivors.size()));
    }
  }
  const double recall = data::MeanRecall(ids, truth, k);

  double max_tombstones = 0;
  for (std::size_t s = 0; s < index.num_shards(); ++s) {
    max_tombstones = std::max(max_tombstones, index.TombstoneFraction(s));
  }
  const double sim_seconds = index.update_sim_seconds();
  const std::size_t applied = inserts_done + removes_done - failed_inserts;
  std::sort(op_latencies.begin(), op_latencies.end());

  std::string json = "{\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "  \"shards\": %zu, \"initial\": %zu, \"live\": %zu,\n",
                num_shards, n, index.size());
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"inserts\": %llu, \"removes\": %llu, "
                "\"failed_inserts\": %zu,\n",
                static_cast<unsigned long long>(index.inserts()),
                static_cast<unsigned long long>(index.removes()),
                failed_inserts);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"compactions\": %llu, \"tombstone_fraction\": %.4f,\n",
                static_cast<unsigned long long>(index.compactions()),
                max_tombstones);
  json += line;
  std::snprintf(line, sizeof(line), "  \"update_recall\": %.4f,\n", recall);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"update_sim_seconds\": %.6f, \"sim_ups\": %.0f, "
                "\"wall_ups\": %.0f,\n",
                sim_seconds,
                sim_seconds > 0 ? static_cast<double>(applied) / sim_seconds
                                : 0.0,
                workload_wall_seconds > 0
                    ? static_cast<double>(applied) / workload_wall_seconds
                    : 0.0);
  json += line;
  std::snprintf(line, sizeof(line),
                "  \"update_latency_us\": {\"p50\": %.1f, \"p95\": %.1f, "
                "\"p99\": %.1f}\n}\n",
                Percentile(op_latencies, 0.50), Percentile(op_latencies, 0.95),
                Percentile(op_latencies, 0.99));
  json += line;

  if (const auto out = args.Get("json"); out.has_value()) {
    if (!WriteTextFile(*out, json)) {
      std::fprintf(stderr, "failed to write %s\n", out->c_str());
      return 1;
    }
    std::printf("wrote %s\n", out->c_str());
  }
  std::fputs(json.c_str(), stdout);

  if (!WriteTelemetry(telemetry, "update stats")) return 1;
  return 0;
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
  const auto rows = static_cast<std::size_t>(args.Int("rows", 10));
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
