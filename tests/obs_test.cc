// Tests for the observability layer (src/obs): name interning, histogram
// arithmetic, cross-thread metric merging, byte-deterministic trace export,
// per-query profiles, and the contract that instrumentation never changes
// simulated cycle totals or search results.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/timer.h"
#include "core/ganns_search.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "graph/diagnostics.h"
#include "obs/federation.h"
#include "obs/hdr_histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "song/song_search.h"

namespace ganns {
namespace obs {
namespace {

/// Saves and restores the process-wide tracing/metrics switches so these
/// tests cannot leak enabled instrumentation into other tests in the binary.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_tracing_ = TracingEnabled();
    was_metrics_ = MetricsEnabled();
    base_ = std::make_unique<data::Dataset>(
        data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 4));
    built_ = std::make_unique<graph::CpuBuildResult>(
        graph::BuildNswCpu(*base_, {}));
    queries_ = std::make_unique<data::Dataset>(data::GenerateQueries(
        data::PaperDataset("SIFT1M"), 40, 800, 4));
  }

  void TearDown() override {
    SetTracingEnabled(was_tracing_);
    SetMetricsEnabled(was_metrics_);
    TraceRecorder::Global().Clear();
  }

  graph::BatchSearchResult RunGanns(
      gpusim::Device& device,
      std::vector<core::GannsQueryProfile>* profiles = nullptr) {
    core::GannsParams params;
    params.k = 10;
    params.l_n = 64;
    return core::GannsSearchBatch(device, built_->graph, *base_, *queries_,
                                  params, 32, 0, profiles);
  }

  std::unique_ptr<data::Dataset> base_;
  std::unique_ptr<graph::CpuBuildResult> built_;
  std::unique_ptr<data::Dataset> queries_;
  bool was_tracing_ = false;
  bool was_metrics_ = false;
};

TEST_F(ObsTest, InternNameIsStableAndRoundTrips) {
  const NameId a = InternName("test.obs.intern_a");
  const NameId b = InternName("test.obs.intern_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, InternName("test.obs.intern_a"));
  EXPECT_EQ(NameOf(a), "test.obs.intern_a");
  // Id 0 is reserved for the default argument key so TraceEvent::arg_name's
  // zero-initialized value always resolves correctly.
  EXPECT_EQ(NameOf(0), "value");
}

TEST_F(ObsTest, HistogramBucketsCountsAndQuantiles) {
  // Small integer counts (hops, degrees, probe lengths) land in one exact
  // bucket per value.
  HdrHistogram hist;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 3u, 8u, 9u, 100u}) hist.Record(v);

  EXPECT_EQ(hist.count(), 8u);
  EXPECT_EQ(hist.sum(), 126u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 100u);
  const HdrHistogram::BucketSnapshot snap = hist.SnapshotBuckets();
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets = {
      {0, 1}, {1, 1}, {2, 1}, {3, 2}, {8, 1}, {9, 1}, {100, 1}};
  EXPECT_EQ(snap.buckets, buckets);
  // Nearest rank: the 4th of 8 samples is 3, the 2nd is 1.
  EXPECT_EQ(hist.ValueAtQuantile(0.5), 3u);
  EXPECT_EQ(hist.ValueAtQuantile(0.25), 1u);
  EXPECT_EQ(hist.ValueAtQuantile(1.0), 100u);
  EXPECT_DOUBLE_EQ(hist.mean(), 126.0 / 8.0);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_TRUE(hist.SnapshotBuckets().buckets.empty());
  EXPECT_EQ(hist.ValueAtQuantile(1.0), 0u);
}

TEST_F(ObsTest, MetricsMergeExactlyAcrossThreads) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test.obs.merge_counter");
  HdrHistogram& hist = registry.GetHdr("test.obs.merge_hist");
  const std::uint64_t counter_before = counter.value();
  const std::uint64_t hist_count_before = hist.count();
  const std::uint64_t hist_sum_before = hist.sum();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
        hist.Record(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Relaxed atomics still merge to exact totals — the property the
  // deterministic JSON export relies on.
  EXPECT_EQ(counter.value() - counter_before, kThreads * kPerThread);
  EXPECT_EQ(hist.count() - hist_count_before, kThreads * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += t * kPerThread;
  EXPECT_EQ(hist.sum() - hist_sum_before, expected_sum);
}

TEST_F(ObsTest, MetricsJsonSortedAndRepeatable) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  // Register intentionally out of order; export must sort by name.
  registry.GetCounter("test.obs.zz_counter").Add(2);
  registry.GetCounter("test.obs.aa_counter").Add(1);
  registry.GetGauge("test.obs.gauge").Set(1.5);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());
  const std::size_t a = json.find("test.obs.aa_counter");
  const std::size_t z = json.find("test.obs.zz_counter");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
}

TEST_F(ObsTest, TraceExportIsByteDeterministic) {
  if (!TracingCompiledIn()) GTEST_SKIP() << "built with GANNS_TRACING=OFF";
  SetTracingEnabled(true);

  const auto traced_run = [&] {
    TraceRecorder::Global().Clear();
    gpusim::Device device;  // fresh timeline: cycle stamps start at zero
    RunGanns(device);
    return TraceRecorder::Global().ToJson();
  };
  const std::string first = traced_run();
  const std::string second = traced_run();
  EXPECT_EQ(first, second) << "trace export must be byte-deterministic";

  // The export carries the kernel span, per-SM tracks, and all six GANNS
  // phase spans of Figure 3.
  EXPECT_NE(first.find("\"ganns_search\""), std::string::npos);
  EXPECT_NE(first.find("\"SM 0\""), std::string::npos);
  for (int p = 0; p < core::kNumGannsPhases; ++p) {
    const std::string phase =
        std::string("\"ganns.") + core::GannsPhaseName(p) + "\"";
    EXPECT_NE(first.find(phase), std::string::npos) << phase;
  }
}

TEST_F(ObsTest, WallSpansLandOnHostProcess) {
  if (!TracingCompiledIn()) GTEST_SKIP() << "built with GANNS_TRACING=OFF";
  SetTracingEnabled(true);
  TraceRecorder::Global().Clear();
  { ScopedWallSpan span("test.obs.wall_span"); }
  const std::string json = TraceRecorder::Global().ToJson();
  const std::size_t at = json.find("\"test.obs.wall_span\"");
  ASSERT_NE(at, std::string::npos);
  // Host events live in pid 1, on the wall-clock timeline.
  EXPECT_NE(json.find("\"pid\":1", at), std::string::npos);
}

TEST_F(ObsTest, InstrumentationDoesNotChangeCyclesOrResults) {
  if (!TracingCompiledIn()) GTEST_SKIP() << "built with GANNS_TRACING=OFF";
  SetTracingEnabled(false);
  SetMetricsEnabled(false);
  gpusim::Device plain_device;
  const auto plain = RunGanns(plain_device);

  SetTracingEnabled(true);
  SetMetricsEnabled(true);
  TraceRecorder::Global().Clear();
  gpusim::Device traced_device;
  std::vector<core::GannsQueryProfile> profiles;
  const auto traced = RunGanns(traced_device, &profiles);
  SetTracingEnabled(false);
  SetMetricsEnabled(false);

  // Observation only: identical charged cycles, per-category work, results.
  EXPECT_DOUBLE_EQ(plain.kernel.sim_cycles, traced.kernel.sim_cycles);
  for (std::size_t c = 0; c < plain.kernel.work_cycles.size(); ++c) {
    EXPECT_DOUBLE_EQ(plain.kernel.work_cycles[c], traced.kernel.work_cycles[c])
        << "work category " << c;
  }
  ASSERT_EQ(plain.results.size(), traced.results.size());
  for (std::size_t q = 0; q < plain.results.size(); ++q) {
    EXPECT_EQ(plain.results[q], traced.results[q]) << "query " << q;
  }
  ASSERT_EQ(profiles.size(), queries_->size());
}

TEST_F(ObsTest, GannsProfilesAccountForAllCycles) {
  std::vector<core::GannsQueryProfile> profiles;
  gpusim::Device device;
  RunGanns(device, &profiles);
  ASSERT_EQ(profiles.size(), queries_->size());
  for (const core::GannsQueryProfile& p : profiles) {
    EXPECT_GT(p.hops, 0u);
    EXPECT_GT(p.distance_computations, 0u);
    EXPECT_GE(p.result_occupancy, 10u);  // at least k valid entries
    EXPECT_LE(p.result_occupancy, 64u);  // bounded by l_n
    EXPECT_GT(p.total_cycles, 0.0);
    double phase_sum = 0;
    for (double c : p.phase_cycles) {
      EXPECT_GE(c, 0.0);
      phase_sum += c;
    }
    // The six phases tile the per-query timeline apart from entry setup.
    EXPECT_LE(phase_sum, p.total_cycles);
    EXPECT_GT(phase_sum, 0.9 * p.total_cycles);
  }
}

TEST_F(ObsTest, SongProfilesAccountForAllCycles) {
  song::SongParams params;
  params.k = 10;
  params.queue_size = 64;
  std::vector<song::SongQueryProfile> profiles;
  gpusim::Device device;
  song::SongSearchBatch(device, built_->graph, *base_, *queries_, params, 32,
                        0, &profiles);
  ASSERT_EQ(profiles.size(), queries_->size());
  for (const song::SongQueryProfile& p : profiles) {
    EXPECT_GT(p.hops, 0u);
    EXPECT_GT(p.distance_computations, 0u);
    EXPECT_GT(p.host_ops, 0u);
    EXPECT_GT(p.total_cycles, 0.0);
    double stage_sum = 0;
    for (double c : p.stage_cycles) {
      EXPECT_GE(c, 0.0);
      stage_sum += c;
    }
    EXPECT_LE(stage_sum, p.total_cycles);
    EXPECT_GT(stage_sum, 0.9 * p.total_cycles);
  }
}

TEST_F(ObsTest, SearchBatchPopulatesMetricsRegistry) {
  if (!TracingCompiledIn()) GTEST_SKIP() << "built with GANNS_TRACING=OFF";
  SetMetricsEnabled(true);
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& queries = registry.GetCounter("ganns.queries");
  HdrHistogram& hops = registry.GetHdr("ganns.hops_per_query");
  const std::uint64_t queries_before = queries.value();
  const std::uint64_t hops_before = hops.count();

  gpusim::Device device;
  RunGanns(device);  // no profiles requested: metrics must still flow
  SetMetricsEnabled(false);

  EXPECT_EQ(queries.value() - queries_before, queries_->size());
  EXPECT_EQ(hops.count() - hops_before, queries_->size());
}

TEST_F(ObsTest, DiagnosticsHistogramAndReachableSinks) {
  const graph::GraphDiagnostics diag = graph::Diagnose(built_->graph, 0);
  ASSERT_FALSE(diag.out_degree_histogram.empty());

  std::size_t vertices = 0;
  std::size_t edges = 0;
  for (std::size_t d = 0; d < diag.out_degree_histogram.size(); ++d) {
    vertices += diag.out_degree_histogram[d];
    edges += d * diag.out_degree_histogram[d];
  }
  EXPECT_EQ(vertices, diag.num_vertices);
  EXPECT_EQ(edges, diag.num_edges);
  EXPECT_EQ(diag.out_degree_histogram[0], diag.sinks);
  EXPECT_LE(diag.reachable_sinks, diag.sinks);

  if (!TracingCompiledIn()) return;
  SetMetricsEnabled(true);
  graph::PublishDiagnostics(diag, "test.obs.diag");
  SetMetricsEnabled(false);
  MetricsRegistry& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.GetCounter("test.obs.diag.vertices").value(),
            diag.num_vertices);
  EXPECT_EQ(registry.GetCounter("test.obs.diag.edges").value(),
            diag.num_edges);
  EXPECT_EQ(registry.GetCounter("test.obs.diag.reachable_sinks").value(),
            diag.reachable_sinks);
  HdrHistogram& degrees = registry.GetHdr("test.obs.diag.out_degree");
  EXPECT_EQ(degrees.count(), diag.num_vertices);
  EXPECT_EQ(degrees.sum(), diag.num_edges);
  EXPECT_EQ(degrees.max(), diag.max_out_degree);
}

// ---------------------------------------------------------------------------
// HDR histogram: the serving-SLO percentile engine.
// ---------------------------------------------------------------------------

/// The documented quantile contract, computed from a sorted copy of the
/// samples: nearest rank, reported as the bucket's upper bound, clamped to
/// the exact maximum.
std::uint64_t ReferenceQuantile(std::vector<std::uint64_t> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return std::min(HdrHistogram::HighestEquivalent(sorted[rank - 1]),
                  sorted.back());
}

TEST_F(ObsTest, HdrHistogramIsExactBelowTwoFiftySix) {
  HdrHistogram hist;
  std::vector<std::uint64_t> samples;
  for (std::uint64_t v = 0; v < 256; ++v) {
    hist.Record(v);
    samples.push_back(v);
  }
  EXPECT_EQ(hist.count(), 256u);
  EXPECT_EQ(hist.sum(), 255u * 256u / 2);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 255u);
  // Below 256 every value owns its own bucket, so quantiles are exact.
  for (const double q : {0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(hist.ValueAtQuantile(q), ReferenceQuantile(samples, q)) << q;
  }
  EXPECT_EQ(hist.ValueAtQuantile(0.5), 127u);  // rank 128 of 0..255
  EXPECT_EQ(HdrHistogram::HighestEquivalent(255), 255u);
}

TEST_F(ObsTest, HdrHistogramQuantilesMatchSortedReference) {
  // Adversarial shapes: constant, extreme bimodal, exponential ladder,
  // heavy tail, and a deterministic pseudo-random sweep across magnitudes.
  std::vector<std::vector<std::uint64_t>> distributions;
  distributions.push_back(std::vector<std::uint64_t>(1000, 1000000));
  {
    std::vector<std::uint64_t> bimodal(999, 1);
    bimodal.push_back(1000000000ull);
    distributions.push_back(std::move(bimodal));
  }
  {
    std::vector<std::uint64_t> ladder;
    for (int e = 0; e <= 40; ++e) ladder.push_back(1ull << e);
    distributions.push_back(std::move(ladder));
  }
  {
    std::vector<std::uint64_t> tail(1000, 100);
    for (int i = 0; i < 10; ++i) tail.push_back(10000000ull + i);
    distributions.push_back(std::move(tail));
  }
  {
    std::vector<std::uint64_t> sweep;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 5000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sweep.push_back(x >> (x % 50));  // magnitudes from 2^14 to 2^64
    }
    distributions.push_back(std::move(sweep));
  }

  for (std::size_t d = 0; d < distributions.size(); ++d) {
    const auto& samples = distributions[d];
    HdrHistogram hist;
    for (std::uint64_t v : samples) hist.Record(v);
    for (const double q : {0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      const std::uint64_t got = hist.ValueAtQuantile(q);
      const std::uint64_t want = ReferenceQuantile(samples, q);
      EXPECT_EQ(got, want) << "distribution " << d << " q=" << q;
      // And the headline resolution claim: the report never understates and
      // overstates by less than 2^-7 relative.
      std::vector<std::uint64_t> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      auto rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      if (rank < 1) rank = 1;
      const std::uint64_t exact = sorted[rank - 1];
      EXPECT_GE(got, exact);
      EXPECT_LE(static_cast<double>(got),
                static_cast<double>(exact) * (1.0 + 1.0 / 128.0) + 1.0);
    }
  }
}

TEST_F(ObsTest, HdrHistogramMergeIsExactAndOrderIndependent) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  // Per-thread histograms filled concurrently, with per-thread value ranges
  // so the merged quantiles are sensitive to any lost update.
  std::vector<std::unique_ptr<HdrHistogram>> parts;
  for (int t = 0; t < kThreads; ++t) {
    parts.push_back(std::make_unique<HdrHistogram>());
  }
  std::vector<std::uint64_t> all;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        parts[t]->RecordWithExemplar((t + 1) * 1000 + i * 7,
                                     t * kPerThread + i);
      }
    });
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      all.push_back((t + 1) * 1000 + i * 7);
    }
  }
  for (std::thread& w : workers) w.join();

  HdrHistogram forward;
  for (int t = 0; t < kThreads; ++t) forward.MergeFrom(*parts[t]);
  HdrHistogram backward;
  for (int t = kThreads - 1; t >= 0; --t) backward.MergeFrom(*parts[t]);

  EXPECT_EQ(forward.count(), kThreads * kPerThread);
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_EQ(forward.sum(), backward.sum());
  EXPECT_EQ(forward.min(), backward.min());
  EXPECT_EQ(forward.max(), backward.max());
  for (const double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(forward.ValueAtQuantile(q), backward.ValueAtQuantile(q)) << q;
    EXPECT_EQ(forward.ValueAtQuantile(q), ReferenceQuantile(all, q)) << q;
  }
  const auto fe = forward.exemplars();
  const auto be = backward.exemplars();
  ASSERT_EQ(fe.size(), be.size());
  for (std::size_t i = 0; i < fe.size(); ++i) {
    EXPECT_EQ(fe[i].value, be[i].value);
    EXPECT_EQ(fe[i].id, be[i].id);
  }
}

TEST_F(ObsTest, HdrHistogramKeepsLargestExemplars) {
  HdrHistogram hist;
  hist.RecordWithExemplar(50, 5);
  hist.RecordWithExemplar(50, 7);
  hist.RecordWithExemplar(50, 6);
  hist.RecordWithExemplar(40, 4);
  hist.RecordWithExemplar(30, 3);
  hist.RecordWithExemplar(20, 2);
  hist.Record(1000000);  // no exemplar id: never competes for a slot

  const auto exemplars = hist.exemplars();
  ASSERT_EQ(exemplars.size(), HdrHistogram::kMaxExemplars);
  // Descending by value; equal values keep the smaller id first.
  EXPECT_EQ(exemplars[0].value, 50u);
  EXPECT_EQ(exemplars[0].id, 5u);
  EXPECT_EQ(exemplars[1].id, 6u);
  EXPECT_EQ(exemplars[2].id, 7u);
  EXPECT_EQ(exemplars[3].value, 40u);
  EXPECT_EQ(exemplars[3].id, 4u);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_TRUE(hist.exemplars().empty());
}

TEST_F(ObsTest, RegistryHdrExportsJsonAndPrometheus) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  HdrHistogram& hist = registry.GetHdr("test.obs.hdr_export");
  EXPECT_EQ(&hist, &registry.GetHdr("test.obs.hdr_export"));
  hist.Reset();
  for (std::uint64_t v = 1; v <= 100; ++v) {
    hist.RecordWithExemplar(v * 10, v);
  }

  // The 99th of 10,20,...,1000 is sample 990, reported as its bucket's upper
  // bound (991 at 128 sub-buckets/octave) — recompute rather than hardcode.
  const std::string p99 = std::to_string(hist.ValueAtQuantile(0.99));
  EXPECT_EQ(hist.ValueAtQuantile(0.99),
            std::min(HdrHistogram::HighestEquivalent(990), hist.max()));

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"hdr\":{"), std::string::npos);
  const std::size_t at = json.find("\"test.obs.hdr_export\"");
  ASSERT_NE(at, std::string::npos);
  EXPECT_NE(json.find("\"p99\":" + p99, at), std::string::npos);
  EXPECT_NE(json.find("\"exemplars\":[{\"id\":100,\"value\":1000}", at),
            std::string::npos);

  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE ganns_test_obs_hdr_export summary"),
            std::string::npos);
  EXPECT_NE(prom.find("ganns_test_obs_hdr_export{quantile=\"0.99\"} " + p99),
            std::string::npos);
  EXPECT_NE(prom.find("ganns_test_obs_hdr_export_count 100"),
            std::string::npos);
}

/// The serve time-series shape: a one-node window engine over the global
/// registry. Tests drive its clock explicitly.
std::unique_ptr<MetricsFederation> GlobalSeries(
    FederationOptions options = {}) {
  options.latency_hdr = "serve.latency_us";
  options.queue_gauge = "serve.queue_saturation";
  auto series = std::make_unique<MetricsFederation>(options);
  NodeHooks hooks;
  hooks.snapshot = [] { return MetricsRegistry::Global().Snapshot(); };
  series->AddNode(std::move(hooks));
  return series;
}

std::uint64_t WindowCounterDelta(const FederatedWindow& window,
                                 const std::string& name) {
  for (const auto& [counter, delta] : window.counter_deltas) {
    if (counter == name) return delta;
  }
  return 0;
}

const HdrWindow* FindHdrWindow(const FederatedWindow& window,
                               const std::string& name) {
  for (const HdrWindow& hdr : window.hdr) {
    if (hdr.name == name) return &hdr;
  }
  return nullptr;
}

double WindowGauge(const FederatedWindow& window, const std::string& name) {
  for (const auto& [gauge, value] : window.nodes.at(0).gauges) {
    if (gauge == name) return value;
  }
  return -1.0;
}

TEST_F(ObsTest, TimeSeriesWindowsAreCumulativeDeltas) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test.obs.ts_counter");
  HdrHistogram& hdr = registry.GetHdr("test.obs.ts_hdr");
  hdr.Reset();

  const auto series = GlobalSeries();
  counter.Add(3);
  hdr.Record(100);
  hdr.Record(200);
  const FederatedWindow first = series->Scrape(1000);
  // The first window deltas against zero: it sees the full cumulative value,
  // and its interval spans the same stretch — from the clock origin.
  EXPECT_EQ(first.seq, 0u);
  EXPECT_EQ(first.interval_us, first.t_us);
  EXPECT_EQ(WindowCounterDelta(first, "test.obs.ts_counter"), 3u);
  const HdrWindow* window_hdr = FindHdrWindow(first, "test.obs.ts_hdr");
  ASSERT_NE(window_hdr, nullptr);
  EXPECT_EQ(window_hdr->count, 2u);
  EXPECT_EQ(window_hdr->total_count, 2u);
  // Values below 256 land in exact buckets, so the quantiles are exact.
  EXPECT_EQ(window_hdr->p50, 100u);
  EXPECT_EQ(window_hdr->max, 200u);

  counter.Add(5);
  hdr.Record(40);
  const FederatedWindow second = series->Scrape(2500);
  // The second window must report only what happened since the first cut —
  // even though the underlying metrics are cumulative and never reset.
  EXPECT_EQ(second.seq, 1u);
  EXPECT_EQ(second.interval_us, 1500u);
  EXPECT_EQ(WindowCounterDelta(second, "test.obs.ts_counter"), 5u);
  window_hdr = FindHdrWindow(second, "test.obs.ts_hdr");
  ASSERT_NE(window_hdr, nullptr);
  EXPECT_EQ(window_hdr->count, 1u);
  EXPECT_EQ(window_hdr->total_count, 3u);
  EXPECT_EQ(window_hdr->p50, 40u);
  EXPECT_EQ(window_hdr->max, 40u);
}

TEST_F(ObsTest, TimeSeriesRingEvictionsAreCounted) {
  Counter& evictions =
      MetricsRegistry::Global().GetCounter("obs.series.overwritten");
  const std::uint64_t evictions_before = evictions.value();

  const auto series = GlobalSeries();
  for (std::uint64_t i = 1; i <= kWindowRingCapacity + 3; ++i) {
    series->Scrape(i);
  }

  // Three windows past the ring's capacity: 3 evictions, all accounted —
  // both on the engine and mirrored into the registry (never silent).
  EXPECT_EQ(series->overwritten(), 3u);
  EXPECT_EQ(evictions.value() - evictions_before, 3u);
  ASSERT_EQ(series->windows().size(), kWindowRingCapacity);
  EXPECT_EQ(series->windows().front().seq, 3u);
  EXPECT_EQ(series->windows().back().seq, kWindowRingCapacity + 2);
}

TEST_F(ObsTest, TimeSeriesDerivesSloHeadroomAndQueueSaturation) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  HdrHistogram& latency = registry.GetHdr("serve.latency_us");
  latency.Reset();
  // ServeEngine publishes depth / capacity next to the depth gauge.
  registry.GetGauge("serve.queue_saturation").Set(0.75);

  FederationOptions options;
  options.slo_deadline_us = 200;
  const auto series = GlobalSeries(options);
  for (int i = 0; i < 10; ++i) latency.Record(180);
  const FederatedWindow window = series->Scrape(1000);

  // Windowed p99 is exactly 180 (every sample is 180, below the exact-bucket
  // limit), so headroom = 180 / 200. Saturation is the queue gauge's value.
  EXPECT_DOUBLE_EQ(window.slo_headroom, 0.9);
  EXPECT_EQ(window.slo_sample_count, 10u);
  EXPECT_DOUBLE_EQ(window.queue_saturation, 0.75);

  // The derived signals reach the cumulative exports (--stats-out writes
  // ToJson, --prom-out ToPrometheus), eviction count included.
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"obs.series.slo_headroom\":0.9"), std::string::npos);
  EXPECT_NE(json.find("\"serve.queue_saturation\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"obs.series.overwritten\":"), std::string::npos);
  const std::string prom = registry.ToPrometheus();
  EXPECT_NE(prom.find("ganns_obs_series_slo_headroom 0.9"), std::string::npos);
  EXPECT_NE(prom.find("ganns_serve_queue_saturation 0.75"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ganns_obs_series_overwritten counter"),
            std::string::npos);

  // The headroom feeds back into the registry, so the *next* window's gauge
  // set carries it.
  const FederatedWindow next = series->Scrape(2000);
  EXPECT_DOUBLE_EQ(WindowGauge(next, "obs.series.slo_headroom"), 0.9);
  EXPECT_DOUBLE_EQ(WindowGauge(next, "serve.queue_saturation"), 0.75);
  // An empty window has no p99: headroom drops to 0 rather than repeating.
  EXPECT_DOUBLE_EQ(next.slo_headroom, 0.0);
}

TEST_F(ObsTest, TimeSeriesWindowJsonIsDeterministicAndSorted) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.obs.ts_json_zz").Add(2);
  registry.GetCounter("test.obs.ts_json_aa").Add(1);

  const auto series = GlobalSeries();
  const FederatedWindow window = series->Scrape(1000);
  const std::string json = MetricsFederation::WindowJson(window);
  EXPECT_EQ(json, MetricsFederation::WindowJson(window));
  for (const char* section :
       {"\"counters\":{", "\"gauges\":{", "\"hdr\":{", "\"derived\":{"}) {
    EXPECT_NE(json.find(section), std::string::npos) << section;
  }
  const std::size_t a = json.find("test.obs.ts_json_aa");
  const std::size_t z = json.find("test.obs.ts_json_zz");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);

  series->Scrape(2000);
  const std::string jsonl = series->ToJsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_EQ(jsonl.compare(0, json.size(), json), 0);
}

// Metric writers race a scraping thread; the cut windows must still
// partition the recorded totals exactly (no sample lost or double-counted
// across window boundaries). Also the TSan gate's coverage of the window
// engine, via the obs_concurrency_test rebuild of this file.
TEST_F(ObsTest, TimeSeriesConcurrentWritersPartitionExactly) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& counter = registry.GetCounter("test.obs.ts_conc_counter");
  HdrHistogram& hdr = registry.GetHdr("test.obs.ts_conc_hdr");
  counter.Reset();  // window 0 deltas against zero; repeats must too
  hdr.Reset();
  const std::uint64_t counter_before = counter.value();

  FederationOptions options;
  options.scrape_interval_us = 1000;
  const auto series = GlobalSeries(options);
  std::atomic<bool> writing{true};
  std::uint64_t now_us = 0;
  std::thread scraper([&] {
    // Stays below the ring capacity (the final cut below takes the last
    // slot), so every window is retained.
    while (writing.load() &&
           series->windows().size() + 1 < kWindowRingCapacity) {
      now_us += options.scrape_interval_us;
      series->AdvanceTo(now_us);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add();
        hdr.Record(7);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  writing.store(false);
  scraper.join();
  series->Scrape(now_us + 1);  // final cut picks up the tail

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(counter.value() - counter_before, kTotal);
  std::uint64_t counter_sum = 0;
  std::uint64_t hdr_sum = 0;
  for (const FederatedWindow& window : series->windows()) {
    counter_sum += WindowCounterDelta(window, "test.obs.ts_conc_counter");
    if (const HdrWindow* w = FindHdrWindow(window, "test.obs.ts_conc_hdr")) {
      hdr_sum += w->count;
    }
  }
  EXPECT_EQ(counter_sum, kTotal);
  EXPECT_EQ(hdr_sum, kTotal);
  EXPECT_EQ(series->overwritten(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace ganns
