// quantized_sweep — the compressed-search operating table: recall, simulated
// QPS and resident code bytes for the exact float path vs the two-stage
// SQ8/PQ paths, at a fixed traversal budget.
//
// All precisions share one CPU-built NSW graph and one GANNS parameter
// setting (l_n, e), so every row visits the same vertices in the same order;
// the rows differ only in what a distance evaluation costs (gpusim charges
// code distances as proportionally narrower loads, plus the one-time LUT
// build for PQ) and in what the rerank recovers. The compressed rows sweep
// rerank_factor to show the recall/latency knob of the second stage.
//
// Gate expectations (bench_diff defaults): each row's recall stays within
// the recall ratio of its committed baseline, and quantized sim_qps does not
// collapse. The acceptance claims — rerank recall within 1% of the exact row
// and >= 4x smaller resident code bytes — are visible directly in the table.
// Writes the table as JSON (argv[1], default BENCH_quantized.json).

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/ganns_search.h"
#include "data/ground_truth.h"
#include "data/quantize.h"
#include "gpusim/device.h"

namespace {

using namespace ganns;

constexpr std::size_t kK = 10;
constexpr std::size_t kRerankFactors[] = {2, 4, 8};

struct Row {
  double recall = 0;
  double sim_qps = 0;
};

Row RunPoint(gpusim::Device& device, const graph::ProximityGraph& nsw,
             const bench::Workload& workload, const core::GannsParams& params,
             const data::SearchQuantization* quant) {
  const graph::BatchSearchResult batch = core::GannsSearchBatch(
      device, nsw, workload.base, workload.queries, params, 32, 0, nullptr,
      {quant});
  Row row;
  row.recall = data::MeanRecall(batch.results, workload.truth, kK);
  row.sim_qps = batch.qps;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::BenchConfig::FromEnv();
  bench::PrintHeader("quantized_sweep", config);
  const bench::Workload workload = bench::MakeWorkload("SIFT1M", config, kK);
  const graph::ProximityGraph nsw =
      bench::CachedNswGraph(workload, {}, config);
  gpusim::Device device;

  // One fixed operating point for every precision: identical traversal,
  // different per-distance cost.
  core::GannsParams params;
  params.k = kK;
  params.l_n = 128;
  params.e = 64;

  const std::size_t float_bytes = workload.base.dim() * sizeof(float);
  std::printf("corpus %zu x %zud, %zu queries, k=%zu, l_n=%zu, e=%zu\n",
              workload.base.size(), workload.base.dim(),
              workload.queries.size(), kK, params.l_n, params.e);
  std::printf("%-9s %7s %9s %12s %14s\n", "precision", "rerank", "recall",
              "sim_qps", "bytes/vector");

  std::string json =
      "{\n  \"provenance\": " + bench::ProvenanceJson() +
      ",\n  \"quantized\": [\n";

  const Row exact = RunPoint(device, nsw, workload, params, nullptr);
  std::printf("%-9s %7s %9.4f %12.0f %14zu\n", "float32", "-", exact.recall,
              exact.sim_qps, float_bytes);
  bench::Appendf(json,
                 "    {\"precision\": \"float32\", \"rerank_factor\": 0, "
                 "\"recall\": %.4f, \"sim_qps\": %.0f, "
                 "\"resident_bytes_per_vector\": %zu}",
                 exact.recall, exact.sim_qps, float_bytes);

  for (const data::Precision precision :
       {data::Precision::kSq8, data::Precision::kPq}) {
    data::QuantizerOptions options;
    options.precision = precision;
    const data::Quantizer quantizer =
        data::Quantizer::Train(workload.base, options);
    const data::QuantizedCodes codes =
        data::QuantizedCodes::EncodeAll(quantizer, workload.base);
    for (const std::size_t rerank : kRerankFactors) {
      const data::SearchQuantization quant{&quantizer, &codes, rerank};
      const Row row = RunPoint(device, nsw, workload, params, &quant);
      std::printf("%-9s %7zu %9.4f %12.0f %14zu\n",
                  data::PrecisionName(precision), rerank, row.recall,
                  row.sim_qps, quantizer.code_bytes());
      bench::Appendf(json,
                     ",\n    {\"precision\": \"%s\", \"rerank_factor\": %zu, "
                     "\"recall\": %.4f, \"sim_qps\": %.0f, "
                     "\"resident_bytes_per_vector\": %zu}",
                     data::PrecisionName(precision), rerank, row.recall,
                     row.sim_qps, quantizer.code_bytes());
    }
  }
  json += "\n  ]\n}\n";

  return bench::WriteReport(argc, argv, "BENCH_quantized.json", json);
}
