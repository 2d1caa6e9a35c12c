// Wall-clock microbenchmark of the host distance-kernel layer.
//
// Unlike every other bench in this directory, nothing here is simulated:
// this measures real host nanoseconds per distance, which is what the SIMD
// layer actually buys (simulated device cycles are charged by the cost model
// and are identical across kernel variants by construction).
//
// Variants, per (dim, metric):
//   baseline_scalar  - the pre-SIMD reference loop: one sequential
//                      accumulator, which also blocks compiler
//                      auto-vectorization of the FP reduction.
//   scalar / avx2    - the pairwise kernel of the portable and the AVX2
//                      kernel set (8-stripe deterministic accumulation); the
//                      avx2 rows appear only on a CPU with AVX2.
//   batched_<active> - DistanceMany over the padded row storage with the set
//                      the CPU picks (the GANNS phase-3 shape).
//   sq8_<set>        - asymmetric int8 distance (dequantize-on-the-fly
//                      against the float query) per kernel set.
//   pq_lut           - product-quantization asymmetric distance: M table
//                      lookups per candidate (LUT built once per query).
//
// Output is one JSON object on stdout, e.g. piped into run_benches.sh's
// bench_output.txt. `speedup` is relative to baseline_scalar at the same
// (dim, metric); `bytes_per_distance` is the candidate-side bytes moved per
// distance evaluation (4 * dim float, dim for SQ8, M for PQ) — the memory
// traffic the compressed path is shrinking.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "data/dataset.h"
#include "data/distance.h"
#include "data/distance_kernels.h"
#include "data/quantize.h"
#include "data/query_distance.h"
#include "data/synthetic.h"

namespace ganns {
namespace {

// The seed repo's distance loop: single accumulator, strictly sequential.
// Kept verbatim as the honest "before" of this optimization.
float BaselineDistance(data::Metric metric, const float* a, const float* b,
                       std::size_t dim) {
  if (metric == data::Metric::kL2) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < dim; ++i) {
      const float d = a[i] - b[i];
      acc += d * d;
    }
    return acc;
  }
  float dot = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) dot += a[i] * b[i];
  return 1.0f - dot;
}

struct Timing {
  double ns_per_distance = 0;
  float checksum = 0;  // defeats dead-code elimination
};

// Runs `body(reps)` (which must compute `n * reps` distances and return a
// checksum) enough times to exceed ~20ms, repeats 5x, keeps the best.
template <typename Body>
Timing Measure(std::size_t n, const Body& body) {
  using Clock = std::chrono::steady_clock;
  std::size_t reps = 1;
  Timing best;
  best.ns_per_distance = 1e100;
  for (;;) {
    const auto t0 = Clock::now();
    best.checksum = body(reps);
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    if (sec >= 0.02) break;
    reps *= 4;
  }
  for (int trial = 0; trial < 5; ++trial) {
    const auto t0 = Clock::now();
    const float sum = body(reps);
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    const double ns = sec * 1e9 / static_cast<double>(n * reps);
    if (ns < best.ns_per_distance) {
      best.ns_per_distance = ns;
      best.checksum = sum;
    }
  }
  return best;
}

void EmitRecord(bool& first, std::size_t dim, const char* metric,
                const std::string& variant, const Timing& t, double baseline_ns,
                std::size_t bytes_per_distance) {
  std::printf("%s    {\"dim\": %zu, \"metric\": \"%s\", \"variant\": \"%s\", "
              "\"ns_per_distance\": %.3f, \"speedup\": %.2f, "
              "\"bytes_per_distance\": %zu, \"checksum\": %.6g}",
              first ? "" : ",\n", dim, metric, variant.c_str(),
              t.ns_per_distance, baseline_ns / t.ns_per_distance,
              bytes_per_distance, t.checksum);
  first = false;
}

/// The kernel sets this CPU can run: the portable set, then AVX2 if any.
std::vector<const data::internal::KernelSet*> KernelSets() {
  std::vector<const data::internal::KernelSet*> sets = {
      &data::internal::kPortableKernels};
  if (data::internal::Avx2Kernels() != nullptr) {
    sets.push_back(data::internal::Avx2Kernels());
  }
  return sets;
}

void BenchDim(bool& first, std::size_t dim) {
  constexpr std::size_t kRows = 2048;
  Rng rng(99 + dim);
  for (const data::Metric metric : {data::Metric::kL2, data::Metric::kCosine}) {
    const char* metric_name = metric == data::Metric::kL2 ? "l2" : "cosine";
    data::Dataset base("bench", dim, metric);
    std::vector<float> row(dim);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (auto& x : row) x = rng.NextUniform(-1.0f, 1.0f);
      base.Append(row);
    }
    std::vector<float> query(dim);
    for (auto& x : query) x = rng.NextUniform(-1.0f, 1.0f);

    const Timing baseline = Measure(kRows, [&](std::size_t reps) {
      float sum = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < kRows; ++i) {
          sum += BaselineDistance(metric,
                                  base.Point(static_cast<VertexId>(i)).data(),
                                  query.data(), dim);
        }
      }
      return sum;
    });
    const std::size_t float_bytes = dim * sizeof(float);
    EmitRecord(first, dim, metric_name, "baseline_scalar", baseline,
               baseline.ns_per_distance, float_bytes);

    for (const data::internal::KernelSet* set : KernelSets()) {
      const data::internal::ScopedKernelSet scoped(*set);
      const Timing t = Measure(kRows, [&](std::size_t reps) {
        float sum = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (std::size_t i = 0; i < kRows; ++i) {
            sum += data::ComputeDistance(
                metric, base.Point(static_cast<VertexId>(i)).data(),
                query.data(), dim);
          }
        }
        return sum;
      });
      EmitRecord(first, dim, metric_name, set->name, t,
                 baseline.ns_per_distance, float_bytes);
    }

    // Compressed-code variants: what a traversal pays per candidate on the
    // two-stage path, including the bytes it no longer moves.
    {
      data::QuantizerOptions sq8_opts;
      sq8_opts.precision = data::Precision::kSq8;
      const data::Quantizer sq8 = data::Quantizer::Train(base, sq8_opts);
      const data::QuantizedCodes sq8_codes =
          data::QuantizedCodes::EncodeAll(sq8, base);
      const data::SearchQuantization sq8_quant{&sq8, &sq8_codes, 4};
      for (const data::internal::KernelSet* set : KernelSets()) {
        // The evaluator takes its SQ8 kernel from the set active at
        // construction, so build it inside the set's scope.
        const data::internal::ScopedKernelSet scoped(*set);
        const data::QueryDistance ctx(base, query, &sq8_quant);
        const Timing t = Measure(kRows, [&](std::size_t reps) {
          float sum = 0;
          for (std::size_t r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < kRows; ++i) {
              sum += ctx.One(static_cast<VertexId>(i));
            }
          }
          return sum;
        });
        EmitRecord(first, dim, metric_name,
                   std::string("sq8_") + set->name, t,
                   baseline.ns_per_distance, sq8.code_bytes());
      }

      data::QuantizerOptions pq_opts;
      pq_opts.precision = data::Precision::kPq;
      const data::Quantizer pq = data::Quantizer::Train(base, pq_opts);
      const data::QuantizedCodes pq_codes =
          data::QuantizedCodes::EncodeAll(pq, base);
      const data::SearchQuantization pq_quant{&pq, &pq_codes, 4};
      const data::QueryDistance pq_ctx(base, query, &pq_quant);
      const Timing t = Measure(kRows, [&](std::size_t reps) {
        float sum = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (std::size_t i = 0; i < kRows; ++i) {
            sum += pq_ctx.One(static_cast<VertexId>(i));
          }
        }
        return sum;
      });
      EmitRecord(first, dim, metric_name, "pq_lut", t,
                 baseline.ns_per_distance, pq.code_bytes());
    }

    // Batched path with the active set, over the padded aligned rows.
    std::vector<VertexId> ids(kRows);
    for (std::size_t i = 0; i < kRows; ++i) ids[i] = static_cast<VertexId>(i);
    std::vector<Dist> out(kRows);
    const Timing batched = Measure(kRows, [&](std::size_t reps) {
      float sum = 0;
      for (std::size_t r = 0; r < reps; ++r) {
        data::DistanceMany(base, ids, query, out);
        sum += out[kRows - 1];
      }
      return sum;
    });
    EmitRecord(first, dim, metric_name,
               std::string("batched_") + data::internal::ActiveKernels().name,
               batched, baseline.ns_per_distance, float_bytes);
  }
}

}  // namespace
}  // namespace ganns

int main() {
  std::printf("{\n  \"bench\": \"micro_distance\",\n  \"active_kernel\": "
              "\"%s\",\n  \"results\": [\n",
              ganns::data::internal::ActiveKernels().name);
  bool first = true;
  for (const std::size_t dim : {32u, 128u, 960u}) {
    ganns::BenchDim(first, dim);
  }
  std::printf("\n  ]\n}\n");
  return 0;
}
