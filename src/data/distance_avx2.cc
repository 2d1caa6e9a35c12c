// AVX2 kernel set: one 8-lane accumulator register holding the eight
// canonical stripes directly. Compiled with -mavx2 -ffp-contract=off —
// contraction stays off so mul+add never fuses into FMA and every kernel
// matches its portable twin in distance.cc bit for bit (the FMA's single
// rounding would otherwise diverge). Built only where the compiler accepts
// -mavx2; picked at run time only where the CPU has AVX2.
#include <immintrin.h>

#include "data/distance_kernels.h"

namespace ganns {
namespace data {
namespace internal {
namespace {

/// Spills the vector accumulator to the canonical stripe array, folds in the
/// remainder elements [i, dim), and applies the fixed combine tree.
template <typename TailTerm>
Dist FinishAvx2(__m256 acc_v, const float* a, const float* b, std::size_t i,
                std::size_t dim, TailTerm&& term) {
  alignas(32) float acc[kDistanceStripes];
  _mm256_store_ps(acc, acc_v);
  for (std::size_t s = 0; i < dim; ++i, ++s) acc[s] += term(a[i], b[i]);
  return CombineStripes(acc);
}

Dist L2Avx2(const float* a, const float* b, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    const __m256 diff =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  return FinishAvx2(acc, a, b, i, dim, [](float x, float y) {
    const float diff = x - y;
    return diff * diff;
  });
}

Dist DotAvx2(const float* a, const float* b, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  return FinishAvx2(acc, a, b, i, dim,
                    [](float x, float y) { return x * y; });
}

// SQ8: dequantize eight codes per step (exact uint8 -> float conversion),
// then the float kernels' diff/dot accumulation.

__m256 DequantAvx2(const std::uint8_t* code, const float* min,
                   const float* scale, std::size_t i) {
  const __m256 code_f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(code + i))));
  return _mm256_add_ps(_mm256_loadu_ps(min + i),
                       _mm256_mul_ps(code_f, _mm256_loadu_ps(scale + i)));
}

/// FinishAvx2 for the SQ8 kernels: the remainder is dequantized first.
template <typename TailTerm>
Dist FinishSq8Avx2(__m256 acc_v, const float* query,
                   const std::uint8_t* code, const float* min,
                   const float* scale, std::size_t i, std::size_t dim,
                   TailTerm&& term) {
  alignas(32) float acc[kDistanceStripes];
  _mm256_store_ps(acc, acc_v);
  for (std::size_t s = 0; i < dim; ++i, ++s) {
    const float value = min[i] + static_cast<float>(code[i]) * scale[i];
    acc[s] += term(query[i], value);
  }
  return CombineStripes(acc);
}

Dist Sq8L2Avx2(const float* query, const std::uint8_t* code, const float* min,
               const float* scale, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    const __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(query + i),
                                      DequantAvx2(code, min, scale, i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
  }
  return FinishSq8Avx2(acc, query, code, min, scale, i, dim,
                       [](float q, float v) {
                         const float diff = q - v;
                         return diff * diff;
                       });
}

Dist Sq8DotAvx2(const float* query, const std::uint8_t* code,
                const float* min, const float* scale, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(query + i),
                                           DequantAvx2(code, min, scale, i)));
  }
  return FinishSq8Avx2(acc, query, code, min, scale, i, dim,
                       [](float q, float v) { return q * v; });
}

}  // namespace

const KernelSet kAvx2Kernels = {"avx2", L2Avx2, DotAvx2, Sq8L2Avx2,
                                Sq8DotAvx2};

}  // namespace internal
}  // namespace data
}  // namespace ganns
