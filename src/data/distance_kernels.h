#ifndef GANNS_DATA_DISTANCE_KERNELS_H_
#define GANNS_DATA_DISTANCE_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/types.h"

// Internal header of the host distance kernels: the portable set
// (distance.cc) and the hand-written AVX2 set (distance_avx2.cc). Not part
// of the public API — include data/distance.h or data/quantize.h instead.
// Tests and bench/micro_distance include it to reach both sets.
//
// Determinism contract (see DESIGN.md "Host performance layer"): every
// kernel accumulates into kDistanceStripes partial sums, where stripe s owns
// the elements with index i % kDistanceStripes == s in index order, and the
// partial sums are combined with CombineStripes(). The kernel translation
// units are compiled with -ffp-contract=off so no kernel fuses a multiply
// and an add. Under those two rules the AVX2 kernels perform exactly the
// same float operations in exactly the same order as the portable ones, so
// both sets agree bit for bit on every input (enforced by
// tests/distance_kernel_test.cc).

namespace ganns {
namespace data {
namespace internal {

/// Number of parallel accumulators: one 8-lane AVX2 register, or eight
/// scalar partial sums — the same arithmetic.
inline constexpr std::size_t kDistanceStripes = 8;

/// Fixed reduction tree over the stripe accumulators. The shape matches the
/// natural 256-bit -> 128-bit -> 64-bit -> 32-bit halving reduction, so a
/// SIMD kernel can use register shuffles and still match bit for bit:
///   ((s0+s4) + (s2+s6)) + ((s1+s5) + (s3+s7))
inline float CombineStripes(const float acc[kDistanceStripes]) {
  const float s04 = acc[0] + acc[4];
  const float s15 = acc[1] + acc[5];
  const float s26 = acc[2] + acc[6];
  const float s37 = acc[3] + acc[7];
  return (s04 + s26) + (s15 + s37);
}

/// Float kernel: squared L2 (l2) or the plain inner product (dot) of two
/// `dim`-length vectors. The cosine adjustment 1 - dot happens above the
/// kernel layer.
using PairKernel = Dist (*)(const float* a, const float* b, std::size_t dim);
/// SQ8 asymmetric kernel: the float query against a code dequantized on the
/// fly as min[i] + code[i] * scale[i] (the uint8 -> float conversion is
/// exact), squared L2 or inner product.
using Sq8Kernel = Dist (*)(const float* query, const std::uint8_t* code,
                           const float* min, const float* scale,
                           std::size_t dim);

/// One complete set of host kernels; every distance entry point reads the
/// active set.
struct KernelSet {
  const char* name;
  PairKernel l2;
  PairKernel dot;
  Sq8Kernel sq8_l2;
  Sq8Kernel sq8_dot;
};

/// The portable striped kernels ("scalar"); run on every CPU.
extern const KernelSet kPortableKernels;

#if defined(GANNS_DISTANCE_HAVE_AVX2)
extern const KernelSet kAvx2Kernels;
#endif

/// The AVX2 set ("avx2") when this build compiled it and the CPU supports
/// AVX2, else nullptr.
const KernelSet* Avx2Kernels();

/// The set the distance entry points read: a copy of the AVX2 set when
/// Avx2Kernels() has one, else of the portable set. Picked once, at first
/// use.
const KernelSet& ActiveKernels();

/// Test and bench hook: routes every distance entry point through `set`
/// until destruction, then restores the previous set. Not meant to race
/// with searches in flight.
class ScopedKernelSet {
 public:
  explicit ScopedKernelSet(const KernelSet& set);
  ~ScopedKernelSet();
  ScopedKernelSet(const ScopedKernelSet&) = delete;
  ScopedKernelSet& operator=(const ScopedKernelSet&) = delete;

 private:
  KernelSet previous_;
};

}  // namespace internal
}  // namespace data
}  // namespace ganns

#endif  // GANNS_DATA_DISTANCE_KERNELS_H_
