#include "data/distance.h"

#include "common/logging.h"
#include "data/dataset.h"
#include "data/distance_kernels.h"

namespace ganns {
namespace data {
namespace internal {
namespace {

// Portable kernels. The stripe loops are written exactly in the shape the
// AVX2 kernels implement (8 independent accumulators, remainder elements
// appended to stripe i % 8, fixed combine tree), so the compiler may
// auto-vectorize them freely without changing the result: IEEE semantics
// are fixed by the accumulation order, not by the register width.

Dist L2Portable(const float* a, const float* b, std::size_t dim) {
  float acc[kDistanceStripes] = {};
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    for (std::size_t s = 0; s < kDistanceStripes; ++s) {
      const float diff = a[i + s] - b[i + s];
      acc[s] += diff * diff;
    }
  }
  for (std::size_t s = 0; i < dim; ++i, ++s) {
    const float diff = a[i] - b[i];
    acc[s] += diff * diff;
  }
  return CombineStripes(acc);
}

Dist DotPortable(const float* a, const float* b, std::size_t dim) {
  float acc[kDistanceStripes] = {};
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    for (std::size_t s = 0; s < kDistanceStripes; ++s) {
      acc[s] += a[i + s] * b[i + s];
    }
  }
  for (std::size_t s = 0; i < dim; ++i, ++s) {
    acc[s] += a[i] * b[i];
  }
  return CombineStripes(acc);
}

// The SQ8 kernels dequantize each element (min + code * scale) before the
// usual diff/dot accumulation.

Dist Sq8L2Portable(const float* query, const std::uint8_t* code,
                   const float* min, const float* scale, std::size_t dim) {
  float acc[kDistanceStripes] = {};
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    for (std::size_t s = 0; s < kDistanceStripes; ++s) {
      const float value =
          min[i + s] + static_cast<float>(code[i + s]) * scale[i + s];
      const float diff = query[i + s] - value;
      acc[s] += diff * diff;
    }
  }
  for (std::size_t s = 0; i < dim; ++i, ++s) {
    const float value = min[i] + static_cast<float>(code[i]) * scale[i];
    const float diff = query[i] - value;
    acc[s] += diff * diff;
  }
  return CombineStripes(acc);
}

Dist Sq8DotPortable(const float* query, const std::uint8_t* code,
                    const float* min, const float* scale, std::size_t dim) {
  float acc[kDistanceStripes] = {};
  std::size_t i = 0;
  for (; i + kDistanceStripes <= dim; i += kDistanceStripes) {
    for (std::size_t s = 0; s < kDistanceStripes; ++s) {
      const float value =
          min[i + s] + static_cast<float>(code[i + s]) * scale[i + s];
      acc[s] += query[i + s] * value;
    }
  }
  for (std::size_t s = 0; i < dim; ++i, ++s) {
    const float value = min[i] + static_cast<float>(code[i]) * scale[i];
    acc[s] += query[i] * value;
  }
  return CombineStripes(acc);
}

/// The active set, picked at first use. Held by value, so a distance call
/// reads its kernel pointer with one load.
KernelSet& ActiveSlot() {
  static KernelSet active = [] {
    const KernelSet* avx2 = Avx2Kernels();
    return avx2 != nullptr ? *avx2 : kPortableKernels;
  }();
  return active;
}

}  // namespace

const KernelSet kPortableKernels = {"scalar", L2Portable, DotPortable,
                                    Sq8L2Portable, Sq8DotPortable};

const KernelSet* Avx2Kernels() {
#if defined(GANNS_DISTANCE_HAVE_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
  return nullptr;
}

const KernelSet& ActiveKernels() { return ActiveSlot(); }

ScopedKernelSet::ScopedKernelSet(const KernelSet& set)
    : previous_(ActiveSlot()) {
  ActiveSlot() = set;
}

ScopedKernelSet::~ScopedKernelSet() { ActiveSlot() = previous_; }

}  // namespace internal

Dist ComputeDistance(Metric metric, const float* a, const float* b,
                     std::size_t dim) {
  const internal::KernelSet& set = internal::ActiveKernels();
  if (metric == Metric::kL2) return set.l2(a, b, dim);
  return 1.0f - set.dot(a, b, dim);
}

Dist ComputeInnerProduct(const float* a, const float* b, std::size_t dim) {
  return internal::ActiveKernels().dot(a, b, dim);
}

void DistanceMany(const Dataset& base, std::span<const VertexId> ids,
                  std::span<const float> query, std::span<Dist> out) {
  GANNS_DCHECK(out.size() >= ids.size());
  GANNS_DCHECK(query.size() == base.dim());
  const internal::KernelSet& set = internal::ActiveKernels();
  const internal::PairKernel kernel =
      base.metric() == Metric::kL2 ? set.l2 : set.dot;
  const float* data = base.row_data();
  const std::size_t stride = base.padded_dim();
  const std::size_t dim = base.dim();
  const float* q = query.data();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i + 1 < ids.size()) {
      __builtin_prefetch(data + std::size_t{ids[i + 1]} * stride);
    }
    GANNS_DCHECK(std::size_t{ids[i]} < base.size());
    out[i] = kernel(data + std::size_t{ids[i]} * stride, q, dim);
  }
  if (base.metric() == Metric::kCosine) {
    for (std::size_t i = 0; i < ids.size(); ++i) out[i] = 1.0f - out[i];
  }
}

void DistanceRange(const Dataset& base, VertexId first, std::size_t count,
                   std::span<const float> query, std::span<Dist> out) {
  GANNS_DCHECK(out.size() >= count);
  GANNS_DCHECK(query.size() == base.dim());
  GANNS_DCHECK(std::size_t{first} + count <= base.size());
  const internal::KernelSet& set = internal::ActiveKernels();
  const internal::PairKernel kernel =
      base.metric() == Metric::kL2 ? set.l2 : set.dot;
  const float* row = base.row_data() + std::size_t{first} * base.padded_dim();
  const std::size_t stride = base.padded_dim();
  const std::size_t dim = base.dim();
  const float* q = query.data();
  for (std::size_t i = 0; i < count; ++i, row += stride) {
    __builtin_prefetch(row + stride);
    out[i] = kernel(row, q, dim);
  }
  if (base.metric() == Metric::kCosine) {
    for (std::size_t i = 0; i < count; ++i) out[i] = 1.0f - out[i];
  }
}

}  // namespace data
}  // namespace ganns
