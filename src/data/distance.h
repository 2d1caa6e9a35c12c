#ifndef GANNS_DATA_DISTANCE_H_
#define GANNS_DATA_DISTANCE_H_

#include <cstddef>
#include <span>

#include "common/types.h"

namespace ganns {
namespace data {

class Dataset;
enum class Metric;

/// Host distance kernels. The simulator charges distance *cycles* through
/// gpusim::Warp::ChargeDistance regardless of which host kernel computes the
/// value, so the kernels affect wall-clock time only — never simulated time
/// or results. There are two kernel sets, the portable one and an AVX2 one,
/// picked once by the CPU; both return the same float for the same input
/// (see distance_kernels.h for the contract), so results do not depend on
/// the host's ISA.

/// Raw-pointer distance between two `dim`-length vectors under `metric`.
Dist ComputeDistance(Metric metric, const float* a, const float* b,
                     std::size_t dim);

/// Raw inner product of two `dim`-length vectors, with no cosine
/// adjustment. Used by the PQ LUT builder (data/quantize.h): partial dots
/// over subspaces follow the same determinism contract as full distances.
Dist ComputeInnerProduct(const float* a, const float* b, std::size_t dim);

/// Batched distances from `query` to base[ids[i]] for every i, written to
/// out[i]. Reads the active kernel once, walks the dataset's padded
/// aligned rows directly, and prefetches the next row — the preferred entry
/// point for the per-iteration bulk-distance phases (GANNS phase 3, SONG
/// stage 2). `out.size()` must be at least `ids.size()`.
void DistanceMany(const Dataset& base, std::span<const VertexId> ids,
                  std::span<const float> query, std::span<Dist> out);

/// Batched distances from `query` to the contiguous id range
/// [first, first + count), written to out[0..count). Streams the base rows
/// in storage order — the brute-force ground-truth access pattern.
void DistanceRange(const Dataset& base, VertexId first, std::size_t count,
                   std::span<const float> query, std::span<Dist> out);

}  // namespace data
}  // namespace ganns

#endif  // GANNS_DATA_DISTANCE_H_
