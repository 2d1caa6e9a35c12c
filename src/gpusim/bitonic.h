#ifndef GANNS_GPUSIM_BITONIC_H_
#define GANNS_GPUSIM_BITONIC_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>

#include "common/logging.h"
#include "gpusim/cost_model.h"
#include "gpusim/warp.h"

namespace ganns {
namespace gpusim {

/// Warp-parallel bitonic sorting network (Batcher, 1968), the phase-(5)/(6)
/// primitive of the GANNS search kernel and the edge-list merger of
/// GGraphCon. Each primitive is split in two halves:
///   * the charge schedule (ChargeBitonicSort / ChargeMergeKeepFirst) issues
///     exactly the Charge calls the network issues on the device — one
///     lane-strided pass per stage plus the merge's load and write-back
///     passes, same amounts in the same order — so simulated cycles are the
///     network's to the last bit;
///   * the host computation is an ordinary sort or two-pointer merge.
/// Precondition: `less` is a strict total order on the values passed — two
/// elements that tie are identical. Under it every correct sort or merge
/// returns exactly the network's output, so the split moves no result.

/// Smallest power of two >= n (n >= 1).
inline std::size_t NextPow2(std::size_t n) {
  return n <= 1 ? 1 : std::size_t{1} << std::bit_width(n - 1);
}

/// Charges a bitonic sort of `len` elements (a power of two):
/// log2(L)*(log2(L)+1)/2 stages, each a lane-strided pass over L/2
/// compare-exchange pairs, to `category`.
inline void ChargeBitonicSort(Warp& warp, std::size_t len,
                              CostCategory category) {
  GANNS_CHECK_MSG((len & (len - 1)) == 0, "bitonic sort length " << len
                                          << " is not a power of two");
  if (len <= 1) return;
  const double per_pair = warp.params().alu_step + 2 * warp.params().shared_access;
  for (std::size_t k = 2; k <= len; k <<= 1) {
    for (std::size_t j = k >> 1; j > 0; j >>= 1) {
      warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
    }
  }
}

/// Charges the bitonic merge of a sorted `a_size` array with a sorted
/// `b_size` array keeping the first a_size: a load pass building the
/// 2 * NextPow2(max) bitonic buffer, log2 of that many merge stages, and the
/// write-back pass over `a`.
inline void ChargeMergeKeepFirst(Warp& warp, std::size_t a_size,
                                 std::size_t b_size, CostCategory category) {
  const std::size_t len = 2 * NextPow2(std::max(a_size, b_size));
  const double shared = warp.params().shared_access;
  const double per_pair = warp.params().alu_step + 2 * shared;
  warp.cost().Charge(category, warp.StepsFor(len) * shared);
  for (std::size_t j = len >> 1; j > 0; j >>= 1) {
    warp.cost().Charge(category, warp.StepsFor(len / 2) * per_pair);
  }
  warp.cost().Charge(category, warp.StepsFor(a_size) * shared);
}

/// Sorts `data` (size a power of two) ascending under `less`, charged as the
/// bitonic network.
template <typename T, typename Less>
void BitonicSort(Warp& warp, std::span<T> data, Less less,
                 CostCategory category) {
  ChargeBitonicSort(warp, data.size(), category);
  std::sort(data.begin(), data.end(), less);
}

/// Host half of MergeSortedKeepFirst: merges ascending `b` into ascending
/// `a`, keeping the a.size() smallest of a ∪ b in `a`. Walks from the back so
/// it needs no buffer, and stops as soon as `b` is exhausted — the untouched
/// prefix of `a` is already in place.
template <typename T, typename Less>
void MergeKeepFirstInPlace(std::span<T> a, std::span<const T> b, Less less) {
  std::size_t i = a.size();  // a[0..i) not yet consumed
  std::size_t j = b.size();  // b[0..j) not yet consumed
  std::size_t out = a.size() + b.size();
  while (j > 0) {
    --out;
    const bool take_b = i == 0 || less(a[i - 1], b[j - 1]);
    const T& next = take_b ? b[--j] : a[--i];
    if (out < a.size()) a[out] = next;
  }
}

/// Merges two ascending sequences `a` and `b` (each already sorted under
/// `less`) and writes the smallest a.size() elements back into `a`, charged
/// as the bitonic merge of the GANNS kernel's candidate update (phase 6) and
/// of GGraphCon step 3. `scratch` is the network's shared-memory buffer: it
/// must hold 2 * NextPow2(max(|a|, |b|)) elements, so the block's
/// shared-memory limit applies as on the device.
template <typename T, typename Less>
void MergeSortedKeepFirst(Warp& warp, std::span<T> a, std::span<const T> b,
                          std::span<T> scratch, Less less,
                          CostCategory category) {
  GANNS_CHECK(scratch.size() >= 2 * NextPow2(std::max(a.size(), b.size())));
  ChargeMergeKeepFirst(warp, a.size(), b.size(), category);
  MergeKeepFirstInPlace(a, b, less);
}

}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_BITONIC_H_
