#ifndef GANNS_GPUSIM_WARP_H_
#define GANNS_GPUSIM_WARP_H_

#include <bit>
#include <cstdint>
#include <span>

#include "common/logging.h"
#include "common/types.h"
#include "gpusim/cost_model.h"

namespace ganns {
namespace gpusim {

/// Number of lanes in a hardware warp (CUDA warpSize).
inline constexpr int kWarpSize = 32;

/// Simulated warp-synchronous execution context.
///
/// A Warp stands in for the `n_t` cooperating threads of a thread block
/// (the paper uses one warp of up to 32 threads per block; this simulator
/// enforces `1 <= num_lanes <= 32`). Algorithms call its primitives in the
/// same order a CUDA kernel would issue warp-level instructions; the warp
/// *computes* the exact result with tight scalar loops and *charges* the
/// cost model the number of lock-step steps the real warp would take, so the
/// simulated time matches the complexity analysis in §III-C / §IV-C of the
/// paper: `O(work / n_t)` per lane-strided pass plus `O(log n_t)` per
/// shuffle reduction.
class Warp {
 public:
  /// Binds the warp to a cost model. `num_lanes` is n_t in the paper.
  Warp(int num_lanes, CostModel* cost) : num_lanes_(num_lanes), cost_(cost) {
    GANNS_CHECK(num_lanes >= 1 && num_lanes <= kWarpSize);
    GANNS_CHECK(cost != nullptr);
  }

  int num_lanes() const { return num_lanes_; }
  CostModel& cost() { return *cost_; }

  /// Number of lock-step steps a lane-strided pass over `n` items takes.
  double StepsFor(std::size_t n) const {
    return static_cast<double>((n + num_lanes_ - 1) / num_lanes_);
  }

  /// __ballot_sync: evaluates `pred(lane)` on lanes [0, n) (n <= 32) and
  /// returns the bitmask of lanes whose predicate is true. Charges one
  /// shuffle-class step. Lanes >= num_lanes() are simulated as sequential
  /// rounds (the caller normally keeps n <= num_lanes()).
  template <typename Pred>
  std::uint32_t BallotSync(int n, Pred&& pred) {
    GANNS_CHECK(n >= 0 && n <= kWarpSize);
    std::uint32_t mask = 0;
    for (int lane = 0; lane < n; ++lane) {
      if (pred(lane)) mask |= (1u << lane);
    }
    cost_->Charge(CostCategory::kDataStructure,
                  StepsFor(static_cast<std::size_t>(n)) * params_->shfl_step);
    return mask;
  }

  /// __ffs: index of the least-significant set bit, or -1 if mask == 0.
  /// (CUDA returns 1-based positions; we return 0-based for direct indexing.)
  static int Ffs(std::uint32_t mask) {
    if (mask == 0) return -1;
    return std::countr_zero(mask);
  }

  /// Lane-strided parallel loop: runs `fn(i)` for i in [0, n). Models
  ///   for (i = lane; i < n; i += n_t) fn(i);
  /// Charges ceil(n / n_t) steps of `cycles_per_step` to `category`.
  template <typename Fn>
  void ParallelFor(std::size_t n, CostCategory category, double cycles_per_step,
                   Fn&& fn) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    cost_->Charge(category, StepsFor(n) * cycles_per_step);
  }

  /// Charges the cost of one warp-cooperative load of `n` consecutive words
  /// from global memory, coalesced into ceil(n / n_t) transactions (fewer
  /// lanes issue narrower transactions, so memory time also scales with n_t
  /// — the sub-linear part of the Figure 10 distance-time curve).
  void ChargeGlobalLoad(std::size_t n_words, CostCategory category) {
    cost_->Charge(category, StepsFor(n_words) * params_->global_transaction);
  }

  /// Charges `n` scalar operations executed by a single lane (SONG's host
  /// thread). No amortization over the warp: this is the serial bottleneck.
  void ChargeHostOps(double n_ops, CostCategory category) {
    cost_->Charge(category, n_ops * params_->host_op);
  }

  /// Charges a warp-parallel binary search: `searches` independent lookups in
  /// a sorted array of length `len`, lane-strided over the warp.
  void ChargeBinarySearch(std::size_t searches, std::size_t len,
                          CostCategory category) {
    const double depth = len <= 1 ? 1.0 : std::bit_width(len - 1);
    cost_->Charge(category,
                  StepsFor(searches) * depth *
                      (params_->alu_step + params_->shared_access));
  }

  /// One distance evaluation over `words` 32-bit words — dim for a float
  /// row, ceil(code_bytes / 4) for a packed code (data::QueryDistance::words):
  /// charges the load (global memory), ceil(words / n_t) lane-strided
  /// multiply-add steps and log2(n_t) shuffle-reduction steps
  /// (__shfl_down_sync), all to kDistance. The caller computes the value.
  void ChargeDistance(std::size_t words) {
    ChargeGlobalLoad(words, CostCategory::kDistance);
    const double fma_steps = StepsFor(words);
    const double reduce_steps =
        num_lanes_ <= 1 ? 0.0
                        : static_cast<double>(std::bit_width(
                              static_cast<unsigned>(num_lanes_ - 1)));
    cost_->Charge(CostCategory::kDistance,
                  fma_steps * params_->alu_step +
                      reduce_steps * params_->shfl_step);
  }

  /// One-time per-query LUT construction for PQ asymmetric distances:
  /// streams `words` codebook words from global memory and performs one
  /// lane-strided multiply-accumulate step per word. Charged once before
  /// the traversal loop, amortized over every code distance that follows.
  void ChargeLutBuild(std::size_t words) {
    if (words == 0) return;
    ChargeGlobalLoad(words, CostCategory::kDistance);
    cost_->Charge(CostCategory::kDistance, StepsFor(words) * params_->alu_step);
  }

  /// Installs the cost parameters (done by the owning BlockContext).
  void set_params(const CostParams* params) { params_ = params; }
  const CostParams& params() const { return *params_; }

 private:
  int num_lanes_;
  CostModel* cost_;
  const CostParams* params_ = &kDefaultParams;

  static const CostParams kDefaultParams;
};

}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_WARP_H_
