#ifndef GANNS_GPUSIM_DEVICE_H_
#define GANNS_GPUSIM_DEVICE_H_

#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "gpusim/block.h"
#include "gpusim/cost_model.h"

namespace ganns {
namespace gpusim {

/// Static description of the simulated device. Defaults approximate the
/// paper's NVIDIA Quadro P5000 (20 SMs, 2560 cores, 16 GB): with 32-lane
/// blocks and latency hiding, the card keeps on the order of a thousand
/// blocks in flight, which `concurrent_blocks` models as identical execution
/// slots.
struct DeviceSpec {
  int num_sms = 20;
  int concurrent_blocks = 1280;             ///< Resident blocks (slots).
  std::size_t shared_memory_per_block = 48 * 1024;
  double clock_ghz = 1.0;                   ///< Cycles -> seconds conversion.
  CostParams cost;
};

/// Aggregate result of one kernel launch.
struct KernelStats {
  /// Simulated kernel duration in cycles: blocks are assigned round-robin to
  /// the device's execution slots and the kernel ends when the busiest slot
  /// drains (plus the fixed launch overhead).
  double sim_cycles = 0;
  /// Total cycles charged per category, summed over all blocks (used for the
  /// Figure 7 breakdown; note these sum to *work*, not duration).
  std::array<double, kNumCostCategories> work_cycles = {};
  /// Host wall time spent simulating, for reference only.
  double wall_seconds = 0;
  int grid_size = 0;

  double work_total() const {
    double sum = 0;
    for (double c : work_cycles) sum += c;
    return sum;
  }
};

/// The simulated GPU. Owns the running timeline: every Launch appends its
/// simulated duration, so a multi-kernel algorithm (e.g. GGraphCon's merge
/// loop) accumulates end-to-end device time exactly as back-to-back kernels
/// on a real stream would.
class Device {
 public:
  explicit Device(const DeviceSpec& spec = DeviceSpec());

  const DeviceSpec& spec() const { return spec_; }

  /// Runs `grid_size` independent blocks of `block_lanes` lanes. The body is
  /// invoked once per block with that block's context; bodies may run
  /// concurrently on host threads, so they must only touch disjoint global
  /// state (all kernels in this library do). Returns this launch's stats and
  /// appends them to the timeline. `name` labels the launch in traces and
  /// metrics.
  KernelStats Launch(const char* name, int grid_size, int block_lanes,
                     const std::function<void(BlockContext&)>& body);

  /// Unnamed launch (labelled "kernel" in traces).
  KernelStats Launch(int grid_size, int block_lanes,
                     const std::function<void(BlockContext&)>& body) {
    return Launch("kernel", grid_size, block_lanes, body);
  }

  /// Clears the accumulated timeline.
  void ResetTimeline();

  /// Total simulated cycles of all launches since the last reset.
  double timeline_cycles() const { return timeline_cycles_; }

  /// Total simulated seconds of all launches since the last reset.
  double timeline_seconds() const {
    return timeline_cycles_ / (spec_.clock_ghz * 1e9);
  }

  /// Work cycles per category accumulated since the last reset.
  double timeline_work(CostCategory category) const {
    return timeline_work_[static_cast<int>(category)];
  }

  double timeline_work_total() const {
    double sum = 0;
    for (double c : timeline_work_) sum += c;
    return sum;
  }

  /// Converts a cycle count to seconds at this device's clock.
  double CyclesToSeconds(double cycles) const {
    return cycles / (spec_.clock_ghz * 1e9);
  }

  /// Busy cycles per SM accumulated since the last reset. Execution slots
  /// map round-robin onto SMs (slot s lives on SM s % num_sms), matching
  /// how the hardware distributes resident blocks.
  std::span<const double> sm_cycles() const { return sm_cycles_; }

  /// Load-imbalance gauge over the per-SM busy cycles: max / mean, 1.0 for
  /// a perfectly balanced device, 0 before any launch. This is the
  /// underutilization signal of §III-A made measurable.
  double SmLoadImbalance() const;

  /// Monotonic cycle clock that survives ResetTimeline — the time base for
  /// trace events, so spans from successive builds on one device do not
  /// overlap after a timeline reset.
  double trace_cycles() const { return trace_cycles_; }

 private:
  KernelStats Finish(const char* name, int grid_size,
                     std::vector<double>&& block_cycles, const CostModel& work,
                     std::vector<std::vector<BlockTraceEvent>>&& block_events);

  DeviceSpec spec_;
  double timeline_cycles_ = 0;
  double trace_cycles_ = 0;
  std::array<double, kNumCostCategories> timeline_work_ = {};
  std::vector<double> sm_cycles_;
  bool trace_tracks_named_ = false;
};

}  // namespace gpusim
}  // namespace ganns

#endif  // GANNS_GPUSIM_DEVICE_H_
