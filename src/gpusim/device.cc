#include "gpusim/device.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ganns {
namespace gpusim {

Device::Device(const DeviceSpec& spec) : spec_(spec) {
  GANNS_CHECK(spec_.num_sms >= 1);
  GANNS_CHECK(spec_.concurrent_blocks >= 1);
  GANNS_CHECK(spec_.clock_ghz > 0);
  sm_cycles_.assign(static_cast<std::size_t>(spec_.num_sms), 0.0);
}

KernelStats Device::Launch(const char* name, int grid_size, int block_lanes,
                           const std::function<void(BlockContext&)>& body) {
  GANNS_CHECK(grid_size >= 0);
  if (grid_size == 0) return KernelStats{};
  WallTimer timer;

  const bool tracing = obs::TracingEnabled();
  std::vector<double> block_cycles(grid_size, 0.0);
  std::vector<CostModel> block_costs(grid_size);
  std::vector<std::vector<BlockTraceEvent>> block_events(
      tracing ? static_cast<std::size_t>(grid_size) : 0);

  ThreadPool::Global().ParallelFor(
      static_cast<std::size_t>(grid_size), [&](std::size_t b) {
        BlockContext block(static_cast<int>(b), block_lanes,
                           spec_.shared_memory_per_block, &spec_.cost,
                           tracing ? &block_events[b] : nullptr);
        body(block);
        block_cycles[b] = block.cost().total_cycles();
        block_costs[b] = block.cost();
      });

  CostModel work;
  for (const CostModel& c : block_costs) work.Add(c);
  KernelStats stats = Finish(name, grid_size, std::move(block_cycles), work,
                             std::move(block_events));
  // Read after Finish: the launch's host time includes the serial trace
  // rebasing and bookkeeping, not only the parallel block bodies.
  stats.wall_seconds = timer.Seconds();
  return stats;
}

KernelStats Device::Finish(
    const char* name, int grid_size, std::vector<double>&& block_cycles,
    const CostModel& work,
    std::vector<std::vector<BlockTraceEvent>>&& block_events) {
  // Round-robin the blocks over the device's execution slots; the kernel
  // completes when the busiest slot drains. This captures both the
  // load-imbalance ("max over units") effect and the saturation point where
  // additional blocks queue behind resident ones.
  const int slots = std::min(spec_.concurrent_blocks, grid_size);
  std::vector<double> slot_cycles(slots, 0.0);
  for (int b = 0; b < grid_size; ++b) {
    slot_cycles[b % slots] += block_cycles[b];
  }
  KernelStats stats;
  stats.grid_size = grid_size;
  stats.sim_cycles = *std::max_element(slot_cycles.begin(), slot_cycles.end()) +
                     spec_.cost.launch_overhead;
  for (int i = 0; i < kNumCostCategories; ++i) {
    stats.work_cycles[i] = work.cycles(static_cast<CostCategory>(i));
    timeline_work_[i] += stats.work_cycles[i];
  }

  // Per-SM busy-cycle accounting: slot s resides on SM s % num_sms. Costs
  // nothing measurable (one pass over the slots) and never feeds back into
  // simulated time, so it runs unconditionally.
  const std::size_t num_sms = sm_cycles_.size();
  for (int s = 0; s < slots; ++s) {
    sm_cycles_[static_cast<std::size_t>(s) % num_sms] += slot_cycles[s];
  }

  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& launches = registry.GetCounter("gpusim.launches");
    static obs::Counter& blocks = registry.GetCounter("gpusim.blocks");
    static obs::Gauge& sm_load_imbalance =
        registry.GetGauge("gpusim.sm_load_imbalance");
    launches.Add(1);
    blocks.Add(static_cast<std::uint64_t>(grid_size));
    sm_load_imbalance.Set(SmLoadImbalance());
  }

  if (!block_events.empty() || obs::TracingEnabled()) {
    const double launch_start = trace_cycles_;
    std::vector<obs::TraceEvent> events;
    events.reserve(2 + block_events.size() * 4);

    obs::TraceEvent kernel_span;
    kernel_span.name = obs::InternName(name);
    kernel_span.pid = obs::kDevicePid;
    kernel_span.tid = obs::kKernelTrack;
    kernel_span.ts = launch_start;
    kernel_span.dur = stats.sim_cycles;
    kernel_span.arg = grid_size;
    kernel_span.arg_name = obs::InternName("grid");
    events.push_back(kernel_span);

    // Rebase every block onto the device timeline: a block starts after the
    // launch overhead plus the cycles of earlier blocks in its slot. All
    // inputs are simulated quantities, so placement is deterministic.
    static const obs::NameId kBlockName = obs::InternName("block");
    static const obs::NameId kBlockArg = obs::InternName("block");
    std::vector<double> slot_offsets(slots, 0.0);
    for (int b = 0; b < grid_size; ++b) {
      const int slot = b % slots;
      const int sm = slot % static_cast<int>(num_sms);
      const double start =
          launch_start + spec_.cost.launch_overhead + slot_offsets[slot];
      obs::TraceEvent block_span;
      block_span.name = kBlockName;
      block_span.pid = obs::kDevicePid;
      block_span.tid = obs::FirstSmTrack() + sm;
      block_span.ts = start;
      block_span.dur = block_cycles[b];
      block_span.arg = b;
      block_span.arg_name = kBlockArg;
      if (block_span.dur > 0) events.push_back(block_span);
      if (static_cast<std::size_t>(b) < block_events.size()) {
        for (const BlockTraceEvent& e : block_events[b]) {
          obs::TraceEvent span;
          span.name = e.name;
          span.pid = obs::kDevicePid;
          span.tid = block_span.tid;
          span.ts = start + e.begin_cycles;
          span.dur = e.end_cycles - e.begin_cycles;
          span.arg = e.arg;
          span.arg_name = e.arg_name;
          events.push_back(span);
        }
      }
      slot_offsets[slot] += block_cycles[b];
    }

    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (!trace_tracks_named_) {
      trace_tracks_named_ = true;
      recorder.SetThreadName(obs::kDevicePid, obs::kKernelTrack, "kernels");
      for (int sm = 0; sm < spec_.num_sms; ++sm) {
        recorder.SetThreadName(obs::kDevicePid, obs::FirstSmTrack() + sm,
                               "SM " + std::to_string(sm));
      }
    }
    recorder.AddBatch(std::move(events));
  }

  timeline_cycles_ += stats.sim_cycles;
  trace_cycles_ += stats.sim_cycles;
  return stats;
}

double Device::SmLoadImbalance() const {
  double total = 0;
  double max = 0;
  for (double c : sm_cycles_) {
    total += c;
    max = std::max(max, c);
  }
  if (total <= 0) return 0;
  const double mean = total / static_cast<double>(sm_cycles_.size());
  return max / mean;
}

void Device::ResetTimeline() {
  timeline_cycles_ = 0;
  timeline_work_.fill(0.0);
  sm_cycles_.assign(sm_cycles_.size(), 0.0);
}

}  // namespace gpusim
}  // namespace ganns
