// Bulk-synchronous kernel scheduling on the virtual GPU.
//
// FastZ's parallelism model assigns one seed-extension DP to one warp
// (Section 3.1.1). A kernel is a batch of such warp-tasks; it completes
// only when every task has (bulk synchrony), which is precisely what makes
// intermingled long and short alignments a load-imbalance problem and
// motivates length binning (Section 3.3). The simulator list-schedules the
// tasks onto the device's execution slots and reports the makespan together
// with the memory-bandwidth roofline time — whichever dominates is the
// kernel's modeled time. Several launches on streams are costed together by
// run_pipeline, the one multi-launch schedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device_spec.hpp"

namespace fastz::gpusim {

struct KernelTag;    // gpusim/profiler.hpp
struct HwCounters;   // gpusim/profiler.hpp

// Cost record of one warp's work, produced by actually executing the
// functional kernel for one seed extension.
struct WarpTask {
  // Warp instructions before divergence derating (DP steps x ops/cell).
  std::uint64_t warp_instructions = 0;
  // Global-memory bytes this task moves.
  std::uint64_t mem_bytes = 0;
};
// The struct is deliberately two words: derive() builds, packs, and sorts
// vectors of these on its hot path, and growing it measurably
// slows the unprofiled sweep. Per-level traffic attribution therefore
// rides on the *launch* (KernelTag::traffic, filled only while a
// ProfilerSession is installed), not on the task.

struct KernelCost {
  double time_s = 0.0;          // max(compute makespan, memory roofline) + launch
  double compute_time_s = 0.0;  // list-schedule makespan
  double memory_time_s = 0.0;   // aggregate bytes / sustained bandwidth
  double launch_overhead_s = 0.0;
  std::uint64_t tasks = 0;
  std::uint64_t warp_instructions = 0;
  std::uint64_t mem_bytes = 0;

  bool memory_bound() const noexcept { return memory_time_s > compute_time_s; }
};

// One launch of a persistently-fed stream schedule (run_pipeline): its task
// list, the device allocation it holds while in flight, and the indices of
// earlier launches that must retire before it may start (the batched
// dispatcher chains each executor launch after the inspector launch that
// produced its seeds). Tags ride in a separate span.
struct StreamLaunch {
  std::vector<WarpTask> tasks;
  std::uint64_t resident_bytes = 0;
  std::vector<std::uint32_t> deps;
};

// Result of run_pipeline: the end-to-end cost plus each launch's standalone
// cost and its interval on the modeled timeline (seconds from the call's
// start, already rescaled when a device-capacity roofline stretched the
// schedule). The caller splits phase times from the intervals.
struct PipelineRun {
  KernelCost total;                   // time_s = modeled end-to-end makespan
  std::vector<KernelCost> launches;   // standalone per-launch costs
  std::vector<double> start_s;
  std::vector<double> end_s;
};

class KernelSimulator {
 public:
  explicit KernelSimulator(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const noexcept { return spec_; }

  // One bulk-synchronous kernel over `tasks`. The tagged overload labels the
  // launch for the profiler (gpusim/profiler.hpp); the untagged one uses a
  // default tag. While a ProfilerSession is installed, each launch records
  // per-kernel/per-SM HwCounters and its simulated-timeline interval.
  KernelCost run_kernel(std::span<const WarpTask> tasks) const;
  KernelCost run_kernel(std::span<const WarpTask> tasks, const KernelTag& tag) const;

  // Persistently-fed stream schedule over whole launches: each launch is
  // costed standalone (its own bulk-synchronous tail and launch overhead)
  // and greedily placed on the earliest-free of `streams` lanes, no earlier
  // than its dependencies' ends, and no earlier than the point where the
  // still-resident launches leave `memory_budget` room for its allocation
  // (0 = unlimited). Device-wide capacity floors (sustained issue
  // throughput, memory bandwidth over the aggregate work) then stretch the
  // schedule uniformly when the lanes alone would exceed what one device
  // can co-issue. `tags` labels the launches: empty = default tags, one
  // entry = a shared base tag (its traffic attributed to the first launch
  // only), otherwise one tag per launch; stream ids are overwritten with the
  // assigned lane. The profiled and unprofiled paths model identical costs.
  PipelineRun run_pipeline(std::span<const StreamLaunch> launches,
                           std::uint32_t streams, std::uint64_t memory_budget,
                           std::span<const KernelTag> tags = {}) const;

  // Execution slots the schedule distributes tasks over.
  std::uint32_t slot_count() const noexcept {
    return spec_.sm_count * spec_.issue_per_sm;
  }

  // Modeled wall-clock of one task running alone.
  double task_time_s(const WarpTask& task) const noexcept;

 private:
  // Pure scheduling/cost computation. When `counters` is non-null (an
  // installed ProfilerSession), also derives the modeled hardware counters
  // — per-SM busy time, issued/stalled warp-cycles, achieved occupancy.
  // The profiled variant lives in its own (cold) function so the unprofiled
  // scheduling loop stays as small as it was before the profiler existed.
  KernelCost simulate(std::span<const WarpTask> tasks, HwCounters* counters) const;
  KernelCost simulate_profiled(std::span<const WarpTask> tasks, HwCounters& counters) const;

  DeviceSpec spec_;
};

}  // namespace fastz::gpusim
