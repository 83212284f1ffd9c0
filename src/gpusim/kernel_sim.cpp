#include "gpusim/kernel_sim.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "gpusim/profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace fastz::gpusim {

namespace {

// Modeled (virtual-GPU) per-kernel components, recorded as integer
// nanoseconds so they land in the same counter/histogram machinery as the
// functional counters. Gated on the telemetry flag by the caller.
void record_kernel_cost(const KernelCost& cost) {
  // This is the per-launch hot path under concurrent shard workers; the
  // registry lookups take a global mutex, so resolve them once (cached
  // references stay valid for the registry's lifetime) and leave only
  // lock-free adds per launch.
  static auto& reg = telemetry::MetricsRegistry::global();
  static auto& c_kernels = reg.counter("gpusim.kernels");
  static auto& c_compute = reg.counter("gpusim.kernel.compute_ns");
  static auto& c_memory = reg.counter("gpusim.kernel.memory_ns");
  static auto& c_launch = reg.counter("gpusim.kernel.launch_ns");
  static auto& c_instr = reg.counter("gpusim.kernel.warp_instructions");
  static auto& c_bytes = reg.counter("gpusim.kernel.mem_bytes");
  static auto& h_tasks = reg.histogram("gpusim.kernel.tasks");
  c_kernels.add(1);
  c_compute.add(static_cast<std::uint64_t>(cost.compute_time_s * 1e9));
  c_memory.add(static_cast<std::uint64_t>(cost.memory_time_s * 1e9));
  c_launch.add(static_cast<std::uint64_t>(cost.launch_overhead_s * 1e9));
  c_instr.add(cost.warp_instructions);
  c_bytes.add(cost.mem_bytes);
  h_tasks.record(cost.tasks);
}

// Profiled launches also surface as registry counters so a --trace/--json
// bench run carries the profiler's aggregates without the profile file.
void record_profiled_launch(const KernelProfile& profile) {
  if (!telemetry::enabled()) return;
  static auto& reg = telemetry::MetricsRegistry::global();
  static auto& c_kernels = reg.counter("gpusim.profile.kernels");
  static auto& c_issued = reg.counter("gpusim.profile.issued_warp_cycles");
  static auto& c_stalled = reg.counter("gpusim.profile.stalled_warp_cycles");
  static auto& h_occ = reg.histogram("gpusim.profile.occupancy_milli");
  static auto& h_imb = reg.histogram("gpusim.profile.imbalance_milli");
  c_kernels.add(1);
  c_issued.add(profile.counters.issued_warp_cycles);
  c_stalled.add(profile.counters.stalled_warp_cycles);
  h_occ.record(static_cast<std::uint64_t>(profile.counters.achieved_occupancy * 1000.0));
  h_imb.record(static_cast<std::uint64_t>(profile.counters.load_imbalance() * 1000.0));
}

}  // namespace

double KernelSimulator::task_time_s(const WarpTask& task) const noexcept {
  // Latency of the task running alone: a single warp progresses at its
  // dependent-chain IPC — this is what sets the bulk-synchronous tail of a
  // kernel holding one long alignment. Aggregate throughput is capped
  // separately in run_kernel().
  const double warp_rate = spec_.clock_ghz * 1e9 * spec_.single_warp_ipc;
  const double instructions =
      static_cast<double>(task.warp_instructions) * spec_.divergence_derate;
  return instructions / warp_rate;
}

KernelCost KernelSimulator::simulate(std::span<const WarpTask> tasks,
                                     HwCounters* counters) const {
  if (counters != nullptr) return simulate_profiled(tasks, *counters);

  // Unprofiled hot path, structurally identical to the pre-profiler code:
  // the heap holds bare finish times (one word per slot, no slot ids, no
  // per-iteration profiling branches). Keeping this loop lean is what holds
  // the disabled-profiler overhead under the 2% budget.
  KernelCost cost;
  cost.tasks = tasks.size();
  cost.launch_overhead_s = spec_.kernel_launch_overhead_s;
  if (tasks.empty()) {
    cost.time_s = cost.launch_overhead_s;
    return cost;
  }

  // Greedy list scheduling: each task goes to the earliest-finishing slot.
  // This is how the hardware work-distributor behaves to first order, and
  // it exposes the bulk-synchronous tail: the kernel ends at the *latest*
  // slot, so one long alignment in a kernel of short ones leaves the rest
  // of the device idle.
  const std::uint32_t slots = slot_count();
  std::priority_queue<double, std::vector<double>, std::greater<>> finish;
  for (std::uint32_t s = 0; s < slots; ++s) finish.push(0.0);

  double makespan = 0.0;
  for (const WarpTask& task : tasks) {
    const double start = finish.top();
    finish.pop();
    const double end = start + task_time_s(task);
    makespan = std::max(makespan, end);
    finish.push(end);
    cost.warp_instructions += task.warp_instructions;
    cost.mem_bytes += task.mem_bytes;
  }

  // Two compute rooflines: the latency makespan (tasks at single-warp
  // rate over the slots) and the device's sustained issue throughput for
  // the aggregate instruction stream — whichever binds.
  const double throughput_s =
      static_cast<double>(cost.warp_instructions) * spec_.divergence_derate /
      spec_.sustained_warp_issue_per_s();
  cost.compute_time_s = std::max(makespan, throughput_s);
  cost.memory_time_s =
      static_cast<double>(cost.mem_bytes) / spec_.sustained_bandwidth_bytes_per_s();
  cost.time_s = std::max(cost.compute_time_s, cost.memory_time_s) + cost.launch_overhead_s;
  return cost;
}

KernelCost KernelSimulator::simulate_profiled(std::span<const WarpTask> tasks,
                                              HwCounters& counters) const {
  KernelCost cost;
  cost.tasks = tasks.size();
  cost.launch_overhead_s = spec_.kernel_launch_overhead_s;
  if (tasks.empty()) {
    cost.time_s = cost.launch_overhead_s;
    counters.divergence_derate = spec_.divergence_derate;
    counters.sm_busy_s.assign(spec_.sm_count, 0.0);
    return cost;
  }

  // Same greedy list schedule as the unprofiled path, but the heap
  // additionally carries the slot id so busy time lands on the right SM.
  // Slot s lives on SM s % sm_count, so the initial round-robin spreads
  // tasks across SMs before doubling up issue slots.
  const std::uint32_t slots = slot_count();
  std::vector<double> sm_busy(spec_.sm_count, 0.0);
  std::vector<double> sm_finish(spec_.sm_count, 0.0);
  using Slot = std::pair<double, std::uint32_t>;  // (finish time, slot id)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> finish;
  for (std::uint32_t s = 0; s < slots; ++s) finish.push({0.0, s});

  double makespan = 0.0;
  double busy_s = 0.0;
  for (const WarpTask& task : tasks) {
    const auto [start, slot] = finish.top();
    finish.pop();
    const double dt = task_time_s(task);
    const double end = start + dt;
    makespan = std::max(makespan, end);
    finish.push({end, slot});
    cost.warp_instructions += task.warp_instructions;
    cost.mem_bytes += task.mem_bytes;
    busy_s += dt;
    const std::uint32_t sm = slot % spec_.sm_count;
    sm_busy[sm] += dt;
    sm_finish[sm] = std::max(sm_finish[sm], end);
  }

  const double derated_instructions =
      static_cast<double>(cost.warp_instructions) * spec_.divergence_derate;
  const double throughput_s = derated_instructions / spec_.sustained_warp_issue_per_s();
  cost.compute_time_s = std::max(makespan, throughput_s);
  cost.memory_time_s =
      static_cast<double>(cost.mem_bytes) / spec_.sustained_bandwidth_bytes_per_s();
  cost.time_s = std::max(cost.compute_time_s, cost.memory_time_s) + cost.launch_overhead_s;

  counters.tasks = cost.tasks;
  counters.warp_instructions = cost.warp_instructions;
  counters.divergence_derate = spec_.divergence_derate;
  counters.sm_busy_s = std::move(sm_busy);
  // Issued cycles: one issue slot for one cycle per derated instruction.
  counters.issued_warp_cycles = static_cast<std::uint64_t>(std::llround(derated_instructions));
  // Stalls: every issue-slot cycle inside the kernel's span (makespan or
  // whichever roofline stretched it) that did not retire an instruction —
  // dependent-chain bubbles, tail idling, memory stalls.
  const double span_s = cost.time_s - cost.launch_overhead_s;
  const double span_cycles = span_s * spec_.clock_ghz * 1e9;
  const double total_slot_cycles = span_cycles * static_cast<double>(slots);
  counters.stalled_warp_cycles = static_cast<std::uint64_t>(std::llround(
      std::max(0.0, total_slot_cycles - derated_instructions)));
  // Occupancy: time-weighted fraction of issue slots holding a warp.
  counters.achieved_occupancy =
      span_s > 0.0 ? busy_s / (span_s * static_cast<double>(slots)) : 0.0;
  // Bulk-synchronous tail: the earliest-finishing SM's wait at the
  // kernel-end barrier.
  double earliest = makespan;
  for (const double f : sm_finish) earliest = std::min(earliest, f);
  counters.tail_latency_s = makespan - earliest;
  return cost;
}

KernelCost KernelSimulator::run_kernel(std::span<const WarpTask> tasks) const {
  // Skip the KernelTag (two strings + a ledger) entirely while no profiler
  // is installed — this overload sits on unprofiled hot paths.
  if (ProfilerSession::active() == nullptr) {
    const KernelCost cost = simulate(tasks, nullptr);
    if (telemetry::enabled()) record_kernel_cost(cost);
    return cost;
  }
  return run_kernel(tasks, KernelTag{});
}

KernelCost KernelSimulator::run_kernel(std::span<const WarpTask> tasks,
                                       const KernelTag& tag) const {
  ProfilerSession* session = ProfilerSession::active();
  if (session == nullptr) {
    const KernelCost cost = simulate(tasks, nullptr);
    if (telemetry::enabled()) record_kernel_cost(cost);
    return cost;
  }

  KernelProfile profile;
  profile.tag = tag;
  profile.cost = simulate(tasks, &profile.counters);
  profile.counters.traffic = tag.traffic;
  if (telemetry::enabled()) record_kernel_cost(profile.cost);
  profile.start_s = session->now_s();
  profile.end_s = profile.start_s + profile.cost.time_s;
  session->advance(profile.cost.time_s);
  record_profiled_launch(profile);
  const KernelCost cost = profile.cost;
  session->record(std::move(profile));
  return cost;
}

PipelineRun KernelSimulator::run_pipeline(std::span<const StreamLaunch> launches,
                                          std::uint32_t streams,
                                          std::uint64_t memory_budget,
                                          std::span<const KernelTag> tags) const {
  streams = std::max<std::uint32_t>(streams, 1);
  ProfilerSession* const session = ProfilerSession::active();
  const std::size_t n = launches.size();

  PipelineRun run;
  run.launches.reserve(n);
  run.start_s.resize(n, 0.0);
  run.end_s.resize(n, 0.0);
  if (n == 0) return run;

  std::vector<HwCounters> counters(session != nullptr ? n : 0);
  for (std::size_t i = 0; i < n; ++i) {
    run.launches.push_back(
        simulate(launches[i].tasks, session != nullptr ? &counters[i] : nullptr));
    if (telemetry::enabled()) record_kernel_cost(run.launches[i]);
  }

  // Greedy placement in launch order: earliest-free lane (lowest index on
  // ties), gated by dependency ends and by memory admission — a launch
  // whose allocation does not fit waits for the earliest-ending resident
  // launches to retire. Deterministic throughout.
  std::vector<double> lane_free(streams, 0.0);
  std::vector<std::uint32_t> lane_of(n, 0);
  using Active = std::pair<double, std::uint64_t>;  // (end time, resident bytes)
  std::priority_queue<Active, std::vector<Active>, std::greater<>> active;
  std::uint64_t resident = 0;
  double makespan = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t lane = 0;
    for (std::uint32_t l = 1; l < streams; ++l) {
      if (lane_free[l] < lane_free[lane]) lane = l;
    }
    double start = lane_free[lane];
    for (const std::uint32_t d : launches[i].deps) {
      start = std::max(start, run.end_s[d]);
    }
    if (memory_budget > 0) {
      while (!active.empty() && active.top().first <= start) {
        resident -= active.top().second;
        active.pop();
      }
      while (resident + launches[i].resident_bytes > memory_budget && !active.empty()) {
        start = std::max(start, active.top().first);
        resident -= active.top().second;
        active.pop();
      }
    }
    const double end = start + run.launches[i].time_s;
    lane_free[lane] = end;
    lane_of[i] = lane;
    run.start_s[i] = start;
    run.end_s[i] = end;
    makespan = std::max(makespan, end);
    if (memory_budget > 0) {
      active.push({end, launches[i].resident_bytes});
      resident += launches[i].resident_bytes;
    }
    run.total.tasks += run.launches[i].tasks;
    run.total.warp_instructions += run.launches[i].warp_instructions;
    run.total.mem_bytes += run.launches[i].mem_bytes;
    run.total.launch_overhead_s += run.launches[i].launch_overhead_s;
  }

  // Device-wide capacity floors: the lanes overlap launches, but one device
  // still co-issues at most its sustained instruction throughput and moves
  // at most its sustained bandwidth. When a floor binds, stretch the whole
  // schedule uniformly so the intervals stay consistent with the makespan.
  run.total.compute_time_s =
      static_cast<double>(run.total.warp_instructions) * spec_.divergence_derate /
      spec_.sustained_warp_issue_per_s();
  run.total.memory_time_s =
      static_cast<double>(run.total.mem_bytes) / spec_.sustained_bandwidth_bytes_per_s();
  const double target =
      std::max({makespan, run.total.compute_time_s, run.total.memory_time_s});
  run.total.time_s = target;
  const double scale = makespan > 0.0 ? target / makespan : 1.0;
  if (scale != 1.0) {
    for (std::size_t i = 0; i < n; ++i) {
      run.start_s[i] *= scale;
      run.end_s[i] *= scale;
    }
  }

  if (session != nullptr) {
    const double base = session->now_s();
    for (std::size_t i = 0; i < n; ++i) {
      KernelProfile profile;
      if (!tags.empty()) profile.tag = tags.size() == 1 ? tags.front() : tags[i];
      if (tags.size() == 1 && i > 0) profile.tag.traffic = MemoryLedger{};
      profile.tag.stream = lane_of[i];
      profile.cost = run.launches[i];
      profile.counters = std::move(counters[i]);
      profile.counters.traffic = profile.tag.traffic;
      profile.start_s = base + run.start_s[i];
      profile.end_s = base + run.end_s[i];
      record_profiled_launch(profile);
      session->record(std::move(profile));
    }
    session->advance(run.total.time_s);
  }
  return run;
}

}  // namespace fastz::gpusim
