#include "gpusim/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "gpusim/kernel_sim.hpp"

namespace fastz::gpusim {
namespace {

// A device with clean round numbers so every counter is exactly
// predictable: 2 SMs x 1 issue slot, 1 GHz, no derates or overheads.
// One warp-instruction = one cycle = one nanosecond.
KernelTag named_tag(std::string name, std::string phase) {
  KernelTag tag;
  tag.name = std::move(name);
  tag.phase = std::move(phase);
  return tag;
}

DeviceSpec unit_device() {
  DeviceSpec spec;
  spec.name = "unit";
  spec.sm_count = 2;
  spec.lanes = 64;
  spec.issue_per_sm = 1;
  spec.clock_ghz = 1.0;
  spec.mem_bandwidth_gbps = 1000.0;
  spec.achieved_bw_fraction = 1.0;
  spec.divergence_derate = 1.0;
  spec.issue_utilization = 1.0;
  spec.single_warp_ipc = 1.0;
  spec.kernel_launch_overhead_s = 0.0;
  return spec;
}

TEST(HwCounters, ExactValuesOnKnownWarpLayout) {
  // Two slots (one per SM); tasks of 3000 and 1000 instructions schedule
  // onto separate SMs. Span = 3 us, busy = 4 us:
  //   occupancy  = 4 / (3 * 2 slots)        = 2/3
  //   issued     = 4000 warp-cycles
  //   stalled    = 3000 cycles * 2 slots - 4000 = 2000
  //   imbalance  = max 3 us / mean 2 us     = 1.5
  //   tail       = makespan 3 us - earliest SM finish 1 us = 2 us
  const KernelSimulator sim(unit_device());
  const std::vector<WarpTask> tasks = {{3000, 0}, {1000, 0}};

  ProfilerSession session;
  const ScopedProfiler scoped(session);
  const KernelCost cost = sim.run_kernel(tasks, named_tag("k", "test"));

  ASSERT_EQ(session.kernel_count(), 1u);
  const KernelProfile profile = session.kernels()[0];
  const HwCounters& c = profile.counters;

  EXPECT_EQ(c.tasks, 2u);
  EXPECT_EQ(c.warp_instructions, 4000u);
  EXPECT_EQ(c.issued_warp_cycles, 4000u);
  EXPECT_EQ(c.stalled_warp_cycles, 2000u);
  EXPECT_NEAR(c.achieved_occupancy, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(c.divergence_derate, 1.0);
  ASSERT_EQ(c.sm_busy_s.size(), 2u);
  EXPECT_NEAR(c.max_sm_busy_s(), 3e-6, 1e-15);
  EXPECT_NEAR(c.mean_sm_busy_s(), 2e-6, 1e-15);
  EXPECT_NEAR(c.load_imbalance(), 1.5, 1e-12);
  EXPECT_NEAR(c.tail_latency_s, 2e-6, 1e-15);
  EXPECT_NEAR(cost.time_s, 3e-6, 1e-15);
}

TEST(HwCounters, DivergenceDerateScalesIssuedCycles) {
  DeviceSpec spec = unit_device();
  spec.divergence_derate = 2.0;
  const KernelSimulator sim(spec);
  const std::vector<WarpTask> tasks = {{1000, 0}};

  ProfilerSession session;
  const ScopedProfiler scoped(session);
  sim.run_kernel(tasks, KernelTag{});

  const HwCounters c = session.kernels()[0].counters;
  // 1000 raw instructions expand to 2000 issued; the lone warp runs 2 us
  // on one of the two slots: occupancy 1/2, stalls = 4000 - 2000.
  EXPECT_EQ(c.warp_instructions, 1000u);
  EXPECT_EQ(c.issued_warp_cycles, 2000u);
  EXPECT_EQ(c.stalled_warp_cycles, 2000u);
  EXPECT_NEAR(c.achieved_occupancy, 0.5, 1e-12);
}

TEST(HwCounters, MergeIsTaskWeighted) {
  HwCounters a;
  a.tasks = 1;
  a.warp_instructions = 10;
  a.issued_warp_cycles = 10;
  a.stalled_warp_cycles = 5;
  a.achieved_occupancy = 1.0;
  a.divergence_derate = 1.0;
  a.tail_latency_s = 3.0;
  a.sm_busy_s = {1.0, 2.0};
  a.traffic.score_read_bytes = 100;

  HwCounters b;
  b.tasks = 3;
  b.warp_instructions = 30;
  b.issued_warp_cycles = 40;
  b.stalled_warp_cycles = 15;
  b.achieved_occupancy = 0.5;
  b.divergence_derate = 3.0;
  b.tail_latency_s = 2.0;
  b.sm_busy_s = {0.5, 0.5, 4.0};
  b.traffic.score_read_bytes = 900;

  a.merge(b);
  EXPECT_EQ(a.tasks, 4u);
  EXPECT_EQ(a.warp_instructions, 40u);
  EXPECT_EQ(a.issued_warp_cycles, 50u);
  EXPECT_EQ(a.stalled_warp_cycles, 20u);
  EXPECT_NEAR(a.achieved_occupancy, (1.0 * 1 + 0.5 * 3) / 4.0, 1e-12);
  EXPECT_NEAR(a.divergence_derate, (1.0 * 1 + 3.0 * 3) / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.tail_latency_s, 3.0);  // max, not sum
  ASSERT_EQ(a.sm_busy_s.size(), 3u);
  EXPECT_DOUBLE_EQ(a.sm_busy_s[0], 1.5);
  EXPECT_DOUBLE_EQ(a.sm_busy_s[1], 2.5);
  EXPECT_DOUBLE_EQ(a.sm_busy_s[2], 4.0);
  EXPECT_EQ(a.traffic.score_read_bytes, 1000u);
}

TEST(MemoryLedgerLevels, ElisionRatioAndPerLevelViews) {
  MemoryLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.score_elision_ratio(), 0.0);  // empty: defined as 0

  ledger.register_elided_bytes = 960;
  ledger.score_read_bytes = 20;
  ledger.score_write_bytes = 12;
  ledger.boundary_spill_bytes = 8;
  ledger.traceback_wire_bytes = 50;
  ledger.sequence_bytes = 70;
  EXPECT_EQ(ledger.materialized_score_bytes(), 40u);
  EXPECT_DOUBLE_EQ(ledger.score_elision_ratio(), 0.96);
  EXPECT_EQ(ledger.l2_bytes(), 70u);
  EXPECT_EQ(ledger.dram_bytes(), 90u);
}

TEST(ProfilerSession, TagsAndTimelineAreRecorded) {
  const KernelSimulator sim(unit_device());
  const std::vector<WarpTask> tasks = {{2000, 0}};

  ProfilerSession session;
  const ScopedProfiler scoped(session);
  sim.run_kernel(tasks, named_tag("executor.batch0", "executor"));
  sim.run_kernel(tasks, named_tag("inspector", "inspector"));

  const auto kernels = session.kernels();
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0].tag.name, "executor.batch0");
  EXPECT_EQ(kernels[0].tag.phase, "executor");
  EXPECT_EQ(kernels[1].tag.name, "inspector");
  // Kernels are placed end-to-end on the session timeline.
  EXPECT_DOUBLE_EQ(kernels[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(kernels[0].end_s, kernels[0].cost.time_s);
  EXPECT_DOUBLE_EQ(kernels[1].start_s, kernels[0].end_s);
  EXPECT_DOUBLE_EQ(session.now_s(), kernels[1].end_s);
}

TEST(ProfilerSession, CostsIdenticalWithAndWithoutProfiling) {
  const KernelSimulator sim(unit_device());
  const std::vector<WarpTask> tasks = {{3000, 64}, {1000, 32}, {500, 16}};
  const KernelCost plain = sim.run_kernel(tasks);

  ProfilerSession session;
  KernelCost profiled;
  {
    const ScopedProfiler scoped(session);
    profiled = sim.run_kernel(tasks);
  }
  EXPECT_DOUBLE_EQ(profiled.time_s, plain.time_s);
  EXPECT_DOUBLE_EQ(profiled.compute_time_s, plain.compute_time_s);
  EXPECT_DOUBLE_EQ(profiled.memory_time_s, plain.memory_time_s);
  EXPECT_EQ(profiled.warp_instructions, plain.warp_instructions);
  EXPECT_EQ(profiled.mem_bytes, plain.mem_bytes);
}

TEST(ProfilerSession, InactiveSessionRecordsNothing) {
  const KernelSimulator sim(unit_device());
  const std::vector<WarpTask> tasks = {{100, 0}};

  ProfilerSession session;
  sim.run_kernel(tasks);  // not installed
  EXPECT_EQ(session.kernel_count(), 0u);
  EXPECT_EQ(ProfilerSession::active(), nullptr);

  {
    const ScopedProfiler scoped(session);
    EXPECT_EQ(ProfilerSession::active(), &session);
    sim.run_kernel(tasks);
  }
  EXPECT_EQ(ProfilerSession::active(), nullptr);  // scope uninstalls
  sim.run_kernel(tasks);
  EXPECT_EQ(session.kernel_count(), 1u);
}

TEST(ProfilerSession, StreamedLaunchesRoundRobinStreamsAndScaleTimeline) {
  // Four equal launches of two 1 us tasks on two streams: the lanes
  // alternate 0,1,0,1 and stack to a 2 us makespan, but the device issues
  // only 2 warp-instructions per ns, so the 8000-instruction total needs
  // 4 us — the issue floor stretches the timeline by 2x.
  const KernelSimulator sim(unit_device());
  std::vector<StreamLaunch> launches(4);
  for (StreamLaunch& launch : launches) launch.tasks = {{1000, 0}, {1000, 0}};
  const KernelTag base = named_tag("executor.batch0", "executor");

  ProfilerSession session;
  PipelineRun run;
  {
    const ScopedProfiler scoped(session);
    run = sim.run_pipeline(launches, 2, 0, std::span<const KernelTag>(&base, 1));
  }

  const auto kernels = session.kernels();
  ASSERT_EQ(kernels.size(), 4u);
  double latest = 0.0;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    EXPECT_EQ(kernels[i].tag.name, "executor.batch0");
    EXPECT_EQ(kernels[i].tag.stream, static_cast<std::uint32_t>(i % 2));
    EXPECT_NEAR(kernels[i].end_s - kernels[i].start_s, 2e-6, 1e-15);
    latest = std::max(latest, kernels[i].end_s);
  }
  // Intervals are scaled so the timeline ends exactly at the floored
  // (overlapped) modeled time.
  EXPECT_NEAR(run.total.time_s, 4e-6, 1e-15);
  EXPECT_NEAR(latest, run.total.time_s, 1e-15);
  EXPECT_DOUBLE_EQ(session.now_s(), run.total.time_s);
}

TEST(ProfilerSession, SerializedStreamsStackEndToEnd) {
  const KernelSimulator sim(unit_device());
  std::vector<StreamLaunch> launches(2);
  launches[0].tasks = {{1000, 0}};
  launches[1].tasks = {{2000, 0}};

  ProfilerSession session;
  PipelineRun run;
  {
    const ScopedProfiler scoped(session);
    run = sim.run_pipeline(launches, 1, 0);
  }
  const auto kernels = session.kernels();
  ASSERT_EQ(kernels.size(), 2u);
  EXPECT_EQ(kernels[0].tag.stream, 0u);
  EXPECT_EQ(kernels[1].tag.stream, 0u);
  EXPECT_DOUBLE_EQ(kernels[1].start_s, kernels[0].end_s);
  EXPECT_NEAR(kernels[1].end_s, run.total.time_s, 1e-15);
}

TEST(ProfilerSession, SeedTallyDrivesEagerHitRate) {
  ProfilerSession session;
  EXPECT_DOUBLE_EQ(session.eager_hit_rate(), 0.0);  // no seeds yet
  session.note_seeds(10, 8);
  session.note_seeds(10, 6);
  EXPECT_EQ(session.seeds(), 20u);
  EXPECT_EQ(session.eager_handled(), 14u);
  EXPECT_DOUBLE_EQ(session.eager_hit_rate(), 0.7);

  session.clear();
  EXPECT_EQ(session.seeds(), 0u);
  EXPECT_DOUBLE_EQ(session.eager_hit_rate(), 0.0);
}

TEST(ProfilerSession, EmptyLaunchStillProfiled) {
  const KernelSimulator sim(unit_device());
  ProfilerSession session;
  const ScopedProfiler scoped(session);
  const KernelCost cost = sim.run_kernel({}, named_tag("empty", ""));
  ASSERT_EQ(session.kernel_count(), 1u);
  const HwCounters c = session.kernels()[0].counters;
  EXPECT_EQ(c.tasks, 0u);
  EXPECT_EQ(c.sm_busy_s.size(), 2u);
  EXPECT_DOUBLE_EQ(c.load_imbalance(), 1.0);  // idle device is "balanced"
  EXPECT_DOUBLE_EQ(cost.time_s, cost.launch_overhead_s);
}

}  // namespace
}  // namespace fastz::gpusim
