#include "gpusim/kernel_sim.hpp"

#include <gtest/gtest.h>

#include "gpusim/memory_ledger.hpp"

namespace fastz::gpusim {
namespace {

KernelSimulator make_sim() { return KernelSimulator(rtx3080_ampere()); }

TEST(KernelSim, EmptyKernelCostsLaunchOnly) {
  const KernelSimulator sim = make_sim();
  const KernelCost c = sim.run_kernel({});
  EXPECT_DOUBLE_EQ(c.time_s, sim.spec().kernel_launch_overhead_s);
  EXPECT_EQ(c.tasks, 0u);
}

TEST(KernelSim, UniformTasksScaleWithCount) {
  const KernelSimulator sim = make_sim();
  std::vector<WarpTask> small(sim.slot_count(), {1000, 0});
  std::vector<WarpTask> big(sim.slot_count() * 10, {1000, 0});
  const double t_small = sim.run_kernel(small).compute_time_s;
  const double t_big = sim.run_kernel(big).compute_time_s;
  EXPECT_NEAR(t_big / t_small, 10.0, 0.01);
}

TEST(KernelSim, BulkSynchronyExposesLongTaskTail) {
  // One long task among many short ones: kernel time is at least the long
  // task's own time — the load-imbalance effect binning addresses.
  const KernelSimulator sim = make_sim();
  std::vector<WarpTask> tasks(10000, {100, 0});
  tasks.push_back({1'000'000, 0});
  const KernelCost c = sim.run_kernel(tasks);
  EXPECT_GE(c.compute_time_s, sim.task_time_s({1'000'000, 0}));
}

TEST(KernelSim, MemoryRooflineBinds) {
  const KernelSimulator sim = make_sim();
  // Tiny compute, huge traffic: memory time must dominate.
  std::vector<WarpTask> tasks(100, {10, 100'000'000});
  const KernelCost c = sim.run_kernel(tasks);
  EXPECT_TRUE(c.memory_bound());
  EXPECT_NEAR(c.memory_time_s,
              100.0 * 100e6 / sim.spec().sustained_bandwidth_bytes_per_s(), 1e-9);
}

// Independent launches (no deps) for the pipeline scheduler.
std::vector<StreamLaunch> as_launches(const std::vector<std::vector<WarpTask>>& chunks) {
  std::vector<StreamLaunch> launches(chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) launches[i].tasks = chunks[i];
  return launches;
}

TEST(KernelSim, StreamsOverlapChunkTails) {
  // Launches each containing one long task: serialized (1 stream) they pay
  // every tail; on 32 streams the tails overlap.
  const KernelSimulator sim = make_sim();
  std::vector<std::vector<WarpTask>> chunks;
  for (int c = 0; c < 16; ++c) {
    std::vector<WarpTask> chunk(500, {100, 0});
    chunk.push_back({200'000, 0});
    chunks.push_back(std::move(chunk));
  }
  const std::vector<StreamLaunch> launches = as_launches(chunks);
  const double single = sim.run_pipeline(launches, 1, 0).total.time_s;
  const double multi = sim.run_pipeline(launches, 32, 0).total.time_s;
  EXPECT_GT(single, multi * 1.5);
}

TEST(KernelSim, StreamedPreservesTotals) {
  const KernelSimulator sim = make_sim();
  const std::vector<StreamLaunch> launches = as_launches({
      {{100, 10}, {200, 20}},
      {{300, 30}},
  });
  for (std::uint32_t streams : {1u, 32u}) {
    const KernelCost c = sim.run_pipeline(launches, streams, 0).total;
    EXPECT_EQ(c.tasks, 3u);
    EXPECT_EQ(c.warp_instructions, 600u);
    EXPECT_EQ(c.mem_bytes, 60u);
  }
}

TEST(KernelSim, TaskTimeUsesDivergenceDerateAtSingleWarpRate) {
  const KernelSimulator sim = make_sim();
  const double t = sim.task_time_s({9, 0});
  const DeviceSpec& d = sim.spec();
  EXPECT_NEAR(t, 9.0 * d.divergence_derate / (d.clock_ghz * 1e9 * d.single_warp_ipc),
              1e-15);
}

TEST(KernelSim, ThroughputRooflineBindsForManySmallTasks) {
  // Thousands of small tasks: the sustained-issue roofline, not the latency
  // makespan, must set the kernel time.
  const KernelSimulator sim = make_sim();
  std::vector<WarpTask> tasks(50000, {500, 0});
  const KernelCost c = sim.run_kernel(tasks);
  const double throughput_s = 50000.0 * 500.0 * sim.spec().divergence_derate /
                              sim.spec().sustained_warp_issue_per_s();
  EXPECT_NEAR(c.compute_time_s, throughput_s, throughput_s * 0.01);
}

TEST(KernelSim, SlotCountIsSmTimesIssue) {
  const KernelSimulator sim = make_sim();
  EXPECT_EQ(sim.slot_count(), sim.spec().sm_count * sim.spec().issue_per_sm);
}

TEST(MemoryLedger, MergeAndTotals) {
  MemoryLedger a, b;
  a.score_read_bytes = 100;
  a.traceback_wire_bytes = 50;
  b.boundary_spill_bytes = 25;
  b.sequence_bytes = 10;
  a.merge(b);
  EXPECT_EQ(a.device_bytes(), 185u);
  EXPECT_EQ(a.boundary_spill_bytes, 25u);
}

}  // namespace
}  // namespace fastz::gpusim
