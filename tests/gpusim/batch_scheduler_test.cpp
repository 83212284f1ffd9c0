// Unit tests of the cross-seed batch scheduler: packing respects the memory
// budget, the LPT balance order never loses to input order under greedy
// list scheduling, and the packing permutation names every input index
// exactly once so batched results can stay seed-index-ordered.
#include "gpusim/batch_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_sim.hpp"

namespace fastz::gpusim {
namespace {

// Deterministic pseudo-random task mix: long/short interleaved, the
// intermingled population the scheduler exists to balance.
std::vector<BatchTask> mixed_tasks(std::size_t n, std::uint64_t seed) {
  std::vector<BatchTask> tasks(n);
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = state >> 33;
    tasks[i].work.warp_instructions = 100 + r % 50000;
    tasks[i].work.mem_bytes = 64 + r % 4096;
    tasks[i].resident_bytes = 1000 + r % 9000;
  }
  return tasks;
}

TEST(BatchScheduler, UnlimitedBudgetPacksOneLaunch) {
  const auto tasks = mixed_tasks(257, 1);
  const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = 0});
  ASSERT_EQ(plan.launches.size(), 1u);
  EXPECT_EQ(plan.total_tasks(), tasks.size());
  std::uint64_t resident = 0, instr = 0, bytes = 0;
  for (const BatchTask& t : tasks) {
    resident += t.resident_bytes;
    instr += t.work.warp_instructions;
    bytes += t.work.mem_bytes;
  }
  EXPECT_EQ(plan.launches[0].resident_bytes, resident);
  EXPECT_EQ(plan.launches[0].warp_instructions, instr);
  EXPECT_EQ(plan.launches[0].mem_bytes, bytes);
}

TEST(BatchScheduler, BudgetIsRespectedByEveryLaunch) {
  const auto tasks = mixed_tasks(400, 2);
  const std::uint64_t budget = 60000;  // forces many splits at ~5.5 kB/task
  const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = budget});
  ASSERT_GT(plan.launches.size(), 1u);
  EXPECT_EQ(plan.total_tasks(), tasks.size());
  for (const PackedLaunch& l : plan.launches) {
    EXPECT_LE(l.resident_bytes, budget);
    EXPECT_FALSE(l.tasks.empty());
  }
}

TEST(BatchScheduler, LaunchClosesExactlyOnOverflow) {
  // Three tasks of 40 each against a budget of 100: the third would make
  // 120 > 100, so the split lands after two (close when resident + next >
  // budget).
  std::vector<BatchTask> tasks(3);
  for (auto& t : tasks) {
    t.work.warp_instructions = 10;
    t.resident_bytes = 40;
  }
  const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = 100});
  ASSERT_EQ(plan.launches.size(), 2u);
  EXPECT_EQ(plan.launches[0].tasks.size(), 2u);
  EXPECT_EQ(plan.launches[1].tasks.size(), 1u);

  // Exactly at budget is NOT an overflow: 40 + 40 + 20 == 100 stays whole.
  tasks.push_back({});
  tasks[2].resident_bytes = 20;
  tasks[3].resident_bytes = 0;
  tasks.pop_back();
  const LaunchPlan fits = pack_tasks(tasks, {.memory_budget = 100});
  EXPECT_EQ(fits.launches.size(), 1u);
}

TEST(BatchScheduler, OversizedTaskGetsItsOwnLaunch) {
  std::vector<BatchTask> tasks(3);
  tasks[0].resident_bytes = 10;
  tasks[1].resident_bytes = 500;  // alone over the budget: admitted solo
  tasks[2].resident_bytes = 10;
  for (auto& t : tasks) t.work.warp_instructions = 1;
  const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = 100});
  ASSERT_EQ(plan.launches.size(), 3u);
  EXPECT_EQ(plan.launches[1].tasks.size(), 1u);
  EXPECT_EQ(plan.launches[1].resident_bytes, 500u);
  EXPECT_EQ(plan.total_tasks(), 3u);
}

TEST(BatchScheduler, EveryInputIndexAppearsExactlyOnce) {
  const auto tasks = mixed_tasks(333, 3);
  for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{50000}}) {
    const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = budget});
    std::vector<std::uint32_t> seen;
    for (const PackedLaunch& l : plan.launches) {
      ASSERT_EQ(l.tasks.size(), l.order.size());
      seen.insert(seen.end(), l.order.begin(), l.order.end());
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), tasks.size());
    for (std::uint32_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  }
}

TEST(BatchScheduler, BalanceSortsLongestFirstDeterministically) {
  const auto tasks = mixed_tasks(64, 5);
  const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = 0});
  ASSERT_EQ(plan.launches.size(), 1u);
  const PackedLaunch& l = plan.launches[0];
  for (std::size_t p = 1; p < l.tasks.size(); ++p) {
    EXPECT_GE(l.tasks[p - 1].warp_instructions, l.tasks[p].warp_instructions);
    if (l.tasks[p - 1].warp_instructions == l.tasks[p].warp_instructions) {
      EXPECT_LT(l.order[p - 1], l.order[p]);  // stable tie-break on input index
    }
  }
  // Each launch position holds the input task its order entry names.
  for (std::size_t p = 0; p < l.tasks.size(); ++p) {
    EXPECT_EQ(l.tasks[p].warp_instructions,
              tasks[l.order[p]].work.warp_instructions);
  }
}

TEST(BatchScheduler, LptNeverLosesToInputOrder) {
  // The classic list-scheduling result: LPT order's greedy makespan is never
  // worse than an arbitrary order's. Checked over several task mixes and
  // slot counts, including slots == 1 (trivially tied) and slots > tasks.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const auto tasks = mixed_tasks(100 + seed * 13, seed);
    std::vector<WarpTask> input_order;
    for (const BatchTask& t : tasks) input_order.push_back(t.work);
    const LaunchPlan plan = pack_tasks(tasks, {.memory_budget = 0});
    ASSERT_EQ(plan.launches.size(), 1u);
    for (const std::uint32_t slots : {1u, 4u, 68u, 1000u}) {
      const double lpt = list_makespan(plan.launches[0].tasks, slots);
      const double input = list_makespan(input_order, slots);
      EXPECT_LE(lpt, input + 1e-9) << "seed " << seed << " slots " << slots;
    }
  }
}

TEST(BatchScheduler, EmptyInputYieldsEmptyPlan) {
  const LaunchPlan plan = pack_tasks({}, {.memory_budget = 100});
  EXPECT_TRUE(plan.launches.empty());
  EXPECT_EQ(plan.total_tasks(), 0u);
}

// --- run_pipeline scheduling semantics ------------------------------------

TEST(BatchScheduler, PipelineHonorsDependencies) {
  const KernelSimulator sim(rtx3080_ampere());
  std::vector<StreamLaunch> launches(3);
  for (auto& l : launches) {
    l.tasks.assign(64, WarpTask{1000000, 1 << 20});
  }
  launches[1].deps = {0};
  launches[2].deps = {1};
  const PipelineRun run = sim.run_pipeline(launches, /*streams=*/8, /*budget=*/0);
  ASSERT_EQ(run.launches.size(), 3u);
  EXPECT_GE(run.start_s[1], run.end_s[0] - 1e-12);
  EXPECT_GE(run.start_s[2], run.end_s[1] - 1e-12);
  EXPECT_NEAR(run.total.time_s, run.end_s[2], 1e-12);
}

TEST(BatchScheduler, PipelineMemoryBudgetSerializesContendingLaunches) {
  const KernelSimulator sim(rtx3080_ampere());
  std::vector<StreamLaunch> launches(2);
  for (auto& l : launches) {
    l.tasks.assign(32, WarpTask{1000000, 1 << 20});
    l.resident_bytes = 600;
  }
  const PipelineRun overlapped = sim.run_pipeline(launches, 8, /*budget=*/0);
  const PipelineRun serialized = sim.run_pipeline(launches, 8, /*budget=*/1000);
  // Together 1200 > 1000: the second launch must wait for the first.
  EXPECT_GE(serialized.start_s[1], serialized.end_s[0] - 1e-12);
  EXPECT_GT(serialized.total.time_s, overlapped.total.time_s);
}

}  // namespace
}  // namespace fastz::gpusim
