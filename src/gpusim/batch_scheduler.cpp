#include "gpusim/batch_scheduler.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

namespace fastz::gpusim {

LaunchPlan pack_tasks(std::span<const BatchTask> tasks, const PackOptions& options) {
  LaunchPlan plan;
  if (tasks.empty()) return plan;

  // First-fit in input order: close the current launch exactly when the
  // next task's allocation would overflow the budget. An oversized task on
  // an empty launch is admitted alone — packing cannot shrink it.
  PackedLaunch current;
  auto flush = [&] {
    if (current.tasks.empty()) return;
    plan.launches.push_back(std::move(current));
    current = PackedLaunch{};
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const BatchTask& task = tasks[i];
    if (options.memory_budget > 0 && !current.tasks.empty() &&
        current.resident_bytes + task.resident_bytes > options.memory_budget) {
      flush();
    }
    current.tasks.push_back(task.work);
    current.order.push_back(static_cast<std::uint32_t>(i));
    current.resident_bytes += task.resident_bytes;
    current.warp_instructions += task.work.warp_instructions;
    current.mem_bytes += task.work.mem_bytes;
  }
  flush();

  for (PackedLaunch& launch : plan.launches) {
    // LPT with input-index tiebreak: a full deterministic order, so the
    // plan (and every modeled time derived from it) is reproducible.
    std::vector<std::uint32_t> perm(launch.tasks.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::sort(perm.begin(), perm.end(), [&](std::uint32_t x, std::uint32_t y) {
      const std::uint64_t wx = launch.tasks[x].warp_instructions;
      const std::uint64_t wy = launch.tasks[y].warp_instructions;
      if (wx != wy) return wx > wy;
      return launch.order[x] < launch.order[y];
    });
    std::vector<WarpTask> sorted_tasks(launch.tasks.size());
    std::vector<std::uint32_t> sorted_order(launch.order.size());
    for (std::size_t p = 0; p < perm.size(); ++p) {
      sorted_tasks[p] = launch.tasks[perm[p]];
      sorted_order[p] = launch.order[perm[p]];
    }
    launch.tasks = std::move(sorted_tasks);
    launch.order = std::move(sorted_order);
  }
  return plan;
}

double list_makespan(std::span<const WarpTask> tasks, std::uint32_t slots) {
  slots = std::max<std::uint32_t>(slots, 1);
  std::priority_queue<double, std::vector<double>, std::greater<>> finish;
  for (std::uint32_t s = 0; s < slots; ++s) finish.push(0.0);
  double makespan = 0.0;
  for (const WarpTask& task : tasks) {
    const double start = finish.top();
    finish.pop();
    const double end = start + static_cast<double>(task.warp_instructions);
    makespan = std::max(makespan, end);
    finish.push(end);
  }
  return makespan;
}

}  // namespace fastz::gpusim
