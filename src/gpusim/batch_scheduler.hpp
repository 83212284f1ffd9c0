// Cross-seed batch scheduling for the virtual GPU.
//
// The paper's dispatch story (Section 3.1.3) is "pack many more seed
// extensions into one kernel": per-seed launches make launch count scale
// linearly with seeds, and intermingled long/short tasks make each launch
// tail-bound. This scheduler turns a flat, seed-index-ordered task list
// into few large launches:
//
//   * first-fit packing under the device memory budget — a launch closes
//     exactly when the next task's resident allocation would overflow the
//     budget, so an unlimited budget yields one launch;
//   * LPT (longest-processing-time-first) ordering *inside* each launch,
//     the classic makespan-minimizing list order for greedy list
//     scheduling — SaLoBa-style intra-launch balance. The permutation is
//     retained (`PackedLaunch::order`) so every per-task quantity can be
//     mapped back to its seed and results stay bit-identical; the reorder
//     only changes the modeled schedule.
//
// Consumer: FastzStudy::derive() builds its inspector and executor
// launches here, then feeds them to KernelSimulator::run_pipeline() with
// dependencies so executor launches chase their inspector chunk end-to-end
// instead of per-phase bulk synchrony.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/kernel_sim.hpp"

namespace fastz::gpusim {

// One schedulable unit: the warp work plus the device allocation the task
// holds while its launch is resident (traceback state, staged sequences).
struct BatchTask {
  WarpTask work;
  std::uint64_t resident_bytes = 0;
};

// One packed launch. `order[p]` is the index into the input span of the
// task at launch position `p` — the permutation LPT applied, kept so
// callers can map launch positions back to their seeds.
struct PackedLaunch {
  std::vector<WarpTask> tasks;
  std::vector<std::uint32_t> order;
  std::uint64_t resident_bytes = 0;
  std::uint64_t warp_instructions = 0;
  std::uint64_t mem_bytes = 0;
};

struct PackOptions {
  // Max resident bytes per launch; 0 = unlimited (one launch). A single
  // task larger than the budget still gets a launch of its own — the
  // scheduler packs, it does not shrink tasks.
  std::uint64_t memory_budget = 0;
};

struct LaunchPlan {
  std::vector<PackedLaunch> launches;

  std::uint64_t total_tasks() const noexcept {
    std::uint64_t n = 0;
    for (const PackedLaunch& l : launches) n += l.tasks.size();
    return n;
  }
};

// Packs `tasks` (in input order) into launches under `options`, then
// LPT-sorts each launch (ties broken by input index, so the plan is
// deterministic). Every input index appears exactly once across the plan's
// `order` vectors.
LaunchPlan pack_tasks(std::span<const BatchTask> tasks, const PackOptions& options);

// Greedy list-schedule makespan of `tasks` in the given order over `slots`
// execution slots, in warp-instruction units (no derate — order-comparison
// only). The balance test's metric: LPT order never loses to input order.
double list_makespan(std::span<const WarpTask> tasks, std::uint32_t slots);

}  // namespace fastz::gpusim
