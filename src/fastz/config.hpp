// FastZ configuration: the paper's five optimizations as switches.
//
// The Figure 9 ablation progressively enables cyclic use-and-discard
// buffering, eager traceback, and executor trimming on top of the base
// inspector-executor + length-binned configuration; the stream count is
// ablated separately (32 vs 1). Each switch changes both the functional
// path (what work the kernels perform) and, through the counted work, the
// modeled GPU time. How derive() cuts the work into launches is not a
// switch: it always packs seeds into a few LPT-balanced launches and
// schedules them with KernelSimulator::run_pipeline (see derive()).
#pragma once

#include <cstdint>

namespace fastz {

struct FastzConfig {
  // Section 3.2: keep the three live anti-diagonals of S/I/D in per-lane
  // registers (only strip-boundary lanes spill 12 B per diagonal). When
  // off, every DP cell reads/writes the score matrices in global memory.
  bool cyclic_buffers = true;

  // Section 3.1.2: the inspector tracks a 16x16 shared-memory traceback
  // tile and finishes extremely short alignments itself, eliminating the
  // executor for them.
  bool eager_traceback = true;

  // Section 3.1.3: the executor computes only up to the inspector's optimal
  // cell instead of re-running the full search space.
  bool executor_trimming = true;

  // Section 3.1.3: consolidate traceback bytes in shared memory into full
  // cache-line writes. When off, each byte store costs a DRAM sector.
  bool staged_traceback_writes = true;

  // Section 3.4: CUDA streams overlapping inspector and executor launches.
  // 32 in the paper's main configuration; 1 in the ablation.
  std::uint32_t streams = 32;

  // Eager tile side (base pairs). 16 in the paper.
  std::uint32_t eager_tile = 16;

  // The paper's main configuration / ablation points.
  static FastzConfig full() { return FastzConfig{}; }

  static FastzConfig load_balance_only() {
    FastzConfig c;
    c.cyclic_buffers = false;
    c.eager_traceback = false;
    c.executor_trimming = false;
    c.staged_traceback_writes = false;
    return c;
  }

  FastzConfig& with_cyclic_buffers() {
    cyclic_buffers = true;
    staged_traceback_writes = true;  // register scheme implies SMEM staging
    return *this;
  }
  FastzConfig& with_eager_traceback() {
    eager_traceback = true;
    return *this;
  }
  FastzConfig& with_executor_trimming() {
    executor_trimming = true;
    return *this;
  }
  FastzConfig& with_streams(std::uint32_t n) {
    streams = n;
    return *this;
  }
};

}  // namespace fastz
