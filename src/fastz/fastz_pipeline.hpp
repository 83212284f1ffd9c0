// End-to-end FastZ pipeline and the configuration study used by the
// benchmark harness.
//
// `FastzStudy` performs the *functional* pass once per chromosome pair —
// seeding, per-seed inspection (conservative y-drop search + eager tile),
// and execution of the surviving seeds — retaining per-seed work metrics
// (search cells, warp-strip geometry, optimal cells, trimmed executor
// geometry). Any `FastzConfig` x `DeviceSpec` combination can then be
// *derived* from the stored metrics without re-running the DP: ablation
// switches change which work lands in which kernel and how many bytes it
// moves, exactly as they would on the real device. This mirrors how the
// paper's Figure 9 progressively composes the optimizations over one
// workload.
//
// Alignments are config-independent (FastZ's optimizations are
// work-elimination, not approximation — the paper verifies its output
// against LASTZ's), so the functional alignments are shared by every
// derived configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "align/lastz_pipeline.hpp"
#include "fastz/binning.hpp"
#include "fastz/config.hpp"
#include "fastz/executor.hpp"
#include "fastz/inspector.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/kernel_sim.hpp"
#include "gpusim/memory_ledger.hpp"

namespace fastz {

// Modeled execution-time breakdown (Figure 8's three components).
struct FastzStageTimes {
  double inspector_s = 0.0;
  double executor_s = 0.0;
  double other_s = 0.0;
  double total_s() const noexcept { return inspector_s + executor_s + other_s; }
};

// Result of deriving one configuration on one device.
struct FastzRun {
  FastzConfig config;
  FastzStageTimes modeled;
  gpusim::KernelCost inspector_cost;
  gpusim::KernelCost executor_cost;
  gpusim::MemoryLedger ledger;
  BinCensus census;
  std::uint64_t seeds = 0;
  std::uint64_t eager_handled = 0;    // seeds finished by eager traceback
  std::uint64_t executor_tasks = 0;
  // Executor kernel launches: the packed cross-bin launches, at most one
  // dense and one Hirschberg launch per inspector launch unless the memory
  // budget splits a pack.
  std::uint64_t executor_kernels = 0;
  std::uint64_t inspector_launches = 0;  // inspector kernel launches
  std::uint64_t inspector_cells = 0;  // search-space cells (conservative y-drop)
  std::uint64_t executor_cells = 0;   // cells the executor recomputed
  std::uint64_t hirschberg_tasks = 0;  // executor tasks on the linear path
};

// Per-seed record from the functional pass.
struct SeedWork {
  SeedInspection inspection;
  // Trimmed-executor metrics (valid when the seed is not eager-eligible).
  std::uint64_t trimmed_cells = 0;
  StripGeometry trimmed_geom;
  // Traceback accounting of the trimmed executor run. On the dense path
  // bytes == peak == trimmed_cells; on the Hirschberg path bytes are the
  // materialized base-block cells, peak the one-block high-water mark, and
  // replay/checkpoint the bisection overheads (see ExecutorOutcome).
  std::uint64_t trimmed_tb_bytes = 0;
  std::uint64_t trimmed_tb_peak_bytes = 0;
  std::uint64_t trimmed_replay_cells = 0;
  std::uint64_t trimmed_checkpoint_bytes = 0;
  std::uint32_t hirschberg_block_rows = 0;  // block height the run used
  bool hirschberg = false;                  // executor took the linear path
  bool has_alignment = false;  // combined score cleared the threshold
};

class FastzStudy;

// One request of a coalesced functional pass. The pointed-to sequences
// must outlive the run_functional_batch call; the batch does not copy them.
struct FunctionalBatchItem {
  const Sequence* a = nullptr;
  const Sequence* b = nullptr;
  ScoreParams params;
  PipelineOptions options;
};

// Re-entrant batched entry point: runs the functional pass of every item
// as ONE coalesced unit, amortizing the pass's fixed costs across the
// batch — items sharing a target sequence (content-identical, same
// index_step) build its seed index once, and all items' seeds run in a
// single worker-pool sweep instead of one pool barrier per pair. Per-item
// results are assembled serially in item order and are bit-identical to a
// per-pair `FastzStudy(a, b, params, options)` construction (pinned by
// tests/fastz/batch_pass_test.cpp). This is the entry point the alignment
// service's micro-batcher dispatches to (see docs/SERVICE.md).
//
// `threads` resolves like PipelineOptions::threads (0 = auto via
// FASTZ_THREADS, then hardware_concurrency) and applies to the whole
// batch; the per-item options.threads field is ignored here.
std::vector<FastzStudy> run_functional_batch(const std::vector<FunctionalBatchItem>& items,
                                             std::size_t threads = 0);

class FastzStudy {
 public:
  // Runs the functional pass: seeding per `base` options, inspection of
  // every seed, execution of non-eager seeds (trimmed), and collection of
  // reported alignments (score >= params.gapped_threshold, deduplicated
  // per base.deduplicate).
  //
  // The per-seed inspect/execute loop runs on `base.threads` workers
  // (0 = auto). Seeds are independent, and all ordered state — alignments,
  // telemetry, cell totals — is assembled serially in seed-index order
  // after the workers join, so every thread count yields bit-identical
  // results (see docs/PERFORMANCE.md for the determinism argument).
  FastzStudy(const Sequence& a, const Sequence& b, const ScoreParams& params,
             const PipelineOptions& base = {});

  // Derives the modeled cost of `config` on `device` from the stored
  // metrics. Functionally the alignments are those of the full pipeline.
  FastzRun derive(const FastzConfig& config, const gpusim::DeviceSpec& device) const;

  const std::vector<Alignment>& alignments() const noexcept { return alignments_; }
  const std::vector<SeedWork>& seed_work() const noexcept { return seed_work_; }
  std::uint64_t seeds() const noexcept { return seed_work_.size(); }
  std::uint64_t inspector_cells() const noexcept { return inspector_cells_; }
  // Census with the paper's default eager tile and kBinEdges.
  BinCensus census() const;
  double functional_wallclock_s() const noexcept { return functional_wallclock_s_; }
  // Worker threads the functional pass actually ran with (after resolving
  // base.threads == 0 via FASTZ_THREADS / hardware_concurrency and clamping
  // to the seed count). Results are identical for every value.
  std::size_t functional_threads() const noexcept { return functional_threads_; }
  std::uint64_t sequence_bytes() const noexcept { return sequence_bytes_; }

 private:
  friend std::vector<FastzStudy> run_functional_batch(
      const std::vector<FunctionalBatchItem>& items, std::size_t threads);

  FastzStudy() = default;  // batch entry point fills the members itself

  // Per-seed worker of the functional pass: a pure function of
  // (sequences, hit, params) writing only seed_work_[idx] and its
  // `executed[idx]` parking slot, so any processing order — including a
  // flat sweep interleaving several studies' seeds — is safe.
  void pass_seed(const Sequence& a, const Sequence& b, const ScoreParams& params,
                 const PipelineOptions& base, const SeedHit& hit, std::size_t idx,
                 std::vector<Alignment>& executed);

  // Serial assembly in seed-index order: alignments_, telemetry
  // instruments, and inspector_cells_ see exactly the sequence the serial
  // pass produces, so census, derive(), dedup, and golden numbers are
  // bit-identical for every thread count and for batched vs per-pair runs.
  void pass_assemble(const PipelineOptions& base, std::vector<Alignment>& executed);

  std::vector<SeedWork> seed_work_;
  std::vector<Alignment> alignments_;
  std::uint64_t inspector_cells_ = 0;
  std::uint64_t sequence_bytes_ = 0;
  std::size_t functional_threads_ = 1;
  double functional_wallclock_s_ = 0.0;
};

// Convenience wrapper: functional pass + derivation in one call.
FastzRun run_fastz(const Sequence& a, const Sequence& b, const ScoreParams& params,
                   const PipelineOptions& base, const FastzConfig& config,
                   const gpusim::DeviceSpec& device,
                   std::vector<Alignment>* alignments_out = nullptr);

}  // namespace fastz
