#include "fastz/fastz_pipeline.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <string>

#include "fastz/strip_kernel.hpp"
#include "gpusim/batch_scheduler.hpp"
#include "gpusim/profiler.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fastz {

namespace {

// Host-side ("other") cost constants — Figure 8's third component: reading
// anchor points and sequence files, host allocation, PCIe copies, sorting
// the anchors into bins, copying eager-surviving anchors for the executor
// (Section 5.2). Calibrated so the host share lands in the paper's range
// (~20-30% of the accelerated pipeline) at the evaluation scale.
constexpr double kHostPrepPerSequenceByte = 1.0e-9;  // parse + allocate + encode
constexpr double kHostPerSeed = 20e-9;               // anchor bookkeeping + bin sort

// Per-warp-step sequence fetch (two bases per anti-diagonal step, served
// mostly from L2; charged on the device ledger).
constexpr std::uint64_t kSequenceBytesPerStep = 2;

struct TaskAccumulator {
  std::vector<gpusim::WarpTask> tasks;
  gpusim::MemoryLedger ledger;
};

// Would-be full-matrix score traffic of a DP region — the counterfactual
// the cyclic use-and-discard buffers are measured against.
constexpr std::uint64_t kScoreBytesPerCell =
    gpusim::kScoreReadBytesPerCell + gpusim::kScoreWriteBytesPerCell;

// Cyclic-buffer materialization invariant: the kernel keeps only the three
// live anti-diagonals of S/I/D in per-lane registers, and per warp step at
// most one 12-byte boundary cell (a single lane's worth of one diagonal —
// far less than the 3 x 36 B of live register state) reaches memory. A
// violation means the accounting materialized score state the register
// scheme says cannot exist, so it is a hard modeling error.
void check_cyclic_materialization(std::uint64_t spill_bytes, std::uint64_t warp_steps) {
  if (spill_bytes > warp_steps * gpusim::kBoundarySpillBytes) {
    throw std::logic_error(
        "cyclic-buffer path materialized more than one boundary cell per warp "
        "step (> 3 anti-diagonals of live score state)");
  }
}

// Linear-traceback invariant: a Hirschberg task's resident traceback state
// is at most one base block — (block_rows + 1) rows of packed codes over a
// window no wider than the task's extents. More than that means the
// accounting materialized rectangle-shaped state the bisection is supposed
// to have eliminated, so it is a hard modeling error, mirroring
// check_cyclic_materialization for score state.
void check_linear_traceback(std::uint64_t peak_trace_bytes, std::uint64_t extent,
                            std::uint32_t block_rows) {
  if (peak_trace_bytes > std::uint64_t{block_rows + 1} * (extent + 2)) {
    throw std::logic_error(
        "hirschberg path materialized more traceback state than one base "
        "block (O(n+m) bound violated)");
  }
}

// Scales a replay-free quantity by the Hirschberg recompute factor
// (1 + replay_cells / cells). `ceil` rounds the scaled value up — used for
// warp steps so the cyclic-materialization invariant survives the scaling
// of both sides of its inequality.
std::uint64_t scale_by_replay(std::uint64_t value, std::uint64_t replay_cells,
                              std::uint64_t cells, bool ceil) {
  if (cells == 0 || replay_cells == 0 || value == 0) return value;
  const unsigned __int128 num =
      static_cast<unsigned __int128>(value) * replay_cells + (ceil ? cells - 1 : 0);
  return value + static_cast<std::uint64_t>(num / cells);
}

// Score-matrix traffic of one task, charged to `ledger`. With cyclic
// use-and-discard buffering only strip-boundary spills reach memory (the
// rest is counted as elided); without it the full matrix is read/written.
// Shared by the inspector and executor task loops — the two phases differ
// only in which cell/spill counts they pass in.
struct ScoreCharge {
  std::uint64_t spill = 0, elided = 0, reads = 0, writes = 0;
  std::uint64_t traffic = 0;  // bytes the task moves for score state
};

ScoreCharge charge_score_traffic(bool cyclic, std::uint64_t cells,
                                 std::uint64_t spill_cells, std::uint64_t steps,
                                 gpusim::MemoryLedger& ledger) {
  ScoreCharge c;
  if (cyclic) {
    c.spill = spill_cells * gpusim::kBoundarySpillBytes;
    check_cyclic_materialization(c.spill, steps);
    const std::uint64_t would_be = cells * kScoreBytesPerCell;
    c.elided = would_be > c.spill ? would_be - c.spill : 0;
    ledger.boundary_spill_bytes += c.spill;
    ledger.register_elided_bytes += c.elided;
    c.traffic = c.spill;
  } else {
    c.reads = cells * gpusim::kScoreReadBytesPerCell;
    c.writes = cells * gpusim::kScoreWriteBytesPerCell;
    ledger.score_read_bytes += c.reads;
    ledger.score_write_bytes += c.writes;
    c.traffic = c.reads + c.writes;
  }
  return c;
}

// Per-task traffic attribution (profiled runs only): the ledger a task
// contributes to its launch's KernelTag::traffic. One assembly for both
// phases; the executor adds its traceback fields on top.
gpusim::MemoryLedger task_traffic_ledger(std::uint64_t seq_bytes, const ScoreCharge& score) {
  gpusim::MemoryLedger led;
  led.sequence_bytes = seq_bytes;
  led.boundary_spill_bytes = score.spill;
  led.register_elided_bytes = score.elided;
  led.score_read_bytes = score.reads;
  led.score_write_bytes = score.writes;
  return led;
}

// Executor work of one derive() slot (a length bin, or the trailing
// Hirschberg slot), summed over its tasks for the registry export.
struct SlotSums {
  std::uint64_t tasks = 0;
  std::uint64_t cells = 0;  // resident traceback bytes, the packed allocation
  std::uint64_t warp_instructions = 0;
  std::uint64_t mem_bytes = 0;
};

// Registry export of one derive()'s outcome: modeled stage times, ledger
// traffic, and the executor's per-bin work composition. Called only when
// telemetry is enabled.
void record_derive(const FastzRun& run, std::span<const SlotSums> slots) {
  auto& reg = telemetry::MetricsRegistry::global();
  reg.counter("fastz.derive.count").add(1);
  reg.counter("fastz.derive.inspector_launches").add(run.inspector_launches);
  reg.counter("fastz.derive.launches").add(run.inspector_launches + run.executor_kernels);
  reg.counter("fastz.derive.executor_kernels").add(run.executor_kernels);
  reg.counter("fastz.derive.eager_handled").add(run.eager_handled);
  reg.counter("fastz.derive.executor_tasks").add(run.executor_tasks);
  reg.counter("fastz.derive.hirschberg_tasks").add(run.hirschberg_tasks);

  reg.counter("fastz.modeled.inspector_ns")
      .add(static_cast<std::uint64_t>(run.modeled.inspector_s * 1e9));
  reg.counter("fastz.modeled.executor_ns")
      .add(static_cast<std::uint64_t>(run.modeled.executor_s * 1e9));
  reg.counter("fastz.modeled.other_ns")
      .add(static_cast<std::uint64_t>(run.modeled.other_s * 1e9));

  const gpusim::MemoryLedger& led = run.ledger;
  reg.counter("fastz.ledger.score_read_bytes").add(led.score_read_bytes);
  reg.counter("fastz.ledger.score_write_bytes").add(led.score_write_bytes);
  reg.counter("fastz.ledger.boundary_spill_bytes").add(led.boundary_spill_bytes);
  reg.counter("fastz.ledger.traceback_bytes").add(led.traceback_bytes);
  reg.counter("fastz.ledger.traceback_wire_bytes").add(led.traceback_wire_bytes);
  reg.counter("fastz.ledger.sequence_bytes").add(led.sequence_bytes);
  reg.counter("fastz.ledger.host_copy_bytes").add(led.host_copy_bytes);
  reg.counter("fastz.ledger.register_elided_bytes").add(led.register_elided_bytes);
  reg.counter("fastz.ledger.shared_staged_bytes").add(led.shared_staged_bytes);
  reg.counter("fastz.ledger.traceback_resident_bytes").add(led.traceback_resident_bytes);

  // The trailing slot is the Hirschberg task group; its "cells" are resident
  // traceback bytes like every other slot's (the allocation the memory
  // batcher packs), not DP cells.
  for (std::size_t bin = 0; bin < slots.size(); ++bin) {
    const SlotSums& slot = slots[bin];
    if (slot.tasks == 0) continue;
    const std::string prefix = bin + 1 == slots.size()
                                   ? std::string("fastz.executor.hirschberg")
                                   : "fastz.executor.bin" + std::to_string(bin);
    reg.counter(prefix + ".tasks").add(slot.tasks);
    reg.counter(prefix + ".cells").add(slot.cells);
    reg.counter(prefix + ".warp_instructions").add(slot.warp_instructions);
    reg.counter(prefix + ".mem_bytes").add(slot.mem_bytes);
  }
}

}  // namespace

void FastzStudy::pass_seed(const Sequence& a, const Sequence& b,
                           const ScoreParams& params, const PipelineOptions& base,
                           const SeedHit& hit, std::size_t idx,
                           std::vector<Alignment>& executed) {
  const FastzConfig functional = FastzConfig::full();
  static const std::size_t seed_span = SpacedSeed::lastz_default().span();
  SeedWork& work = seed_work_[idx];
  {
    telemetry::TraceSpan span("fastz.inspect_seed");
    work.inspection =
        inspect_seed(a, b, hit, seed_span, params, functional, base.one_sided);
  }
  if (work.inspection.eager) {
    work.has_alignment = work.inspection.score >= params.gapped_threshold;
  } else {
    telemetry::TraceSpan span("fastz.execute_seed");
    ExecutorOutcome exec =
        execute_seed(a, b, work.inspection, params, functional, base.one_sided);
    work.trimmed_cells = exec.cells;
    work.trimmed_geom = exec.geom;
    work.trimmed_tb_bytes = exec.traceback_bytes;
    work.trimmed_tb_peak_bytes = exec.traceback_peak_bytes;
    work.trimmed_replay_cells = exec.replay_cells;
    work.trimmed_checkpoint_bytes = exec.checkpoint_bytes;
    work.hirschberg_block_rows = std::max(1u, base.one_sided.hirschberg_block_rows);
    work.hirschberg = exec.hirschberg;
    if (exec.alignment.score >= params.gapped_threshold) {
      work.has_alignment = true;
      executed[idx] = std::move(exec.alignment);
    }
  }
}

void FastzStudy::pass_assemble(const PipelineOptions& base,
                               std::vector<Alignment>& executed) {
  const bool telem = telemetry::enabled();
  telemetry::LogHistogram* h_search_cells = nullptr;
  telemetry::LogHistogram* h_trimmed_cells = nullptr;
  telemetry::Counter* c_eager = nullptr;
  if (telem) {
    auto& reg = telemetry::MetricsRegistry::global();
    h_search_cells = &reg.histogram("fastz.seed.search_cells");
    h_trimmed_cells = &reg.histogram("fastz.seed.trimmed_cells");
    c_eager = &reg.counter("fastz.seeds.eager");
  }
  for (std::size_t idx = 0; idx < seed_work_.size(); ++idx) {
    SeedWork& work = seed_work_[idx];
    inspector_cells_ += work.inspection.search_cells();
    if (telem) h_search_cells->record(work.inspection.search_cells());
    if (work.inspection.eager) {
      if (telem) c_eager->add(1);
      if (work.has_alignment) alignments_.push_back(work.inspection.alignment);
    } else {
      if (telem) h_trimmed_cells->record(work.trimmed_cells);
      if (work.has_alignment) alignments_.push_back(std::move(executed[idx]));
    }
  }
  if (base.deduplicate) deduplicate_alignments(alignments_);
  if (telem) {
    telemetry::MetricsRegistry::global()
        .counter("fastz.alignments")
        .add(alignments_.size());
  }
}

FastzStudy::FastzStudy(const Sequence& a, const Sequence& b, const ScoreParams& params,
                       const PipelineOptions& base) {
  telemetry::TraceSpan pass_span("fastz.functional_pass");
  Timer wallclock;
  params.validate();
  sequence_bytes_ = a.size() + b.size();

  std::vector<SeedHit> hits;
  {
    telemetry::TraceSpan span("fastz.seeding");
    hits = enumerate_seeds(a, b, base);
  }
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry::global().counter("fastz.seeds").add(hits.size());
  }

  functional_threads_ = std::min<std::size_t>(resolve_thread_count(base.threads),
                                              std::max<std::size_t>(1, hits.size()));

  // Alignments that clear the threshold are parked per seed index and
  // collected by the serial assembly below, never pushed concurrently.
  seed_work_.resize(hits.size());
  std::vector<Alignment> executed(hits.size());
  auto process_seed = [&](std::size_t idx) {
    pass_seed(a, b, params, base, hits[idx], idx, executed);
  };

  {
    telemetry::TraceSpan loop_span("fastz.inspect_and_execute");
    if (functional_threads_ <= 1) {
      for (std::size_t idx = 0; idx < hits.size(); ++idx) process_seed(idx);
    } else {
      ThreadPool pool(functional_threads_);
      pool.parallel_for(hits.size(), process_seed);
    }
  }

  // Workers above never touch the registry — per-seed metrics merge in
  // pass_assemble, once, on one thread.
  pass_assemble(base, executed);
  functional_wallclock_s_ = wallclock.elapsed_s();
}

std::vector<FastzStudy> run_functional_batch(const std::vector<FunctionalBatchItem>& items,
                                             std::size_t threads) {
  telemetry::TraceSpan batch_span("fastz.functional_batch");
  Timer wallclock;
  std::vector<FastzStudy> studies;
  studies.reserve(items.size());
  if (items.empty()) return studies;

  const bool telem = telemetry::enabled();
  const SpacedSeed seed = SpacedSeed::lastz_default();

  // ---- Phase A (serial, item order): seeding with shared target indexes.
  // Items whose target sequence is content-identical (and indexed at the
  // same step) reuse one SeedIndex — the batch's biggest fixed-cost
  // amortization for the reference-heavy traffic a service actually sees.
  // find_hits depends only on (query, max_seeds, sample_seed, transitions),
  // so the shared index yields bit-identical hit lists.
  std::map<Digest128, SeedIndex> target_indexes;
  std::vector<std::vector<SeedHit>> hits(items.size());
  std::vector<std::vector<Alignment>> executed(items.size());
  std::size_t total_seeds = 0;
  std::uint64_t shared_targets = 0;
  {
    telemetry::TraceSpan span("fastz.seeding");
    for (std::size_t it = 0; it < items.size(); ++it) {
      const FunctionalBatchItem& item = items[it];
      item.params.validate();
      studies.push_back(FastzStudy());
      FastzStudy& study = studies.back();
      study.sequence_bytes_ = item.a->size() + item.b->size();

      DigestBuilder key;
      key.update_sized(item.a->codes().data(), item.a->size());
      key.update_u64(item.options.index_step);
      const auto [index_it, built] = target_indexes.try_emplace(
          key.finish(), *item.a, seed, item.options.index_step);
      if (!built) ++shared_targets;
      hits[it] = index_it->second.find_hits(*item.b, item.options.max_seeds,
                                            item.options.sample_seed,
                                            item.options.seed_transitions);
      if (telem) {
        telemetry::MetricsRegistry::global().counter("fastz.seeds").add(hits[it].size());
      }
      study.seed_work_.resize(hits[it].size());
      executed[it].resize(hits[it].size());
      total_seeds += hits[it].size();
    }
  }
  if (telem) {
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("fastz.batch.items").add(items.size());
    reg.counter("fastz.batch.shared_targets").add(shared_targets);
  }

  // ---- Phase B: one flat sweep over every item's seeds — a single pool
  // barrier for the whole batch instead of one per pair.
  std::vector<std::uint32_t> owner(total_seeds);
  std::vector<std::size_t> first(items.size());
  {
    std::size_t flat = 0;
    for (std::size_t it = 0; it < items.size(); ++it) {
      first[it] = flat;
      for (std::size_t k = 0; k < hits[it].size(); ++k) owner[flat++] = static_cast<std::uint32_t>(it);
    }
  }
  const std::size_t workers = std::min<std::size_t>(
      resolve_thread_count(threads), std::max<std::size_t>(1, total_seeds));
  auto process_flat = [&](std::size_t flat) {
    const std::size_t it = owner[flat];
    const std::size_t idx = flat - first[it];
    const FunctionalBatchItem& item = items[it];
    studies[it].pass_seed(*item.a, *item.b, item.params, item.options, hits[it][idx],
                          idx, executed[it]);
  };
  {
    telemetry::TraceSpan loop_span("fastz.inspect_and_execute");
    if (workers <= 1) {
      for (std::size_t flat = 0; flat < total_seeds; ++flat) process_flat(flat);
    } else {
      ThreadPool pool(workers);
      pool.parallel_for(total_seeds, process_flat);
    }
  }

  // ---- Phase C (serial, item order): per-item assembly, identical to the
  // single-pair constructor's.
  for (std::size_t it = 0; it < items.size(); ++it) {
    studies[it].pass_assemble(items[it].options, executed[it]);
    studies[it].functional_threads_ = workers;
  }
  const double elapsed = wallclock.elapsed_s();
  for (FastzStudy& study : studies) study.functional_wallclock_s_ = elapsed;
  return studies;
}

BinCensus FastzStudy::census() const {
  constexpr std::uint32_t tile = FastzConfig{}.eager_tile;
  BinCensus census;
  for (const SeedWork& work : seed_work_) census.add(work.inspection, tile);
  return census;
}

FastzRun FastzStudy::derive(const FastzConfig& config,
                            const gpusim::DeviceSpec& device) const {
  // Launch structure (Section 3.4 streams, SaLoBa-style packing): the seeds
  // split over two inspector launches, so chunk k's executors overlap
  // inspector chunk k+1, and every launch's sequence staging is
  // double-buffered (2x staging footprint; uploads overlap the running
  // launch).
  constexpr std::size_t kInspectorLaunches = 2;
  constexpr std::uint64_t kStagingBuffers = 2;

  telemetry::TraceSpan derive_span("fastz.derive");
  FastzRun run;
  run.config = config;
  const gpusim::KernelSimulator sim(device);
  // Per-launch traffic attribution is only assembled while a profiler is
  // installed; the unprofiled sweep skips every per-task ledger below.
  gpusim::ProfilerSession* const prof = gpusim::ProfilerSession::active();

  const std::uint64_t memory_budget = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(device.memory_bytes) * 0.6));

  // ---- Inspector tasks: every seed, in seed-index order. ----------------
  TaskAccumulator insp;
  insp.tasks.reserve(seed_work_.size());
  // Parallel per-task ledgers, filled only when profiling: they roll up into
  // per-launch KernelTag::traffic after the launch boundaries are known.
  std::vector<gpusim::MemoryLedger> insp_task_traffic;
  if (prof != nullptr) insp_task_traffic.reserve(insp.tasks.capacity());
  // Per-task staged sequence bytes, which size each launch's staging.
  std::vector<std::uint64_t> insp_seq;
  insp_seq.reserve(insp.tasks.capacity());
  for (const SeedWork& work : seed_work_) {
    const SeedInspection& ins = work.inspection;
    ++run.seeds;
    const std::uint64_t steps = ins.warp_steps();
    const std::uint64_t cells = ins.search_cells();
    run.inspector_cells += cells;

    gpusim::WarpTask task;
    task.warp_instructions = steps * gpusim::kOpsPerCell;
    const std::uint64_t seq_bytes = steps * kSequenceBytesPerStep;
    insp.ledger.sequence_bytes += seq_bytes;
    const ScoreCharge score = charge_score_traffic(
        config.cyclic_buffers, cells,
        ins.left.geom.spill_cells + ins.right.geom.spill_cells, steps, insp.ledger);
    task.mem_bytes = score.traffic + seq_bytes;
    insp.tasks.push_back(task);
    insp_seq.push_back(seq_bytes);
    if (prof != nullptr) insp_task_traffic.push_back(task_traffic_ledger(seq_bytes, score));
  }

  // ---- Executor tasks. -----------------------------------------------------
  // Per-problem traceback allocations must fit device memory together; the
  // inspector's exact sizes let the executor pack problems tightly, and a
  // pack whose aggregate allocation exceeds the budget is split into
  // multiple launches (Section 3.1.3: "precise allocation enables FastZ to
  // pack many more seed extensions into one kernel"). Untrimmed executors
  // allocate the whole search space — the footprint difference is what
  // packing makes visible.
  // Telemetry sums the work per length bin, plus a dedicated trailing slot
  // for Hirschberg tasks: their warp work includes checkpoint replay and
  // their footprint is O(n+m), so lumping them into bin 3 would hide exactly
  // the behavior the linear path changes.
  const std::size_t hb_slot = kBinEdges.size() + 1;
  std::vector<SlotSums> slots(kBinEdges.size() + 2);
  // Flat, seed-ordered executor records: the task, its resident allocation,
  // its staged sequence bytes, and its seed's index (which inspector chunk
  // feeds it).
  struct ExecRec {
    gpusim::WarpTask task;
    std::uint64_t alloc = 0;
    std::uint64_t seq = 0;
    std::uint32_t seed = 0;
    bool hb = false;
  };
  std::vector<ExecRec> recs;
  std::vector<gpusim::MemoryLedger> exec_task_traffic;  // parallel to recs
  gpusim::MemoryLedger exec_ledger;
  for (std::size_t idx = 0; idx < seed_work_.size(); ++idx) {
    const SeedWork& work = seed_work_[idx];
    const SeedInspection& ins = work.inspection;
    const bool eligible = eager_eligible(ins, config.eager_tile);
    run.census.add(ins, config.eager_tile);
    if (config.eager_traceback && eligible) {
      ++run.eager_handled;
      continue;  // finished inside the inspector; no executor task
    }
    ++run.executor_tasks;

    std::uint64_t cells;
    StripGeometry geom;
    if (!config.executor_trimming) {
      // Untrimmed: the executor re-runs the full search space with
      // traceback, like a one-pass implementation.
      cells = ins.search_cells();
      geom.warp_steps = ins.warp_steps();
      geom.spill_cells = ins.left.geom.spill_cells + ins.right.geom.spill_cells;
    } else if (eligible) {
      // Eager disabled but the alignment is tile-sized: the trimmed
      // executor rectangle is the tiny optimal box.
      cells = std::uint64_t{ins.left.best.i} * ins.left.best.j +
              std::uint64_t{ins.right.best.i} * ins.right.best.j;
      geom.warp_steps = std::uint64_t{ins.left.best.i} + ins.right.best.i + 2 * kWarpWidth;
      geom.spill_cells = 0;
    } else {
      cells = work.trimmed_cells;
      geom = work.trimmed_geom;
    }

    // Hirschberg tasks replay rows from checkpoints; their warp work and
    // score traffic scale by (1 + replay/cells), but the traceback bytes
    // shrink to the materialized base blocks. Only the trimmed path has the
    // accounting (the functional pass always runs trimmed); the untrimmed
    // ablation models the one-pass dense executor regardless.
    const bool hb = config.executor_trimming && !eligible && work.hirschberg;
    const std::uint64_t replay = hb ? work.trimmed_replay_cells : 0;
    const std::uint64_t steps = scale_by_replay(geom.warp_steps, replay, cells, true);
    const std::uint64_t spill_cells = scale_by_replay(geom.spill_cells, replay, cells, false);
    run.executor_cells += cells + replay;

    gpusim::WarpTask task;
    task.warp_instructions = steps * gpusim::kOpsPerCell;
    const std::uint64_t seq_bytes = steps * kSequenceBytesPerStep;
    exec_ledger.sequence_bytes += seq_bytes;

    const ScoreCharge score = charge_score_traffic(config.cyclic_buffers, cells + replay,
                                                   spill_cells, steps, exec_ledger);
    const std::uint64_t tb_bytes = hb ? work.trimmed_tb_bytes : cells;
    const std::uint64_t tb_wire =
        config.staged_traceback_writes ? tb_bytes : tb_bytes * gpusim::kSectorBytes;
    exec_ledger.traceback_bytes += tb_bytes;
    exec_ledger.traceback_wire_bytes += tb_wire;
    if (config.staged_traceback_writes) exec_ledger.shared_staged_bytes += tb_bytes;

    // Device-resident footprint of this problem: the whole packed rectangle
    // on the dense path (one byte per computed cell), one base block plus
    // live checkpoints on the linear path.
    std::uint64_t alloc = cells;
    if (hb) {
      alloc = work.trimmed_tb_peak_bytes + work.trimmed_checkpoint_bytes;
      check_linear_traceback(work.trimmed_tb_peak_bytes,
                             std::uint64_t{ins.a_extent()} + ins.b_extent(),
                             work.hirschberg_block_rows);
      ++run.hirschberg_tasks;
    }
    exec_ledger.traceback_resident_bytes += alloc;

    task.mem_bytes = score.traffic + tb_wire + seq_bytes;
    SlotSums& slot = slots[hb ? hb_slot : (eligible ? 0 : bin_index(ins.box()))];
    ++slot.tasks;
    slot.cells += alloc;
    slot.warp_instructions += task.warp_instructions;
    slot.mem_bytes += task.mem_bytes;
    recs.push_back({task, alloc, seq_bytes, static_cast<std::uint32_t>(idx), hb});
    if (prof != nullptr) {
      gpusim::MemoryLedger task_led = task_traffic_ledger(seq_bytes, score);
      if (config.staged_traceback_writes) task_led.shared_staged_bytes = tb_bytes;
      task_led.traceback_bytes = tb_bytes;
      task_led.traceback_wire_bytes = tb_wire;
      task_led.traceback_resident_bytes = alloc;
      exec_task_traffic.push_back(task_led);
    }
  }

  run.ledger.merge(insp.ledger);
  run.ledger.merge(exec_ledger);

  // ---- Launches: the batch scheduler packs seeds into few large launches
  // and the pipeline scheduler keeps the streams persistently fed —
  // executor launches chase their own inspector chunk instead of a
  // per-phase barrier. -------------------------------------------------------
  const std::size_t n_insp = insp.tasks.size();
  const std::size_t chunk_count = std::min(kInspectorLaunches, n_insp);
  std::vector<gpusim::StreamLaunch> launches;
  std::vector<gpusim::KernelTag> tags;
  std::uint64_t staging_high_water = 0;

  // Inspector launches: contiguous seed-index ranges, LPT-balanced
  // inside each launch, sequences staged (double-buffered) for the span
  // of the launch.
  std::vector<std::size_t> chunk_begin(chunk_count + 1, 0);
  for (std::size_t j = 0; j <= chunk_count; ++j) {
    chunk_begin[j] = chunk_count == 0 ? 0 : j * n_insp / chunk_count;
  }
  for (std::size_t j = 0; j < chunk_count; ++j) {
    const std::size_t begin = chunk_begin[j], end = chunk_begin[j + 1];
    std::vector<gpusim::BatchTask> range;
    range.reserve(end - begin);
    for (std::size_t k = begin; k < end; ++k) {
      range.push_back({insp.tasks[k], insp_seq[k] * kStagingBuffers});
    }
    gpusim::LaunchPlan plan = gpusim::pack_tasks(range, {.memory_budget = 0});
    gpusim::PackedLaunch& packed = plan.launches.front();  // unlimited: one launch
    staging_high_water = std::max(staging_high_water, packed.resident_bytes);
    gpusim::StreamLaunch launch;
    launch.tasks = std::move(packed.tasks);
    launch.resident_bytes = packed.resident_bytes;
    gpusim::KernelTag tag;
    tag.name = "inspector";
    tag.phase = "inspector";
    if (prof != nullptr) {
      for (std::size_t k = begin; k < end; ++k) tag.traffic.merge(insp_task_traffic[k]);
      tag.traffic.staging_buffer_bytes = packed.resident_bytes;
    }
    launches.push_back(std::move(launch));
    tags.push_back(std::move(tag));
  }
  run.inspector_launches = chunk_count;

  // Executor launches: per inspector chunk, dense tasks packed cross-bin
  // in seed order under the memory budget; Hirschberg tasks packed
  // separately (their replay work and O(n+m) footprint would hide inside
  // a dense launch). Each launch depends only on its own chunk's
  // inspector launch, so chunk k's executors overlap inspector chunk k+1.
  std::size_t rec_pos = 0;  // recs are in seed-index order
  for (std::size_t j = 0; j < chunk_count; ++j) {
    std::vector<gpusim::BatchTask> dense, hirsch;
    std::vector<std::uint32_t> dense_idx, hirsch_idx;  // indices into recs
    while (rec_pos < recs.size() && recs[rec_pos].seed < chunk_begin[j + 1]) {
      const ExecRec& rec = recs[rec_pos];
      (rec.hb ? hirsch : dense)
          .push_back({rec.task, rec.alloc + rec.seq * kStagingBuffers});
      (rec.hb ? hirsch_idx : dense_idx).push_back(static_cast<std::uint32_t>(rec_pos));
      ++rec_pos;
    }
    for (int kind = 0; kind < 2; ++kind) {
      const auto& idxs = kind == 0 ? dense_idx : hirsch_idx;
      if (idxs.empty()) continue;
      gpusim::LaunchPlan plan = gpusim::pack_tasks(kind == 0 ? dense : hirsch,
                                                   {.memory_budget = memory_budget});
      for (std::size_t p = 0; p < plan.launches.size(); ++p) {
        gpusim::PackedLaunch& packed = plan.launches[p];
        gpusim::KernelTag tag;
        tag.name = kind == 0 ? "executor.batch" + std::to_string(j)
                             : std::string("executor.hirschberg");
        if (plan.launches.size() > 1) tag.name += ".part" + std::to_string(p);
        tag.phase = "executor";
        std::uint64_t launch_staging = 0;
        for (const std::uint32_t q : packed.order) {
          const ExecRec& rec = recs[idxs[q]];
          launch_staging += rec.seq * kStagingBuffers;
          if (prof != nullptr) tag.traffic.merge(exec_task_traffic[idxs[q]]);
        }
        if (prof != nullptr) tag.traffic.staging_buffer_bytes = launch_staging;
        staging_high_water = std::max(staging_high_water, launch_staging);
        gpusim::StreamLaunch launch;
        launch.tasks = std::move(packed.tasks);
        launch.resident_bytes = packed.resident_bytes;
        launch.deps.push_back(static_cast<std::uint32_t>(j));
        launches.push_back(std::move(launch));
        tags.push_back(std::move(tag));
        ++run.executor_kernels;
      }
    }
  }
  run.ledger.staging_buffer_bytes += staging_high_water;

  const gpusim::PipelineRun pipe =
      sim.run_pipeline(launches, config.streams, memory_budget, tags);
  double insp_end = 0.0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    gpusim::KernelCost& phase = i < chunk_count ? run.inspector_cost : run.executor_cost;
    const gpusim::KernelCost& cost = pipe.launches[i];
    phase.tasks += cost.tasks;
    phase.warp_instructions += cost.warp_instructions;
    phase.mem_bytes += cost.mem_bytes;
    phase.compute_time_s += cost.compute_time_s;
    phase.memory_time_s += cost.memory_time_s;
    phase.launch_overhead_s += cost.launch_overhead_s;
    if (i < chunk_count) insp_end = std::max(insp_end, pipe.end_s[i]);
  }
  // Phase split on the overlapped timeline: the inspector phase ends when
  // its last launch retires; what remains is the *exposed* executor tail
  // — the part the end-to-end overlap could not hide.
  run.modeled.inspector_s = insp_end;
  run.modeled.executor_s = std::max(0.0, pipe.total.time_s - insp_end);
  run.inspector_cost.time_s = run.modeled.inspector_s;
  run.executor_cost.time_s = run.modeled.executor_s;

  // ---- Host ("other") component. ------------------------------------------
  std::uint64_t copy_bytes = sequence_bytes_;        // sequences to the device
  copy_bytes += run.seeds * 8;                       // anchors up
  copy_bytes += run.seeds * 16;                      // inspector findings down
  copy_bytes += run.executor_tasks * 24;             // surviving anchors up
  for (const Alignment& aln : alignments_) copy_bytes += 32 + aln.ops.size();
  run.ledger.host_copy_bytes = copy_bytes;

  run.modeled.other_s = static_cast<double>(sequence_bytes_) * kHostPrepPerSequenceByte +
                        static_cast<double>(run.seeds) * kHostPerSeed +
                        static_cast<double>(copy_bytes) / (device.pcie_bandwidth_gbps * 1e9);
  if (telemetry::enabled()) record_derive(run, slots);
  if (prof != nullptr) prof->note_seeds(run.seeds, run.eager_handled);
  return run;
}

FastzRun run_fastz(const Sequence& a, const Sequence& b, const ScoreParams& params,
                   const PipelineOptions& base, const FastzConfig& config,
                   const gpusim::DeviceSpec& device,
                   std::vector<Alignment>* alignments_out) {
  const FastzStudy study(a, b, params, base);
  FastzRun run = study.derive(config, device);
  if (alignments_out != nullptr) *alignments_out = study.alignments();
  return run;
}

}  // namespace fastz
