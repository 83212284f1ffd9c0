// Layer-by-layer timing from the benchmark's own files: a serial replay of
// the functional pass through the public per-layer entry points
// (enumerate_seeds -> inspect_seed -> execute_seed), and the derive sweep
// over the Figure 9 ladder and the three evaluation GPUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "align/lastz_pipeline.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "gpusim/device_spec.hpp"
#include "measure.hpp"
#include "sequence/sequence.hpp"

namespace perfbench {

// Work and busy time of the seed, inspector and executor layers, summed
// over every replayed pair.
struct LayerTotals {
  Samples enumerate_s;  // one sample per pair
  Samples inspect_us;   // one sample per seed
  Samples execute_ms;   // one sample per executor task
  std::uint64_t hits = 0;
  std::uint64_t inspector_cells = 0;
  std::uint64_t eager = 0;
  std::uint64_t executor_tasks = 0;
  std::uint64_t executor_cells = 0;
  std::uint64_t linear_tasks = 0;   // executor tasks on the Hirschberg path
  std::uint64_t replay_cells = 0;   // Hirschberg checkpoint-replay cells
  std::uint64_t tb_peak_bytes = 0;  // max resident traceback bytes of a task

  double serial_s() const {
    return enumerate_s.sum() + inspect_us.sum() * 1e-6 + execute_ms.sum() * 1e-3;
  }
};

// Replays one pair's functional pass serially, timing every call, and
// returns its alignments assembled exactly as FastzStudy assembles them
// (seed order, gapped threshold, optional dedup).
std::vector<fastz::Alignment> replay_pair(const fastz::Sequence& a, const fastz::Sequence& b,
                                          const fastz::ScoreParams& params,
                                          const fastz::PipelineOptions& options,
                                          LayerTotals& totals);

// Replays every `stride`-th seed of `study` and compares its inspection and
// executor record with the study's. Returns the number of seeds compared;
// `mismatches` counts disagreements (seed count included).
std::size_t spot_check(const fastz::Sequence& a, const fastz::Sequence& b,
                       const fastz::ScoreParams& params,
                       const fastz::PipelineOptions& options,
                       const fastz::FastzStudy& study, std::size_t stride,
                       std::size_t& mismatches);

// One rung of the Figure 9 ladder.
struct Rung {
  std::string key;
  fastz::FastzConfig config;
};
std::vector<Rung> fig9_ladder();  // load_balance .. fastz_full, single_stream

struct NamedDevice {
  std::string key;  // "pascal" | "volta" | "ampere"
  fastz::gpusim::DeviceSpec spec;
};
std::vector<NamedDevice> evaluation_devices();

// derive() calls over the slots studies x ladder x devices, visited in
// study-major order and cyclically, so every study is sampled evenly. A
// sample is one call where calls take milliseconds (genome_pair), or one
// study's whole ladder x devices sweep where they take microseconds (the
// longtail and service studies: a lone call's tail would measure the
// host's interrupts rather than derive()). It records the per-call mean.
// A slot's first result is kept in `runs`; every later call of the slot
// must reproduce it bit for bit.
struct DeriveSweep {
  explicit DeriveSweep(bool whole_study_samples) : whole_study(whole_study_samples) {}
  bool whole_study;
  Samples call_ms;
  std::uint64_t calls = 0;
  double busy_ms = 0.0;
  std::vector<fastz::FastzRun> runs;      // per slot, from its first call
  std::vector<fastz::Digest128> digests;  // of `runs`
  std::size_t next_slot = 0;              // where derive_for resumes
  bool deterministic = true;
};
// Takes samples until `seconds` have passed, the sweep holds at least
// `min_samples` samples, and every slot has been called once.
void derive_for(DeriveSweep& sweep, const std::vector<const fastz::FastzStudy*>& studies,
                double seconds, std::size_t min_samples = 0);

// Per-layer model outputs of a sweep's first results (full
// configuration), summed over studies.
struct ModeledTotals {
  double total_s_pascal = 0.0, total_s_volta = 0.0, total_s_ampere = 0.0;
  double inspector_s = 0.0, executor_s = 0.0;  // Ampere
  std::uint64_t launches = 0, executor_tasks = 0, eager_handled = 0;  // Ampere
  std::vector<double> ampere_total_per_study;
};
ModeledTotals modeled_totals(const DeriveSweep& sweep, std::size_t studies);

}  // namespace perfbench
