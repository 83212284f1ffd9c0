#include "replay.hpp"

#include <algorithm>

#include "fastz/executor.hpp"
#include "fastz/inspector.hpp"
#include "report/experiment.hpp"
#include "seed/spaced_seed.hpp"
#include "util/timer.hpp"

namespace perfbench {

using fastz::Alignment;
using fastz::ExecutorOutcome;
using fastz::FastzConfig;
using fastz::SeedHit;
using fastz::SeedInspection;
using fastz::Timer;

namespace {

bool same_side(const fastz::SideInspection& x, const fastz::SideInspection& y) {
  return x.best.score == y.best.score && x.best.i == y.best.i && x.best.j == y.best.j &&
         x.cells == y.cells && x.rows == y.rows && x.truncated == y.truncated;
}

}  // namespace

std::vector<Alignment> replay_pair(const fastz::Sequence& a, const fastz::Sequence& b,
                                   const fastz::ScoreParams& params,
                                   const fastz::PipelineOptions& options,
                                   LayerTotals& totals) {
  const FastzConfig functional = FastzConfig::full();
  const std::size_t seed_span = fastz::SpacedSeed::lastz_default().span();

  Timer enumerate_timer;
  const std::vector<SeedHit> hits = fastz::enumerate_seeds(a, b, options);
  totals.enumerate_s.add(enumerate_timer.elapsed_s());
  totals.hits += hits.size();

  std::vector<Alignment> alignments;
  for (const SeedHit& hit : hits) {
    Timer inspect_timer;
    SeedInspection inspection =
        fastz::inspect_seed(a, b, hit, seed_span, params, functional, options.one_sided);
    totals.inspect_us.add(inspect_timer.elapsed_us());
    totals.inspector_cells += inspection.search_cells();
    if (inspection.eager) {
      ++totals.eager;
      if (inspection.score >= params.gapped_threshold) {
        alignments.push_back(std::move(inspection.alignment));
      }
      continue;
    }
    Timer execute_timer;
    ExecutorOutcome exec =
        fastz::execute_seed(a, b, inspection, params, functional, options.one_sided);
    totals.execute_ms.add(execute_timer.elapsed_ms());
    ++totals.executor_tasks;
    totals.executor_cells += exec.cells;
    totals.linear_tasks += exec.hirschberg ? 1 : 0;
    totals.replay_cells += exec.replay_cells;
    totals.tb_peak_bytes = std::max(totals.tb_peak_bytes, exec.traceback_peak_bytes);
    if (exec.alignment.score >= params.gapped_threshold) {
      alignments.push_back(std::move(exec.alignment));
    }
  }
  if (options.deduplicate) fastz::deduplicate_alignments(alignments);
  return alignments;
}

std::size_t spot_check(const fastz::Sequence& a, const fastz::Sequence& b,
                       const fastz::ScoreParams& params,
                       const fastz::PipelineOptions& options,
                       const fastz::FastzStudy& study, std::size_t stride,
                       std::size_t& mismatches) {
  const FastzConfig functional = FastzConfig::full();
  const std::size_t seed_span = fastz::SpacedSeed::lastz_default().span();
  const std::vector<SeedHit> hits = fastz::enumerate_seeds(a, b, options);
  if (hits.size() != study.seed_work().size()) {
    ++mismatches;
    return 0;
  }
  std::size_t checked = 0;
  for (std::size_t idx = 0; idx < hits.size(); idx += std::max<std::size_t>(1, stride)) {
    const fastz::SeedWork& work = study.seed_work()[idx];
    const SeedInspection inspection = fastz::inspect_seed(
        a, b, hits[idx], seed_span, params, functional, options.one_sided);
    bool same = inspection.eager == work.inspection.eager &&
                inspection.score == work.inspection.score &&
                same_side(inspection.left, work.inspection.left) &&
                same_side(inspection.right, work.inspection.right);
    if (same && !inspection.eager) {
      const ExecutorOutcome exec =
          fastz::execute_seed(a, b, inspection, params, functional, options.one_sided);
      same = exec.cells == work.trimmed_cells && exec.hirschberg == work.hirschberg &&
             exec.traceback_peak_bytes == work.trimmed_tb_peak_bytes &&
             exec.replay_cells == work.trimmed_replay_cells &&
             (exec.alignment.score >= params.gapped_threshold) == work.has_alignment;
    }
    mismatches += same ? 0 : 1;
    ++checked;
  }
  return checked;
}

std::vector<Rung> fig9_ladder() {
  std::vector<Rung> ladder;
  FastzConfig config = FastzConfig::load_balance_only();
  ladder.push_back({"load_balance", config});
  config.with_cyclic_buffers();
  ladder.push_back({"cyclic_buffers", config});
  config.with_eager_traceback();
  ladder.push_back({"eager_traceback", config});
  config.with_executor_trimming();
  ladder.push_back({"fastz_full", config});
  config.streams = 1;
  ladder.push_back({"single_stream", config});
  return ladder;
}

std::vector<NamedDevice> evaluation_devices() {
  const fastz::DeviceSet devices = fastz::default_devices();
  return {{"pascal", devices.pascal}, {"volta", devices.volta}, {"ampere", devices.ampere}};
}

namespace {

struct SlotConfig {
  const Rung& rung;
  const NamedDevice& device;
};

// Configuration `config` of a study's sweep, rung-major over devices.
SlotConfig slot_config(std::size_t config, const std::vector<Rung>& ladder,
                       const std::vector<NamedDevice>& devices) {
  return {ladder[config / devices.size()], devices[config % devices.size()]};
}

}  // namespace

void derive_for(DeriveSweep& sweep, const std::vector<const fastz::FastzStudy*>& studies,
                double seconds, std::size_t min_samples) {
  const std::vector<Rung> ladder = fig9_ladder();
  const std::vector<NamedDevice> devices = evaluation_devices();
  const std::size_t configs = ladder.size() * devices.size();
  const std::size_t slots = studies.size() * configs;
  const std::size_t per_sample = sweep.whole_study ? configs : 1;
  std::vector<fastz::FastzRun> results(per_sample);
  Timer elapsed;
  while (elapsed.elapsed_s() < seconds || sweep.call_ms.count() < min_samples ||
         sweep.runs.size() < slots) {
    const std::size_t first = sweep.next_slot;
    sweep.next_slot = (first + per_sample) % slots;
    Timer call;
    for (std::size_t j = 0; j < per_sample; ++j) {
      const SlotConfig config = slot_config((first + j) % configs, ladder, devices);
      results[j] = studies[(first + j) / configs]->derive(config.rung.config, config.device.spec);
    }
    const double ms = call.elapsed_ms();
    sweep.call_ms.add(ms / static_cast<double>(per_sample));
    sweep.busy_ms += ms;
    sweep.calls += per_sample;

    for (std::size_t j = 0; j < per_sample; ++j) {
      fastz::DigestBuilder digest;
      digest_run(digest, results[j]);
      if (first + j == sweep.runs.size()) {
        sweep.runs.push_back(results[j]);
        sweep.digests.push_back(digest.finish());
      } else {
        sweep.deterministic = sweep.deterministic && digest.finish() == sweep.digests[first + j];
      }
    }
  }
}

ModeledTotals modeled_totals(const DeriveSweep& sweep, std::size_t studies) {
  const std::vector<Rung> ladder = fig9_ladder();
  const std::vector<NamedDevice> devices = evaluation_devices();
  const std::size_t configs = ladder.size() * devices.size();
  ModeledTotals totals;
  totals.ampere_total_per_study.assign(studies, 0.0);
  for (std::size_t slot = 0; slot < sweep.runs.size(); ++slot) {
    const SlotConfig config = slot_config(slot % configs, ladder, devices);
    if (config.rung.key != "fastz_full") continue;
    const fastz::FastzRun& run = sweep.runs[slot];
    const double total = run.modeled.total_s();
    if (config.device.key == "pascal") totals.total_s_pascal += total;
    if (config.device.key == "volta") totals.total_s_volta += total;
    if (config.device.key != "ampere") continue;
    totals.total_s_ampere += total;
    totals.ampere_total_per_study[slot / configs] = total;
    totals.inspector_s += run.modeled.inspector_s;
    totals.executor_s += run.modeled.executor_s;
    totals.launches += run.inspector_launches + run.executor_kernels;
    totals.executor_tasks += run.executor_tasks;
    totals.eager_handled += run.eager_handled;
  }
  return totals;
}

}  // namespace perfbench
