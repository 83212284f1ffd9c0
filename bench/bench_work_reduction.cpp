// Sequential work reduction vs parallel superset (Sections 2.1, 3.4).
//
// LASTZ terminates seed extensions that reach a previously-discovered
// alignment; the optimization is order-dependent and unavailable to FastZ
// (or any parallel implementation). This bench measures, per benchmark
// pair: the seeds LASTZ skips, the DP cells the reduction saves, and the
// superset of cells FastZ (conservative pruning, no termination) explores —
// the work it "gives up ... to avoid changing the alignment boundaries
// while still being significantly faster".
#include <iostream>

#include "align/lastz_pipeline.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("LASTZ's stop-at-prior-alignment work reduction vs the "
                "parallel implementations' superset exploration.");
  add_harness_flags(cli);
  cli.add_flag("pairs", "number of benchmark pairs to run (1-9)", "3");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  auto specs = same_genus_pairs(options.scale);
  specs.resize(static_cast<std::size_t>(
      std::clamp<std::int64_t>(cli.get_int("pairs"), 1, 9)));

  std::cout << "=== Sequential work reduction vs parallel superset ===\n";
  TextTable t({"Benchmark", "Seeds", "Skipped", "Cells (LASTZ+reduction)",
               "Cells (LASTZ)", "Cells (FastZ inspector)", "Reduction", "Superset"});
  for (const BenchmarkPair& spec : specs) {
    const SyntheticPair pair =
        generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);
    PipelineOptions base;
    base.max_seeds = options.max_seeds;
    base.sample_seed = options.sample_seed;
    PipelineOptions reduced = base;
    reduced.stop_at_prior_alignment = true;

    const PipelineResult with = run_lastz(pair.a, pair.b, params, reduced);
    const PipelineResult without = run_lastz(pair.a, pair.b, params, base);
    const FastzStudy fastz(pair.a, pair.b, params, base);

    t.add_row({spec.label, TextTable::num(without.counters.seed_hits),
               TextTable::num(with.counters.seeds_skipped),
               TextTable::num(with.counters.dp_cells),
               TextTable::num(without.counters.dp_cells),
               TextTable::num(fastz.inspector_cells()),
               TextTable::num(100.0 * (1.0 - static_cast<double>(with.counters.dp_cells) /
                                                 static_cast<double>(without.counters.dp_cells)),
                              1) + "%",
               TextTable::num(static_cast<double>(fastz.inspector_cells()) /
                                  static_cast<double>(with.counters.dp_cells),
                              2) + "x"});
    std::cerr << "[work-reduction] " << spec.label << " done\n";
  }
  t.render(std::cout);

  std::cout << "\nReading: the reduction saves LASTZ a modest fraction of DP "
               "cells on seed-dense homologies; the parallel superset factor "
               "is what FastZ's raw speedups already absorb (Section 3.4: "
               "identical-or-longer alignments, at most 0.005% longer in the "
               "paper's runs).\n";
  return 0;
}
