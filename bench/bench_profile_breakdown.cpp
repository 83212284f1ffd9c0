// Section 2.1 profile — where does sequential gapped LASTZ spend its time?
//
// The paper profiles gapped LASTZ with AMD uProf and finds one function,
// `ydrop_one_sided_align`, accounting for over 99.75% of the execution
// time. This bench measures the wall-clock split between the seeding,
// filtering, and gapped-extension (DP) stages of our sequential pipeline.
#include <iostream>

#include "align/lastz_pipeline.hpp"
#include "report/experiment.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli(
      "Section 2.1 profile — sequential gapped LASTZ stage breakdown "
      "(the DP component dominates).");
  add_harness_flags(cli);
  cli.add_flag("pair", "benchmark pair label", "C1_1,1");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const BenchmarkPair spec = find_pair(cli.get("pair"), options.scale);
  const SyntheticPair pair =
      generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);

  PipelineOptions popts;
  popts.max_seeds = options.max_seeds;
  popts.sample_seed = options.sample_seed;
  const PipelineResult r = run_lastz(pair.a, pair.b, params, popts);

  std::cout << "=== Section 2.1: sequential gapped LASTZ profile (" << spec.label
            << ") ===\n";
  TextTable t({"Stage", "Time (s)", "Share", ""});
  auto share = [&](double s) { return s / r.counters.total_time_s; };
  auto row = [&](const char* name, double s) {
    t.add_row({name, TextTable::num(s, 4), TextTable::num(share(s) * 100, 2) + "%",
               ascii_bar(share(s), 40)});
  };
  row("seeding", r.counters.seed_time_s);
  row("ungapped filter", r.counters.filter_time_s);
  row("gapped extension (ydrop_one_sided_align)", r.counters.extend_time_s);
  t.add_row({"total", TextTable::num(r.counters.total_time_s, 4), "100%", ""});
  t.render(std::cout);

  std::cout << "\nSeeds extended: " << r.counters.seeds_extended
            << ", DP cells: " << r.counters.dp_cells << " ("
            << TextTable::num(static_cast<double>(r.counters.dp_cells) /
                                  static_cast<double>(r.counters.seeds_extended),
                              0)
            << " per seed), alignments: " << r.alignments.size() << "\n";
  std::cout << "Paper's claim to check: the DP stage accounts for >99% of the "
               "run time (ours is a coarser stage split than a function "
               "profiler; expect >95%).\n";
  return 0;
}
