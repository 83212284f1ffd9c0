// Whole-chromosome alignment: sequential LASTZ vs FastZ, side by side.
//
// The comparative-genomics workflow from the paper's introduction: align a
// chromosome pair, inspect the alignments both pipelines report, and verify
// FastZ's identical-or-longer guarantee on real output. Uses a benchmark
// pair preset (C. elegans chr1 vs C. briggsae chr1 by default).
#include <algorithm>
#include <iostream>

#include "align/lastz_pipeline.hpp"
#include "fastz/fastz_pipeline.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Align a benchmark chromosome pair with sequential LASTZ and "
                "FastZ and compare the outputs.");
  add_harness_flags(cli);
  cli.add_flag("pair", "benchmark pair label (see bench_workloads)", "C1_1,1");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const BenchmarkPair spec = find_pair(cli.get("pair"), options.scale);
  const SyntheticPair pair =
      generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);
  std::cout << "Aligning " << spec.species_a << " vs " << spec.species_b << " ("
            << pair.a.size() << " x " << pair.b.size() << " bp, scale "
            << options.scale << ")\n\n";

  PipelineOptions popts;
  popts.max_seeds = options.max_seeds;
  popts.sample_seed = options.sample_seed;

  Timer t_lastz;
  const PipelineResult lastz = run_lastz(pair.a, pair.b, params, popts);
  const double lastz_s = t_lastz.elapsed_s();

  Timer t_fastz;
  const FastzStudy fastz(pair.a, pair.b, params, popts);
  const double fastz_s = t_fastz.elapsed_s();

  TextTable summary({"Pipeline", "Seeds", "DP cells", "Alignments",
                     "Host wall-clock (s)"});
  summary.add_row({"sequential LASTZ", TextTable::num(lastz.counters.seeds_extended),
                   TextTable::num(lastz.counters.dp_cells),
                   TextTable::num(std::uint64_t{lastz.alignments.size()}),
                   TextTable::num(lastz_s, 2)});
  summary.add_row({"FastZ (functional)", TextTable::num(fastz.seeds()),
                   TextTable::num(fastz.inspector_cells()),
                   TextTable::num(std::uint64_t{fastz.alignments().size()}),
                   TextTable::num(fastz_s, 2)});
  summary.render(std::cout);

  // The paper's correctness criterion: every LASTZ alignment is covered by a
  // FastZ alignment with at least its score (identical or longer).
  std::size_t covered = 0;
  for (const Alignment& l : lastz.alignments) {
    const bool ok = std::any_of(
        fastz.alignments().begin(), fastz.alignments().end(), [&](const Alignment& f) {
          return f.a_begin <= l.a_begin && f.a_end >= l.a_end &&
                 f.b_begin <= l.b_begin && f.b_end >= l.b_end && f.score >= l.score;
        });
    covered += ok ? 1 : 0;
  }
  std::cout << "\nLASTZ alignments covered by FastZ (identical-or-longer): "
            << covered << "/" << lastz.alignments.size() << "\n";

  std::cout << "\nTop alignments (FastZ):\n";
  std::vector<Alignment> top = fastz.alignments();
  std::sort(top.begin(), top.end(),
            [](const Alignment& x, const Alignment& y) { return x.score > y.score; });
  if (top.size() > 10) top.resize(10);
  TextTable ttop({"A range", "B range", "Score", "Length", "Identity"});
  for (const Alignment& aln : top) {
    ttop.add_row({"[" + std::to_string(aln.a_begin) + "," + std::to_string(aln.a_end) + ")",
                  "[" + std::to_string(aln.b_begin) + "," + std::to_string(aln.b_end) + ")",
                  TextTable::num(std::int64_t{aln.score}), TextTable::num(aln.length()),
                  TextTable::num(aln.identity(pair.a, pair.b) * 100, 1) + "%"});
  }
  ttop.render(std::cout);
  return 0;
}
