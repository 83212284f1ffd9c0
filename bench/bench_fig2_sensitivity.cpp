// Figure 2 — gapped versus ungapped LASTZ sensitivity.
//
// The paper compares alignments found with and without the ungapped x-drop
// filter on a C. elegans / C. briggsae workload: the gapped variant finds
// more, longer, higher-scoring alignments (e.g. more than twice as many
// alignments with score > 10,000: 41 vs 17). This bench runs both pipeline
// variants on the C1 synthetic pair and prints the score/length census plus
// the high-score counts.
#include <algorithm>
#include <iostream>

#include "align/lastz_pipeline.hpp"
#include "report/experiment.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

namespace {

struct VariantStats {
  std::size_t count = 0;
  std::uint64_t max_length = 0;
  Score max_score = 0;
  double mean_length = 0;
  std::size_t over_threshold = 0;
};

VariantStats summarize(const std::vector<Alignment>& alignments, Score threshold) {
  VariantStats s;
  s.count = alignments.size();
  double total_len = 0;
  for (const Alignment& aln : alignments) {
    s.max_length = std::max(s.max_length, aln.span());
    s.max_score = std::max(s.max_score, aln.score);
    total_len += static_cast<double>(aln.span());
    if (aln.score > threshold) ++s.over_threshold;
  }
  s.mean_length = s.count ? total_len / static_cast<double>(s.count) : 0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Figure 2 — gapped vs ungapped LASTZ: the gapped variant finds more, "
      "longer, higher-scoring alignments.");
  add_harness_flags(cli);
  cli.add_flag("pair", "benchmark pair label", "C1_1,1");
  cli.add_flag("high-score", "high-score census threshold (paper: 10000)", "10000");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);
  const auto threshold = static_cast<Score>(cli.get_int("high-score"));

  const BenchmarkPair spec = find_pair(cli.get("pair"), options.scale);
  const SyntheticPair pair =
      generate_pair(spec.model, spec.generator_seed, spec.species_a, spec.species_b);
  std::cerr << "[fig2] " << spec.label << ": " << pair.a.size() << " x "
            << pair.b.size() << " bp\n";

  PipelineOptions gapped_options;
  gapped_options.max_seeds = options.max_seeds;
  gapped_options.sample_seed = options.sample_seed;
  PipelineOptions ungapped_options = gapped_options;
  ungapped_options.use_ungapped_filter = true;

  const PipelineResult gapped = run_lastz(pair.a, pair.b, params, gapped_options);
  const PipelineResult ungapped = run_lastz(pair.a, pair.b, params, ungapped_options);

  const VariantStats g = summarize(gapped.alignments, threshold);
  const VariantStats u = summarize(ungapped.alignments, threshold);

  std::cout << "=== Figure 2: gapped vs ungapped alignments (" << spec.label << ") ===\n";
  TextTable t({"Variant", "Seeds extended", "Alignments", "Mean length",
               "Max length", "Max score", "Score > " + std::to_string(threshold)});
  t.add_row({"gapped LASTZ", TextTable::num(gapped.counters.seeds_extended),
             TextTable::num(std::uint64_t{g.count}), TextTable::num(g.mean_length, 1),
             TextTable::num(g.max_length), TextTable::num(std::int64_t{g.max_score}),
             TextTable::num(std::uint64_t{g.over_threshold})});
  t.add_row({"ungapped LASTZ", TextTable::num(ungapped.counters.seeds_extended),
             TextTable::num(std::uint64_t{u.count}), TextTable::num(u.mean_length, 1),
             TextTable::num(u.max_length), TextTable::num(std::int64_t{u.max_score}),
             TextTable::num(std::uint64_t{u.over_threshold})});
  t.render(std::cout);

  std::cout << "\nScatter points (length, score), gapped variant:\n";
  TextTable scatter({"length", "score", "variant"});
  auto add_points = [&](const std::vector<Alignment>& alignments, const char* name) {
    for (const Alignment& aln : alignments) {
      scatter.add_row({TextTable::num(aln.span()),
                       TextTable::num(std::int64_t{aln.score}), name});
    }
  };
  add_points(gapped.alignments, "gapped");
  add_points(ungapped.alignments, "ungapped");
  scatter.render_csv(std::cout);

  std::cout << "\nPaper's claim to check: gapped finds more and higher-scoring "
               "alignments than ungapped (ratio here: "
            << TextTable::num(u.count ? static_cast<double>(g.count) /
                                            static_cast<double>(u.count)
                                      : 0.0, 2)
            << "x the alignment count).\n";
  return 0;
}
