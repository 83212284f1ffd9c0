// Cross-species conservation scan.
//
// The second comparative-genomics scenario from the paper's introduction
// and Section 5.4: sweep one chromosome against several increasingly
// diverged partners and watch how the conserved-segment yield, the
// alignment-length census, and FastZ's modeled speedup change. Dissimilar
// genomes verify the paper's observation that cross-genus comparisons leave
// the two largest bins empty and run relatively faster (inspector-
// dominated).
#include <iostream>

#include "report/alignment_stats.hpp"
#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Scan a nematode chromosome against same-genus and "
                "cross-genus partners.");
  add_harness_flags(cli);
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  // One same-genus pair plus every cross-genus pair involving C. elegans.
  std::vector<BenchmarkPair> specs;
  specs.push_back(find_pair("C1_1,1", options.scale));
  for (const BenchmarkPair& p : cross_genus_pairs(options.scale)) {
    if (p.species_a.rfind("C. elegans", 0) == 0) specs.push_back(p);
  }

  const std::vector<PreparedPair> prepared = prepare_pairs(specs, params, options);
  const gpusim::DeviceSpec ampere = default_devices().ampere;

  std::cout << "=== Conservation scan (Ampere model) ===\n";
  TextTable t({"Pair", "Kind", "Alignments", "Aligned bp (N50)", "Mean identity",
               "Segment recall", "Eager %", "Bins 3+4", "FastZ speedup"});
  for (const PreparedPair& pair : prepared) {
    const AlignmentSetStats stats =
        summarize_alignments(pair.study->alignments(), pair.data.a, pair.data.b);
    const double recall = segment_recall(pair.study->alignments(), pair.data.segments);
    const BinCensus c = pair.study->census();
    const double speedup = modeled_sequential_s(*pair.study) /
                           pair.study->derive(FastzConfig::full(), ampere).modeled.total_s();
    t.add_row({pair.spec.label, pair.spec.cross_genus ? "cross-genus" : "same-genus",
               TextTable::num(std::uint64_t{stats.count}),
               TextTable::num(stats.aligned_bp) + " (" + TextTable::num(stats.n50) + ")",
               TextTable::num(stats.mean_identity * 100, 1) + "%",
               TextTable::num(recall * 100, 1) + "%",
               TextTable::num(c.eager_fraction() * 100, 1) + "%",
               TextTable::num(c.bins[2] + c.bins[3] + c.overflow),
               TextTable::num(speedup, 1) + "x"});
  }
  t.render(std::cout);

  std::cout << "\nExpected pattern (paper Section 5.4): cross-genus pairs have "
               "fewer/shorter conserved segments, empty large bins, and higher "
               "FastZ speedups than the same-genus pair.\n";
  return 0;
}
