// Reproduces Table 1 (genome inventory) and the pairing graphs of Figure 6
// (same-genus alignments) and Figure 10 (cross-genus alignments), and
// reports the synthetic chromosome sizes generated at the chosen scale.
#include <iostream>

#include "report/experiment.hpp"
#include "sequence/benchmark_pairs.hpp"
#include "sequence/genome_synth.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli(
      "Table 1 / Figure 6 / Figure 10 — benchmark genome inventory and "
      "pairwise alignment workloads.");
  add_harness_flags(cli);
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const HarnessOptions options = harness_options_from(cli);

  std::cout << "=== Table 1: Genomes ===\n";
  TextTable t1({"Common Name", "Species", "Basepairs"});
  for (const SpeciesInfo& s : table1_species()) {
    t1.add_row({s.common_name, s.species, TextTable::num(std::uint64_t{s.basepairs})});
  }
  t1.render(std::cout);

  auto render_pairs = [&](const std::vector<BenchmarkPair>& pairs, const char* title) {
    std::cout << "\n=== " << title << " (scale " << options.scale << ") ===\n";
    TextTable t({"Pair", "Species A", "Species B", "Full A (bp)", "Full B (bp)",
                 "Generated A (bp)", "Segments planted"});
    for (const BenchmarkPair& p : pairs) {
      const SyntheticPair data =
          generate_pair(p.model, p.generator_seed, p.species_a, p.species_b);
      t.add_row({p.label, p.species_a, p.species_b,
                 TextTable::num(std::uint64_t{p.full_length_a}),
                 TextTable::num(std::uint64_t{p.full_length_b}),
                 TextTable::num(std::uint64_t{data.a.size()}),
                 TextTable::num(std::uint64_t{data.segments.size()})});
    }
    t.render(std::cout);
  };

  render_pairs(same_genus_pairs(options.scale),
               "Figure 6: same-genus pairwise alignments");
  render_pairs(cross_genus_pairs(options.scale),
               "Figure 10: cross-genus pairwise alignments");

  std::cout << "\nNote: chromosomes are synthesized (no offline assemblies); see\n"
               "DESIGN.md for the homology-structure calibration.\n";
  return 0;
}
