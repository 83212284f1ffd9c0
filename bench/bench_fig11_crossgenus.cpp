// Figure 11 — FastZ performance on dissimilar (cross-genus) alignments.
//
// Paper: cross-genus pairs have no alignments in the two largest bins, so
// relatively more time is spent in the (faster) inspector — mean speedup
// 137x on Ampere, higher than the 111x same-genus mean.
#include <iostream>

#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Figure 11 — FastZ speedups on cross-genus (dissimilar) "
                "pairs on Ampere, compared with the same-genus mean.");
  add_harness_flags(cli);
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const bool csv = cli.get_bool("csv");
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const gpusim::DeviceSpec ampere = default_devices().ampere;
  const FastzConfig config = FastzConfig::full();

  auto fastz_speedup = [&](const PreparedPair& pair) {
    return modeled_sequential_s(*pair.study) /
           pair.study->derive(config, ampere).modeled.total_s();
  };

  const std::vector<PreparedPair> cross =
      prepare_pairs(cross_genus_pairs(options.scale), params, options);

  std::cout << "=== Figure 11: FastZ on dissimilar (cross-genus) pairs, Ampere ===\n";
  TextTable t({"Benchmark", "FastZ speedup", "Eager %", "Bin3+Bin4 count"});
  std::vector<double> speedups;
  for (const PreparedPair& pair : cross) {
    const double s = fastz_speedup(pair);
    speedups.push_back(s);
    const BinCensus c = pair.study->census();
    t.add_row({pair.spec.label, TextTable::num(s, 1),
               TextTable::num(c.eager_fraction() * 100, 1) + "%",
               TextTable::num(c.bins[2] + c.bins[3] + c.overflow)});
  }
  t.add_row({"mean", TextTable::num(geometric_mean(speedups), 1), "", ""});
  t.render(std::cout, csv);

  // Same-genus mean for the comparison the paper draws.
  const std::vector<PreparedPair> same =
      prepare_pairs(same_genus_pairs(options.scale), params, options);
  std::vector<double> same_speedups;
  for (const PreparedPair& pair : same) same_speedups.push_back(fastz_speedup(pair));

  std::cout << "\nSame-genus mean (Figure 7): "
            << TextTable::num(geometric_mean(same_speedups), 1)
            << "x; cross-genus mean: " << TextTable::num(geometric_mean(speedups), 1)
            << "x.\nPaper's values to compare: 111x same-genus vs 137x "
               "cross-genus — dissimilar genomes verify with empty large bins "
               "and a faster (inspector-dominated) profile.\n";
  return 0;
}
