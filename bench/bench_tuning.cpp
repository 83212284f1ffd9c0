// Design-choice ablation DESIGN.md calls out: the eager-tile side.
//
// Paper anchor: the 16x16 tile catches >80% of seeds at negligible cost
// (Section 3.1.2). This bench sweeps the tile side and reports modeled
// Ampere time plus the eager/executor split it governs. The Section 3.3 bin
// edges are fixed (kBinEdges): derive() packs every bin into the same
// launches, so they move no modeled time (EXPERIMENTS.md).
#include <iostream>

#include "report/experiment.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Tuning sweep: eager tile size.");
  add_harness_flags(cli);
  cli.add_flag("pair", "benchmark pair label", "C1_1,1");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  std::vector<BenchmarkPair> specs = {find_pair(cli.get("pair"), options.scale)};
  const std::vector<PreparedPair> prepared = prepare_pairs(specs, params, options);
  const FastzStudy& study = *prepared.front().study;
  const auto device = default_devices().ampere;
  const double t_seq = modeled_sequential_s(study);

  std::cout << "=== Eager tile size (paper: 16) ===\n";
  TextTable t({"Tile", "Eager seeds", "Executor tasks", "Ampere time (ms)",
               "Speedup"});
  for (std::uint32_t tile : {4u, 8u, 16u, 32u, 64u}) {
    FastzConfig config = FastzConfig::full();
    config.eager_tile = tile;
    const FastzRun run = study.derive(config, device);
    t.add_row({TextTable::num(std::uint64_t{tile}), TextTable::num(run.eager_handled),
               TextTable::num(run.executor_tasks),
               TextTable::num(run.modeled.total_s() * 1e3, 3),
               TextTable::num(t_seq / run.modeled.total_s(), 1) + "x"});
  }
  t.render(std::cout);
  std::cout << "Reading: beyond ~16 the extra tile state buys few seeds — "
               "the alignment-length distribution is already eager-saturated "
               "(and a larger tile would no longer fit shared memory per "
               "warp).\n";
  return 0;
}
