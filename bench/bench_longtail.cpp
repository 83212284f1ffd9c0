// bench_longtail — the long-alignment tail through the linear-space
// (Hirschberg) traceback.
//
// The paper's load-balancing bins end at 32768 bp; the tail beyond them is
// where the dense per-cell traceback rectangle stops fitting device memory.
// This bench sweeps the genome_synth long-tail presets (10x / 32x / 100x of
// the bin edge), reporting for each the resident traceback state of the
// checkpoint-bisection path against the dense rectangle it replaces, plus
// the replay-work overhead that buys the O(n + m) footprint.
//
// Wherever the dense matrix is still affordable (--dense-limit-mb) the two
// paths are also compared op-for-op; any divergence prints both sides and
// the process exits 2 — the same correctness contract as bench_service.
//
//   bench_longtail --smoke 1 --json BENCH_longtail_smoke.json   # CI gate
//   bench_longtail                                              # full sweep
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "align/ydrop_align.hpp"
#include "sequence/genome_synth.hpp"
#include "telemetry/bench_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace fastz;

namespace {

struct PresetRun {
  std::string label;
  std::uint64_t extent = 0;  // n + m of the traced alignment
  OneSidedResult linear;
  LinearTracebackStats stats;
  double linear_s = 0.0;
  double dense_s = 0.0;
  bool dense_checked = false;
};

ScoreParams sweep_params() {
  ScoreParams p = lastz_default_params();
  p.ydrop = 1200;  // keeps the y-drop band narrow at 0.97 identity
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(
      "Long-tail sweep: linear-space (Hirschberg) traceback at 10x/32x/100x "
      "of the last load-balancing bin edge, with bit-identity against the "
      "dense path where affordable (exit 2 on divergence).");
  cli.add_flag("scale", "preset scale (1.0 = full 327 kbp - 3.3 Mbp sweep)", "1.0");
  cli.add_flag("smoke", "CI smoke mode: scale 0.02, dense check everywhere", "0");
  cli.add_flag("seed", "synthesis seed", "7");
  cli.add_flag("block-rows", "Hirschberg base-block height", "64");
  cli.add_flag("dense-limit-mb",
               "run the dense bit-identity check when the packed rectangle "
               "fits this many MB",
               "256");
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_longtail.json");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;

  const bool smoke = cli.get_bool("smoke");
  const double scale = smoke ? 0.02 : cli.get_double("scale");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto block_rows =
      static_cast<std::uint32_t>(std::max<std::int64_t>(1, cli.get_int("block-rows")));
  const std::uint64_t dense_limit_bytes =
      static_cast<std::uint64_t>(cli.get_int("dense-limit-mb")) * 1024 * 1024;
  const bool csv = cli.get_bool("csv");
  const std::string json_path = cli.get("json");
  const ScoreParams params = sweep_params();

  std::vector<PresetRun> runs;
  for (const LongTailPreset& preset : longtail_presets(scale)) {
    const SyntheticPair pair = longtail_pair(preset, seed);
    const SegmentRecord& seg = pair.segments.at(0);
    const auto av = pair.a.codes().subspan(seg.a_begin);
    const auto bv = pair.b.codes().subspan(seg.b_begin);

    OneSidedOptions search;
    search.prune = PruneMode::kConservative;
    search.max_rows = 4'000'000;
    search.max_cols = 4'000'000;
    const OneSidedResult found = ydrop_one_sided_align(av, bv, params, search);

    OneSidedOptions opts = search;
    opts.max_rows = found.best.i;
    opts.max_cols = found.best.j;
    opts.want_traceback = true;
    opts.trace_from_fixed = true;
    opts.trace_i = found.best.i;
    opts.trace_j = found.best.j;
    opts.hirschberg_block_rows = block_rows;

    PresetRun run;
    run.label = preset.label;
    run.extent = std::uint64_t{found.best.i} + found.best.j;
    Timer linear_timer;
    run.linear = ydrop_linear_traceback(av, bv, params, opts, &run.stats);
    run.linear_s = linear_timer.elapsed_s();

    if (run.linear.cells <= dense_limit_bytes) {
      Timer dense_timer;
      const OneSidedResult dense = ydrop_one_sided_align(av, bv, params, opts);
      run.dense_s = dense_timer.elapsed_s();
      run.dense_checked = true;
      if (dense.best.score != run.linear.best.score ||
          dense.ops != run.linear.ops || dense.cells != run.linear.cells) {
        std::cerr << "bench_longtail: DIVERGENCE on preset " << preset.label
                  << " (seed " << seed << "): dense score " << dense.best.score
                  << " / " << dense.ops.size() << " ops / " << dense.cells
                  << " cells vs linear " << run.linear.best.score << " / "
                  << run.linear.ops.size() << " ops / " << run.linear.cells
                  << " cells\n";
        return 2;
      }
    }
    runs.push_back(std::move(run));
  }

  std::cout << "=== Long tail: linear-space traceback sweep (scale "
            << TextTable::num(scale, 3) << ") ===\n";
  TextTable t({"Preset", "n+m", "PlanCells", "Replay/Plan", "PeakTraceB",
               "PeakCkptB", "ResidentB", "DenseB", "Reduction", "Linear-ms",
               "Dense-ms"});
  for (const PresetRun& r : runs) {
    const std::uint64_t resident =
        r.stats.peak_trace_bytes + r.stats.peak_checkpoint_bytes;
    t.add_row({r.label, std::to_string(r.extent), std::to_string(r.stats.plan_cells),
               TextTable::num(static_cast<double>(r.stats.replay_cells) /
                                  static_cast<double>(std::max<std::uint64_t>(
                                      1, r.stats.plan_cells)),
                              2),
               std::to_string(r.stats.peak_trace_bytes),
               std::to_string(r.stats.peak_checkpoint_bytes),
               std::to_string(resident), std::to_string(r.linear.cells),
               TextTable::num(static_cast<double>(r.linear.cells) /
                                  static_cast<double>(std::max<std::uint64_t>(1, resident)),
                              1),
               TextTable::num(r.linear_s * 1e3, 1),
               r.dense_checked ? TextTable::num(r.dense_s * 1e3, 1) : "-"});
  }
  t.render(std::cout, csv);
  std::size_t checked = 0;
  for (const PresetRun& r : runs) checked += r.dense_checked ? 1 : 0;
  std::cout << "\nDense bit-identity verified on " << checked << "/" << runs.size()
            << " presets (every verified pair matched op-for-op)\n";

  if (!json_path.empty()) {
    telemetry::BenchReport report("longtail");
    report.add_config("scale", TextTable::num(scale, 4));
    report.add_config("seed", std::to_string(seed));
    report.add_config("ydrop", std::to_string(params.ydrop));
    report.add_config("block_rows", std::to_string(block_rows));
    for (const PresetRun& r : runs) {
      const std::uint64_t resident =
          r.stats.peak_trace_bytes + r.stats.peak_checkpoint_bytes;
      report.add_metric(r.label + ".extent", static_cast<double>(r.extent));
      report.add_metric(r.label + ".plan_cells", static_cast<double>(r.stats.plan_cells));
      report.add_metric(r.label + ".replay_cells",
                        static_cast<double>(r.stats.replay_cells));
      report.add_metric(r.label + ".peak_trace_bytes",
                        static_cast<double>(r.stats.peak_trace_bytes));
      report.add_metric(r.label + ".peak_checkpoint_bytes",
                        static_cast<double>(r.stats.peak_checkpoint_bytes));
      report.add_metric(r.label + ".resident_bytes", static_cast<double>(resident));
      report.add_metric(r.label + ".dense_bytes", static_cast<double>(r.linear.cells));
      report.add_metric(r.label + ".reduction",
                        static_cast<double>(r.linear.cells) /
                            static_cast<double>(std::max<std::uint64_t>(1, resident)));
      report.add_metric(r.label + ".splits", static_cast<double>(r.stats.splits));
      report.add_metric(r.label + ".ops", static_cast<double>(r.linear.ops.size()));
      report.add_metric(r.label + ".score", static_cast<double>(r.linear.best.score));
      report.add_metric("wallclock." + r.label + "_linear_s", r.linear_s);
      if (r.dense_checked) {
        report.add_metric("wallclock." + r.label + "_dense_s", r.dense_s);
      }
    }
    report.add_metric("dense_checked", static_cast<double>(checked));
    if (report.write_file(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
