// Figure 7 — FastZ performance: speedups over sequential LASTZ.
//
// Paper's series, per benchmark (bars left to right): GPU baseline on
// Pascal / Volta / Ampere (all *slowdowns*: 18-43% slower), 32-process
// multicore (~20x), FastZ on Pascal / Volta / Ampere (means 43x / 93x /
// 111x). Benchmarks are ordered by decreasing bin-4 census; fewer long
// alignments => higher FastZ speedup.
//
// The derivation sweep is repeated (>= 3x) and the min/median wallclock of
// the repeats is reported; results are persisted as a BenchReport
// (BENCH_fig7.json) and, with --trace, a Chrome trace timeline.
#include <algorithm>
#include <iostream>

#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "report/profile.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace fastz;

int main(int argc, char** argv) {
  CliParser cli("Figure 7 — speedup over sequential LASTZ for all nine "
                "same-genus benchmarks.");
  add_harness_flags(cli);
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  cli.add_flag("repeats", "measurement repeats of the derivation sweep (minimum 3)", "3");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_fig7.json");
  cli.add_flag("trace", "write a Chrome trace to this path (enables telemetry)", "");
  cli.add_flag("profile",
               "write a fastz.profile/v1 JSON of a profiled FastZ/Ampere sweep "
               "to this path (empty: skip)",
               "");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const bool csv = cli.get_bool("csv");
  const int repeats = static_cast<int>(std::max<std::int64_t>(3, cli.get_int("repeats")));
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");
  const std::string profile_path = cli.get("profile");
  if (!trace_path.empty()) telemetry::set_enabled(true);
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const std::vector<PreparedPair> prepared =
      prepare_pairs(same_genus_pairs(options.scale), params, options);

  // The modeled speedups are deterministic; the repeats measure the
  // harness's own wallclock so the persisted numbers carry an error bar.
  std::vector<SpeedupRow> rows;
  std::vector<double> wallclocks;
  wallclocks.reserve(static_cast<std::size_t>(repeats));
  for (int rep = 0; rep < repeats; ++rep) {
    Timer timer;
    rows.clear();
    rows.reserve(prepared.size() + 1);
    for (const PreparedPair& pair : prepared) rows.push_back(compute_speedups(pair));
    rows.push_back(mean_row(rows));
    wallclocks.push_back(timer.elapsed_s());
  }
  const double wall_min = *std::min_element(wallclocks.begin(), wallclocks.end());
  const double wall_median = percentile(wallclocks, 50.0);

  std::cout << "=== Figure 7: speedup over sequential LASTZ ===\n";
  TextTable t({"Benchmark", "GPUbase-P", "GPUbase-V", "GPUbase-A", "Multicore",
               "FastZ-Pascal", "FastZ-Volta", "FastZ-Ampere"});
  for (const SpeedupRow& r : rows) {
    t.add_row({r.label, TextTable::num(r.gpu_baseline_pascal, 2),
               TextTable::num(r.gpu_baseline_volta, 2),
               TextTable::num(r.gpu_baseline_ampere, 2),
               TextTable::num(r.multicore, 1), TextTable::num(r.fastz_pascal, 1),
               TextTable::num(r.fastz_volta, 1), TextTable::num(r.fastz_ampere, 1)});
  }
  t.render(std::cout, csv);
  std::cout << "\nDerivation sweep wallclock over " << repeats
            << " repeats: min " << TextTable::num(wall_min * 1e3, 1) << " ms, median "
            << TextTable::num(wall_median * 1e3, 1) << " ms\n";

  // Profiled sweep: one extra FastZ/Ampere derivation per pair under an
  // installed ProfilerSession (kept out of the wallclock repeats above so
  // the measured numbers stay profiling-free).
  gpusim::ProfilerSession session;
  if (!profile_path.empty()) {
    const gpusim::ScopedProfiler scoped(session);
    const DeviceSet devices = default_devices();
    for (const PreparedPair& pair : prepared) {
      (void)pair.study->derive(FastzConfig::full(), devices.ampere);
    }
    if (write_profile_file(profile_path, session, "fig7_speedup", "ampere")) {
      std::cout << "wrote " << profile_path << "\n";
    } else {
      std::cerr << "failed to write " << profile_path << "\n";
    }
  }

  if (!json_path.empty()) {
    telemetry::BenchReport report = speedup_report(rows);
    report.set_repeats(repeats);
    add_harness_config(report, options);
    report.add_metric("wallclock_min_s", wall_min);
    report.add_metric("wallclock_median_s", wall_median);
    if (!profile_path.empty()) {
      report.add_metric("profile.eager_hit_rate", session.eager_hit_rate());
      report.add_metric("profile.elision_ratio", session.score_elision_ratio());
    }
    report.add_registry_counters(telemetry::MetricsRegistry::global());
    if (report.write_file(json_path)) {
      std::cout << "wrote " << json_path << "\n";
    } else {
      std::cerr << "failed to write " << json_path << "\n";
    }
  }
  if (!trace_path.empty()) {
    if (telemetry::write_chrome_trace_file(trace_path)) {
      std::cout << "wrote " << trace_path << "\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
    }
  }

  std::cout << "\nPaper's values to compare: GPU baseline 0.57-0.82x (slowdown), "
               "multicore ~20x, FastZ means 43x (Pascal), 93x (Volta), "
               "111x (Ampere); speedups rise as the bin-4 census falls\n"
               "(benchmarks are listed in the paper's order of decreasing "
               "bin-4 count).\n";
  return 0;
}
