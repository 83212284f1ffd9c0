// Figure 8 — execution-time breakdown of FastZ on the Ampere GPU.
//
// Paper: the inspector is the largest component (~2/3, up to 79%), the
// executor ~10%, and "other" (host work: reading anchors and sequences,
// allocation, copies, bin sorting) the remainder — visible at all only
// because FastZ accelerated the DP stages so much. Benchmarks with smaller
// bin-4 counts spend relatively less time in inspector+executor.
//
// Per-benchmark stage times are persisted as a BenchReport
// (BENCH_fig8.json); with --trace the run also emits a Chrome trace.
#include <iostream>
#include <string>

#include "gpusim/profiler.hpp"
#include "report/experiment.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace fastz;

namespace {

// Span-weighted mean load-imbalance factor of the session's kernels in one
// pipeline phase (1.0 = perfectly balanced SMs).
double phase_imbalance(const gpusim::ProfilerSession& session,
                       const std::string& phase) {
  double weighted = 0.0, span = 0.0;
  for (const gpusim::KernelProfile& k : session.kernels()) {
    if (k.tag.phase != phase) continue;
    const double w = k.end_s - k.start_s;
    weighted += k.counters.load_imbalance() * w;
    span += w;
  }
  return span > 0.0 ? weighted / span : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Figure 8 — FastZ execution-time breakdown "
                "(inspector / executor / other) on Ampere.");
  add_harness_flags(cli);
  cli.add_flag("csv", "emit CSV instead of an aligned table", "0");
  cli.add_flag("json", "write a BenchReport JSON to this path (empty: skip)",
               "BENCH_fig8.json");
  cli.add_flag("trace", "write a Chrome trace to this path (enables telemetry)", "");
  if (const auto code = cli.parse_or_exit(argc, argv)) return *code;
  const bool csv = cli.get_bool("csv");
  const std::string json_path = cli.get("json");
  const std::string trace_path = cli.get("trace");
  if (!trace_path.empty()) telemetry::set_enabled(true);
  const HarnessOptions options = harness_options_from(cli);
  const ScoreParams params = harness_score_params(options);

  const std::vector<PreparedPair> prepared =
      prepare_pairs(same_genus_pairs(options.scale), params, options);
  const gpusim::DeviceSpec ampere = default_devices().ampere;
  const FastzConfig config = FastzConfig::full();

  std::cout << "=== Figure 8: execution time breakdown (Ampere GPU) ===\n";
  // Each pair derives under its own ProfilerSession: the dispatch telemetry
  // (launch counts, per-phase load imbalance) rides on the recorded kernel
  // tags. Profiling does not perturb the modeled costs (pinned by
  // Dispatch.ProfiledBatchedRunModelsIdenticalCosts).
  TextTable t({"Benchmark", "Inspector", "Executor", "Other", "Total (ms)",
               "Launches", "Imb I", "Imb E", ""});
  struct DispatchStats {
    std::string label;
    std::uint64_t launches = 0;
    double imbalance_inspector = 1.0;
    double imbalance_executor = 1.0;
  };
  std::vector<DispatchStats> dispatch_stats;
  for (const PreparedPair& pair : prepared) {
    gpusim::ProfilerSession session;
    FastzRun run;
    {
      const gpusim::ScopedProfiler scoped(session);
      run = pair.study->derive(config, ampere);
    }
    const double total = run.modeled.total_s();
    const double fi = run.modeled.inspector_s / total;
    const double fe = run.modeled.executor_s / total;
    const double fo = run.modeled.other_s / total;
    DispatchStats stats;
    stats.label = pair.spec.label;
    stats.launches = run.inspector_launches + run.executor_kernels;
    stats.imbalance_inspector = phase_imbalance(session, "inspector");
    stats.imbalance_executor = phase_imbalance(session, "executor");
    dispatch_stats.push_back(stats);
    t.add_row({pair.spec.label, TextTable::num(fi * 100, 1) + "%",
               TextTable::num(fe * 100, 1) + "%", TextTable::num(fo * 100, 1) + "%",
               TextTable::num(total * 1e3, 2), TextTable::num(stats.launches),
               TextTable::num(stats.imbalance_inspector, 2),
               TextTable::num(stats.imbalance_executor, 2),
               ascii_bar(fi, 30) + "|" + ascii_bar(fe, 30) + "|" + ascii_bar(fo, 30)});
  }
  t.render(std::cout, csv);

  if (!json_path.empty()) {
    telemetry::BenchReport report = breakdown_report(prepared, config, ampere);
    for (const DispatchStats& s : dispatch_stats) {
      report.add_metric(s.label + ".launches", static_cast<double>(s.launches));
      report.add_metric(s.label + ".load_imbalance_inspector", s.imbalance_inspector);
      report.add_metric(s.label + ".load_imbalance_executor", s.imbalance_executor);
    }
    add_harness_config(report, options);
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

  std::cout << "\nPaper's shape to compare: inspector ~2/3 (up to 79%), executor "
               "~10%, other the rest; lower bin-4 benchmarks have smaller "
               "inspector/executor shares.\n";
  return 0;
}
